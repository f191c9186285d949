package karl

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"karl/internal/index"
	"karl/internal/segment"
	"karl/internal/vec"
)

// persistVersion is the one on-disk format version this build writes and
// reads. A static file is one gob enginePayload carrying the built flat
// index itself (leaf-ordered points and weights, the original-row mapping,
// the preorder node arrays, the flattened bounding volumes), so loading
// reconstructs the exact tree and answers are bitwise identical across a
// round trip; a dynamic file is one gob dynamicPayload: the LSM policy, the
// manifest as per-segment engine payloads with their sequence numbers and
// timestamps, the raw memtable rows, and the pending tombstones. Files of
// earlier versions are refused by version number. Version-7 files written
// by earlier builds may carry a LeafFloat32 field, which gob skips.
const persistVersion = 7

// sketchProvenance is the wire form of SketchInfo: a saved coreset engine
// records what it was reduced from and the error bound it carries.
type sketchProvenance struct {
	SourceLen    int
	SourceWeight float64
	Len          int
	Eps          float64
	Delta        float64
	Basis        string
	Method       int
}

// enginePayload is the gob wire format for an Engine. It carries the flat
// index layout itself (leaf-ordered points plus the node arrays below), so
// loading is a reconstruction, not a rebuild.
type enginePayload struct {
	Version int
	Dims    int
	Points  []float64 // row-major Dims-wide rows, leaf-ordered
	Weights []float64 // nil for unit weights; leaf-ordered
	Kernel  Kernel
	Kind    IndexKind
	LeafCap int
	Method  Method
	Sketch  *sketchProvenance // nil for full-set engines
	Shard   *shardWire        // nil for unpartitioned engines

	// Flat index layout: storage row -> original row, the DFS-preorder
	// node arrays, and every node's bounding-volume parameters packed by
	// index.FlattenVolumes. Norms and aggregates are derived data and are
	// recomputed on load.
	PointID   []int32
	NodeStart []int32
	NodeEnd   []int32
	NodeRight []int32
	NodeDepth []int32
	VolData   []float64
}

// shardWire is the wire form of ShardProvenance: a saved shard engine
// records which slice of which partition it indexes.
type shardWire struct {
	Index     int
	Of        int
	Partition int
	SourceLen int
}

// svmPayload wraps an engine payload with the SVM decision threshold.
type svmPayload struct {
	Engine enginePayload
	Rho    float64
}

// payload flattens an engine for serialization.
func (e *Engine) payload() enginePayload {
	p := treePayload(e.tree, e.kern, publicMethod(e.eng.Method()))
	if e.sketch != nil {
		p.Sketch = &sketchProvenance{
			SourceLen:    e.sketch.SourceLen,
			SourceWeight: e.sketch.SourceWeight,
			Len:          e.sketch.Len,
			Eps:          e.sketch.Eps,
			Delta:        e.sketch.Delta,
			Basis:        string(e.sketch.Basis),
			Method:       int(e.sketch.Method),
		}
	}
	if e.shardProv != nil {
		p.Shard = &shardWire{
			Index:     e.shardProv.Index,
			Of:        e.shardProv.Of,
			Partition: int(e.shardProv.Partition),
			SourceLen: e.shardProv.SourceLen,
		}
	}
	return p
}

// treePayload flattens one built index (plus the kernel and bounding
// method it is queried with) into the wire layout — the unit both the
// static engine format and every segment of the dynamic format reuse.
func treePayload(tree *index.Tree, kern Kernel, method Method) enginePayload {
	kind := publicIndexKind(tree.Kind)
	pts := make([]float64, len(tree.Points.Data))
	copy(pts, tree.Points.Data)
	var w []float64
	if tree.Weights != nil {
		w = make([]float64, len(tree.Weights))
		copy(w, tree.Weights)
	}
	nn := tree.NodeCount()
	nodeStart := make([]int32, nn)
	nodeEnd := make([]int32, nn)
	nodeRight := make([]int32, nn)
	nodeDepth := make([]int32, nn)
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		nodeStart[i], nodeEnd[i], nodeRight[i], nodeDepth[i] = n.Start, n.End, n.Right, n.Depth
	}
	pointID := make([]int32, len(tree.PointID))
	copy(pointID, tree.PointID)
	return enginePayload{
		Version:   persistVersion,
		Dims:      tree.Dims(),
		Points:    pts,
		Weights:   w,
		Kernel:    kern,
		Kind:      kind,
		LeafCap:   tree.LeafCap,
		Method:    method,
		PointID:   pointID,
		NodeStart: nodeStart,
		NodeEnd:   nodeEnd,
		NodeRight: nodeRight,
		NodeDepth: nodeDepth,
		VolData:   tree.FlattenVolumes(),
	}
}

// restoreTree validates a payload and reconstructs its flat index exactly.
func (p enginePayload) restoreTree() (*index.Tree, error) {
	kind, err := indexKindOf(p.Kind)
	if err != nil {
		return nil, err
	}
	if p.Dims < 1 || len(p.Points) == 0 || len(p.Points)%p.Dims != 0 {
		return nil, errors.New("karl: corrupt engine payload")
	}
	m := &vec.Matrix{Data: p.Points, Rows: len(p.Points) / p.Dims, Cols: p.Dims}
	if p.Weights != nil && len(p.Weights) != m.Rows {
		return nil, errors.New("karl: corrupt engine payload (weights)")
	}
	tree, err := index.Reconstruct(kind, m, p.Weights, p.PointID,
		p.NodeStart, p.NodeEnd, p.NodeRight, p.NodeDepth, p.VolData, p.LeafCap)
	if err != nil {
		return nil, fmt.Errorf("karl: corrupt engine payload: %w", err)
	}
	return tree, nil
}

// restore rebuilds an engine from a payload.
func (p enginePayload) restore() (*Engine, error) {
	if p.Version != persistVersion {
		return nil, fmt.Errorf("karl: unsupported engine format version %d (this build reads version %d)",
			p.Version, persistVersion)
	}
	if len(p.Points) == 0 {
		return nil, errors.New("karl: stream has no static engine payload (a dynamic engine file? use ReadDynamic)")
	}
	method, err := methodOf(p.Method)
	if err != nil {
		return nil, err
	}
	tree, err := p.restoreTree()
	if err != nil {
		return nil, err
	}
	eng, err := engineFromTree(tree, p.Kernel, method)
	if err != nil {
		return nil, err
	}
	if p.Sketch != nil {
		if p.Sketch.Len != eng.Len() || p.Sketch.SourceLen < eng.Len() {
			return nil, errors.New("karl: corrupt engine payload (sketch provenance)")
		}
		eng.sketch = &SketchInfo{
			SourceLen:    p.Sketch.SourceLen,
			SourceWeight: p.Sketch.SourceWeight,
			Len:          p.Sketch.Len,
			Eps:          p.Sketch.Eps,
			Delta:        p.Sketch.Delta,
			Basis:        SketchBasis(p.Sketch.Basis),
			Method:       CoresetMethod(p.Sketch.Method),
		}
	}
	if p.Shard != nil {
		if p.Shard.Of < 1 || p.Shard.Index < 0 || p.Shard.Index >= p.Shard.Of || p.Shard.SourceLen < eng.Len() {
			return nil, errors.New("karl: corrupt engine payload (shard provenance)")
		}
		eng.shardProv = &ShardProvenance{
			Index:     p.Shard.Index,
			Of:        p.Shard.Of,
			Partition: PartitionKind(p.Shard.Partition),
			SourceLen: p.Shard.SourceLen,
		}
	}
	return eng, nil
}

// WriteTo serializes the engine (kernel, bounding method and the built flat
// index with its points and weights) to w; ReadEngine reconstructs the
// identical index without rebuilding it.
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(e.payload()); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadEngine deserializes an engine written by Engine.WriteTo.
func ReadEngine(r io.Reader) (*Engine, error) {
	var p enginePayload
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, err
	}
	return p.restore()
}

// WriteTo serializes a trained SVM (support vectors, weights, kernel, ρ).
func (s *SVM) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	payload := svmPayload{Engine: s.eng.payload(), Rho: s.Rho}
	if err := gob.NewEncoder(cw).Encode(payload); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadSVM deserializes an SVM written by SVM.WriteTo.
func ReadSVM(r io.Reader) (*SVM, error) {
	var p svmPayload
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, err
	}
	eng, err := p.Engine.restore()
	if err != nil {
		return nil, err
	}
	return &SVM{eng: eng, Rho: p.Rho, SupportVectors: eng.Len()}, nil
}

// segmentPayload is the wire form of one manifest segment: a flat-index
// payload plus the segment's identity, and its per-row sequence numbers
// and insert timestamps in insertion order with the decay reference
// instant. Coreset and Eps belonged to the removed cold-compaction tier:
// nothing writes them, and ReadDynamic refuses a file that set either.
type segmentPayload struct {
	Engine  enginePayload
	ID      uint64
	Coreset bool
	Eps     float64
	Seqs    []uint64
	Times   []int64 // nil on untimed engines
	TimeRef int64
}

// dynamicPayload is the gob wire format for a DynamicEngine: the LSM
// policy, the manifest as per-segment payloads, and the raw memtable rows
// in insertion order. ColdEps, ColdMin and ColdSeed configured the removed
// cold-compaction tier: nothing writes them, and ReadDynamic refuses a
// file that set any of them.
type dynamicPayload struct {
	Version     int
	Dims        int
	Kernel      Kernel
	Kind        IndexKind
	LeafCap     int
	Method      Method
	SealSize    int
	Fanout      int
	AutoCompact bool
	ColdEps     float64
	ColdMin     int
	ColdSeed    int64
	Epoch       uint64
	NextID      uint64
	Seals       int
	Compactions int
	Segments    []segmentPayload
	MemPoints   []float64 // row-major Dims-wide memtable rows
	MemWeights  []float64 // parallel to MemPoints rows

	// Mutability state. Tombstones are stored sorted by sequence
	// number: TombPts holds their coordinates as Dims-wide rows parallel
	// to TombSeqs/TombW/TombRef.
	TTL      int64 // nanoseconds; 0 = no expiry
	HalfLife int64 // nanoseconds; 0 = no decay
	NextSeq  uint64
	Deletes  int
	MemSeqs  []uint64 // parallel to MemPoints rows
	MemTimes []int64  // parallel to MemPoints rows; nil on untimed engines
	TombSeqs []uint64
	TombW    []float64
	TombRef  []int64
	TombPts  []float64
}

// WriteTo serializes the dynamic engine — manifest, memtable and policy —
// so a reload resumes with the identical segment layout and therefore
// bitwise-identical answers. It waits for an in-flight seal or full
// compaction to finish, then snapshots under the lock; a concurrent
// background merge does not block the write (the pre-merge manifest is a
// consistent snapshot).
func (d *DynamicEngine) WriteTo(w io.Writer) (int64, error) {
	sh := d.sh
	sh.mu.Lock()
	for sh.sealing != nil || sh.draining {
		sh.cond.Wait()
	}
	method := publicMethod(sh.method)
	p := dynamicPayload{
		Version:     persistVersion,
		Dims:        sh.dims,
		Kernel:      sh.kern,
		Kind:        publicIndexKind(sh.bcfg.Kind),
		LeafCap:     sh.bcfg.LeafCap,
		Method:      method,
		SealSize:    sh.policy.SealSize,
		Fanout:      sh.policy.Fanout,
		AutoCompact: sh.autoCompact,
		Epoch:       sh.man.Epoch,
		NextID:      sh.nextID,
		Seals:       sh.seals,
		Compactions: sh.compactions,
		TTL:         sh.ttl,
		HalfLife:    int64(sh.halfLife),
		NextSeq:     sh.nextSeq,
		Deletes:     sh.deletes,
	}
	p.Segments = make([]segmentPayload, len(sh.man.Segs))
	for i, s := range sh.man.Segs {
		p.Segments[i] = segmentPayload{
			Engine:  treePayload(s.Tree, sh.kern, method),
			ID:      s.ID,
			Seqs:    append([]uint64(nil), s.Seqs...),
			Times:   append([]int64(nil), s.Times...),
			TimeRef: s.TimeRef,
		}
	}
	if n := sh.mem.len(); n > 0 {
		p.MemPoints = make([]float64, n*sh.dims)
		copy(p.MemPoints, sh.mem.m.Data[:n*sh.dims])
		p.MemWeights = make([]float64, n)
		copy(p.MemWeights, sh.mem.w[:n])
		p.MemSeqs = make([]uint64, n)
		copy(p.MemSeqs, sh.mem.seq[:n])
		if sh.mem.t != nil {
			p.MemTimes = make([]int64, n)
			copy(p.MemTimes, sh.mem.t[:n])
		}
	}
	p.setTombs(deadOf(sh.man.Segs)...) // sealDead is empty: the seal was waited out
	sh.mu.Unlock()
	cw := &countWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(p); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// setTombs stores the given tombstone sets as the payload's parallel
// arrays, sorted by sequence number (the on-disk order; the per-segment
// attribution is not stored — a load re-derives it from the segments'
// sequence numbers).
func (p *dynamicPayload) setTombs(sets ...*segment.Dead) {
	all := &segment.Dead{}
	for _, d := range sets {
		for i := 0; i < d.Len(); i++ {
			all.Add(d.Seqs[i], d.W[i], d.Ref[i], d.Row(i))
		}
	}
	if all.Len() > 0 {
		p.TombSeqs, p.TombW, p.TombRef, p.TombPts = all.Seqs, all.W, all.Ref, all.Pts
	}
}

// ReadDynamic deserializes a dynamic engine written by
// DynamicEngine.WriteTo. The manifest is reconstructed segment by segment
// (no rebuilding), so answers are bitwise identical across the round trip.
func ReadDynamic(r io.Reader) (*DynamicEngine, error) {
	var p dynamicPayload
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, err
	}
	if p.Version != persistVersion {
		return nil, fmt.Errorf("karl: unsupported dynamic engine format version %d (this build reads version %d; static engine files load with ReadEngine)",
			p.Version, persistVersion)
	}
	if p.SealSize == 0 && len(p.Segments) == 0 {
		// A static engine stream decodes into these fields as zeroes.
		return nil, errors.New("karl: stream has no dynamic engine payload (a static engine file? use ReadEngine)")
	}
	if p.usedColdCompaction() {
		return nil, errors.New("karl: dynamic engine file was written with cold compaction, which this build does not support")
	}
	policy := segment.Policy{SealSize: p.SealSize, Fanout: p.Fanout}
	if err := policy.Validate(); err != nil {
		return nil, fmt.Errorf("karl: corrupt dynamic engine payload: %w", err)
	}
	if err := p.Kernel.Validate(); err != nil {
		return nil, fmt.Errorf("karl: corrupt dynamic engine payload: %w", err)
	}
	if p.TTL < 0 || p.HalfLife < 0 {
		return nil, errors.New("karl: corrupt dynamic engine payload (negative ttl or half-life)")
	}
	memN := 0
	if len(p.MemPoints) > 0 {
		if p.Dims < 1 || len(p.MemPoints)%p.Dims != 0 {
			return nil, errors.New("karl: corrupt dynamic engine payload (memtable)")
		}
		memN = len(p.MemPoints) / p.Dims
		if len(p.MemWeights) != memN {
			return nil, errors.New("karl: corrupt dynamic engine payload (memtable weights)")
		}
		if len(p.MemSeqs) != memN {
			return nil, errors.New("karl: corrupt dynamic engine payload (memtable seqs)")
		}
		if p.MemTimes != nil && len(p.MemTimes) != memN {
			return nil, errors.New("karl: corrupt dynamic engine payload (memtable times)")
		}
	}
	timed := p.TTL > 0 || p.HalfLife > 0
	if timed && memN > 0 && p.MemTimes == nil {
		return nil, errors.New("karl: corrupt dynamic engine payload (timed engine without memtable times)")
	}
	method, err := methodOf(p.Method)
	if err != nil {
		return nil, err
	}
	kind, err := indexKindOf(p.Kind)
	if err != nil {
		return nil, err
	}
	sh := &dynShared{
		kern:        p.Kernel,
		method:      method,
		bcfg:        segment.BuildConfig{Kind: kind, LeafCap: p.LeafCap},
		policy:      policy,
		autoCompact: p.AutoCompact,
		ttl:         p.TTL,
		halfLife:    float64(p.HalfLife),
		now:         func() int64 { return time.Now().UnixNano() },
		dims:        p.Dims,
		nextID:      p.NextID,
		nextSeq:     p.NextSeq,
		deletes:     p.Deletes,
		delLogBase:  uint64(p.Deletes),
		seals:       p.Seals,
		compactions: p.Compactions,
	}
	sh.cond = sync.NewCond(&sh.mu)
	man := &segment.Manifest{Epoch: p.Epoch, Segs: make([]*segment.Segment, len(p.Segments))}
	for i, sp := range p.Segments {
		tree, err := sp.Engine.restoreTree()
		if err != nil {
			return nil, fmt.Errorf("karl: segment %d: %w", i, err)
		}
		if p.Dims != 0 && tree.Dims() != p.Dims {
			return nil, fmt.Errorf("karl: corrupt dynamic engine payload: segment %d has %d dims, engine has %d", i, tree.Dims(), p.Dims)
		}
		seqs, times := sp.Seqs, sp.Times
		if len(seqs) != tree.Len() {
			return nil, fmt.Errorf("karl: corrupt dynamic engine payload: segment %d has %d seqs for %d points", i, len(seqs), tree.Len())
		}
		for j := 1; j < len(seqs); j++ {
			if seqs[j] <= seqs[j-1] {
				return nil, fmt.Errorf("karl: corrupt dynamic engine payload: segment %d seqs not ascending", i)
			}
		}
		if times != nil && len(times) != tree.Len() {
			return nil, fmt.Errorf("karl: corrupt dynamic engine payload: segment %d has %d times for %d points", i, len(times), tree.Len())
		}
		man.Segs[i] = segment.New(tree, sp.ID, seqs, times, sp.TimeRef)
	}
	sh.man = man
	if memN > 0 {
		rows := sh.policy.SealSize
		if memN > rows {
			rows = memN
		}
		sh.mem = newMemtable(rows, p.Dims, timed)
		copy(sh.mem.m.Data, p.MemPoints)
		copy(sh.mem.w, p.MemWeights)
		copy(sh.mem.seq, p.MemSeqs)
		if sh.mem.t != nil && p.MemTimes != nil {
			copy(sh.mem.t, p.MemTimes)
		}
		for j := 1; j < memN; j++ {
			if sh.mem.seq[j] <= sh.mem.seq[j-1] {
				return nil, errors.New("karl: corrupt dynamic engine payload (memtable seqs not ascending)")
			}
		}
		sh.mem.n = memN
	}
	if sh.nextSeq == 0 {
		sh.nextSeq = 1
	}
	// Tombstones: parallel arrays sorted by seq. Each one is handed
	// to the segment that stores its row; one that shadows no stored row
	// would subtract mass the engine does not hold.
	nt := len(p.TombSeqs)
	if len(p.TombW) != nt || len(p.TombRef) != nt || len(p.TombPts) != nt*p.Dims {
		return nil, errors.New("karl: corrupt dynamic engine payload (tombstones)")
	}
	for i := 0; i < nt; i++ {
		seq := p.TombSeqs[i]
		if seq == 0 || seq >= sh.nextSeq {
			return nil, errors.New("karl: corrupt dynamic engine payload (tombstone seq out of range)")
		}
		var home *segment.Segment
		for _, s := range man.Segs {
			if _, ok := s.Find(seq); ok {
				home = s
				break
			}
		}
		if home == nil {
			return nil, errors.New("karl: corrupt dynamic engine payload (tombstone for a row no segment stores)")
		}
		if home.Dead == nil {
			home.Dead = &segment.Dead{}
		}
		if !home.Dead.Add(seq, p.TombW[i], p.TombRef[i], p.TombPts[i*p.Dims:(i+1)*p.Dims]) {
			return nil, errors.New("karl: corrupt dynamic engine payload (duplicate tombstone)")
		}
	}
	return newDynamicView(sh)
}

// usedColdCompaction reports whether the payload set any field of the
// removed cold-compaction tier: its segments would be lossy sketches this
// build cannot tell from exact rows.
func (p *dynamicPayload) usedColdCompaction() bool {
	used := p.ColdEps != 0 || p.ColdMin != 0 || p.ColdSeed != 0
	for _, sp := range p.Segments {
		used = used || sp.Coreset || sp.Eps != 0
	}
	return used
}

// countWriter tracks bytes written for the io.WriterTo-style signatures.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
