package karl

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"time"

	"karl/internal/index"
	"karl/internal/segment"
	"karl/internal/vec"
)

// persistVersion is the one on-disk format version this build writes and
// reads. An engine file is one gob dynamicPayload: the LSM policy, the
// manifest as per-segment engine payloads — each the built flat index
// itself (leaf-ordered points and weights, the original-row mapping, the
// preorder node arrays, the flattened bounding volumes), with its sequence
// numbers and timestamps — the raw memtable rows, and the pending
// tombstones. Loading reconstructs the exact trees, so answers are bitwise
// identical across a round trip. Builds before the engines were merged
// wrote a built engine as one bare enginePayload; that stream is exactly a
// manifest of one segment, and ReadEngine loads it as such. Files of
// earlier versions are refused by version number. Version-7 files written
// by earlier builds may carry a LeafFloat32 field, which gob skips.
const persistVersion = 7

// sketchProvenance is the wire form of SketchInfo, field for field: a saved
// coreset engine records what it was reduced from and the error bound it
// carries.
type sketchProvenance struct {
	SourceLen    int
	SourceWeight float64
	Len          int
	Eps          float64
	Delta        float64
	Basis        SketchBasis
	Method       CoresetMethod
}

// enginePayload is the gob wire format of one flat index with the kernel
// and bounding method it is queried with: a segment of an engine file, the
// whole of a pre-merge static engine file, and the engine half of an SVM
// file. It carries the index layout itself (leaf-ordered points plus the
// node arrays below), so loading is a reconstruction, not a rebuild.
type enginePayload struct {
	Version int
	Dims    int
	Points  []float64 // row-major Dims-wide rows, leaf-ordered
	Weights []float64 // nil for unit weights; leaf-ordered
	Kernel  Kernel
	Kind    IndexKind
	LeafCap int
	Method  Method
	// Sketch and Shard are the engine's provenance (nil without one). In an
	// engine file the manifest's first segment carries them — the slot a
	// static stream has always had them in.
	Sketch *sketchProvenance
	Shard  *shardWire

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

// shardWire is the wire form of ShardProvenance, field for field: a saved
// shard engine records which slice of which partition it indexes.
type shardWire struct {
	Index     int
	Of        int
	Partition PartitionKind
	SourceLen int
}

// svmPayload wraps an engine payload with the SVM decision threshold.
type svmPayload struct {
	Engine enginePayload
	Rho    float64
}

// setProvenance records the engine's provenance on the payload.
func (p *enginePayload) setProvenance(sk *SketchInfo, sp *ShardProvenance) {
	if sk != nil {
		w := sketchProvenance(*sk)
		p.Sketch = &w
	}
	if sp != nil {
		w := shardWire(*sp)
		p.Shard = &w
	}
}

// provenance validates and returns the provenance the payload carries. It
// describes the set the engine was built over, which streamed inserts may
// since have outgrown, so only its own consistency is checked.
func (p enginePayload) provenance() (*SketchInfo, *ShardProvenance, error) {
	var sk *SketchInfo
	if p.Sketch != nil {
		if p.Sketch.Len < 1 || p.Sketch.SourceLen < p.Sketch.Len {
			return nil, nil, errors.New("karl: corrupt engine payload (sketch provenance)")
		}
		info := SketchInfo(*p.Sketch)
		sk = &info
	}
	var sp *ShardProvenance
	if p.Shard != nil {
		if p.Shard.Of < 1 || p.Shard.Index < 0 || p.Shard.Index >= p.Shard.Of || p.Shard.SourceLen < 1 {
			return nil, nil, errors.New("karl: corrupt engine payload (shard provenance)")
		}
		prov := ShardProvenance(*p.Shard)
		sp = &prov
	}
	return sk, sp, nil
}

// treePayload flattens one built index (plus the kernel and bounding
// method it is queried with) into the wire layout.
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

// checkVersion refuses a stream of any format version but the current one.
func checkVersion(v int) error {
	if v != persistVersion {
		return fmt.Errorf("karl: unsupported engine format version %d (this build reads version %d)", v, persistVersion)
	}
	return nil
}

// restore rebuilds an engine from a bare index payload: a manifest of one
// bulk-loaded segment under the default streaming policy.
func (p enginePayload) restore() (*Engine, error) {
	if err := checkVersion(p.Version); err != nil {
		return nil, err
	}
	cfg := defaultBuildConfig()
	cfg.kind, cfg.leafCap, cfg.method = p.Kind, p.LeafCap, p.Method
	sh, err := newShared(p.Kernel, cfg)
	if err != nil {
		return nil, err
	}
	tree, err := p.restoreTree()
	if err != nil {
		return nil, err
	}
	if sh.sketch, sh.shardProv, err = p.provenance(); err != nil {
		return nil, err
	}
	return sh.bulkLoad(tree)
}

// ReadEngine deserializes an engine written by Engine.WriteTo, or a static
// engine file of an earlier version-7 build. Every segment is reconstructed
// (no rebuilding), so answers are bitwise identical across the round trip.
func ReadEngine(r io.Reader) (*Engine, error) {
	// A gob stream opens with the descriptor of its top-level type, name
	// first: that tells the two version-7 shapes apart before decoding.
	br := bufio.NewReader(r)
	head, _ := br.Peek(64)
	dec := gob.NewDecoder(br)
	if bytes.Contains(head, []byte("enginePayload")) {
		var p enginePayload
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		return p.restore()
	}
	var p dynamicPayload
	if err := dec.Decode(&p); err != nil {
		return nil, err
	}
	return p.restore()
}

// WriteTo serializes a trained SVM (support vectors, weights, kernel, ρ).
func (s *SVM) WriteTo(w io.Writer) (int64, error) {
	tree, kern, cfg, err := s.eng.liveSet()
	if err != nil {
		return 0, err
	}
	cw := &countWriter{w: w}
	payload := svmPayload{Engine: treePayload(tree, kern, cfg.method), Rho: s.Rho}
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
// nothing writes them, and ReadEngine refuses a file that set either.
type segmentPayload struct {
	Engine  enginePayload
	ID      uint64
	Coreset bool
	Eps     float64
	Seqs    []uint64
	Times   []int64 // nil on untimed engines
	TimeRef int64
}

// segmentWire flattens one sealed segment. Segments are immutable, so the
// caller needs no lock once it holds the pointer.
func segmentWire(s *segment.Segment, kern Kernel, method Method) segmentPayload {
	return segmentPayload{
		Engine:  treePayload(s.Tree, kern, method),
		ID:      s.ID,
		Seqs:    append([]uint64(nil), s.Seqs...),
		Times:   append([]int64(nil), s.Times...),
		TimeRef: s.TimeRef,
	}
}

// dynamicPayload is the gob wire format of an Engine: the LSM policy, the
// manifest as per-segment payloads, and the raw memtable rows in insertion
// order. ColdEps, ColdMin and ColdSeed configured the removed
// cold-compaction tier: nothing writes them, and ReadEngine refuses a file
// that set any of them.
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

// WriteTo serializes the engine — manifest, memtable and policy — so a
// reload by ReadEngine resumes with the identical segment layout and therefore
// bitwise-identical answers. It waits for an in-flight seal or full
// compaction to finish, then snapshots under the lock; a concurrent
// background merge does not block the write (the pre-merge manifest is a
// consistent snapshot).
func (d *Engine) WriteTo(w io.Writer) (int64, error) {
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
		p.Segments[i] = segmentWire(s, sh.kern, method)
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
	if len(p.Segments) > 0 {
		p.Segments[0].Engine.setProvenance(sh.sketch, sh.shardProv)
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

// restore validates the payload and reconstructs its engine.
func (p dynamicPayload) restore() (*Engine, error) {
	if err := checkVersion(p.Version); err != nil {
		return nil, err
	}
	if p.usedColdCompaction() {
		return nil, errors.New("karl: engine file was written with cold compaction, which this build does not support")
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
	cfg := defaultBuildConfig()
	cfg.kind, cfg.leafCap, cfg.method = p.Kind, p.LeafCap, p.Method
	cfg.sealSize, cfg.fanout, cfg.noAutoCompact = p.SealSize, p.Fanout, !p.AutoCompact
	cfg.ttl, cfg.halfLife = time.Duration(p.TTL), time.Duration(p.HalfLife)
	sh, err := newShared(p.Kernel, cfg)
	if err != nil {
		return nil, err
	}
	sh.dims = p.Dims
	sh.nextID, sh.nextSeq = p.NextID, p.NextSeq
	sh.deletes, sh.delLogBase = p.Deletes, uint64(p.Deletes)
	sh.seals, sh.compactions = p.Seals, p.Compactions
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
	if len(p.Segments) > 0 {
		if sh.sketch, sh.shardProv, err = p.Segments[0].Engine.provenance(); err != nil {
			return nil, err
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
