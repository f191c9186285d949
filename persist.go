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

// persistVersion guards the on-disk format; bump on incompatible change.
// Version history:
//
//	1 — points, weights, kernel, index configuration.
//	2 — adds optional coreset sketch provenance (source size, total
//	    weight, ε, construction). Version-1 files still load (the
//	    provenance field is simply absent).
//	3 — sketch provenance additionally records the ε bound's basis and
//	    failure probability δ (SketchInfo.Basis / Delta). Version-2 files
//	    still load with SketchBasisUnknown and δ = 0.
//	4 — persists the built flat index itself: points and weights in leaf
//	    order, the original-row mapping, the preorder node arrays and the
//	    flattened bounding volumes. Loading reconstructs the exact tree
//	    instead of rebuilding it, so answers are bitwise identical across
//	    a round trip (a rebuilt vp-tree could not even recover its vantage
//	    points from reordered storage). Versions 1–3 still load by
//	    rebuilding from the stored points.
//	5 — adds the dynamic (segmented) engine stream: a manifest of
//	    per-segment v4-style index payloads plus the raw memtable rows and
//	    the LSM policy (DynamicEngine.WriteTo / ReadDynamic). Static
//	    single-engine files keep the exact v4 layout; versions 1–4 still
//	    load. Since the cluster layer, static payloads may additionally
//	    carry optional shard provenance (Engine.Shard) — gob leaves the
//	    field absent on old files and ignores it in old readers, so the
//	    version is unchanged.
//	6 — the dynamic stream gains mutability state: per-row sequence
//	    numbers and insert timestamps (per segment and for the memtable),
//	    pending delete tombstones, the point-id counter, and the TTL /
//	    decay configuration with each segment's decay reference instant.
//	    Static payloads are unchanged. v5 dynamic files still load with
//	    synthesized consecutive sequence numbers (their points become
//	    deletable); v1–v4 static files load as before.
//	7 — records the WithLeafFloat32 setting: static payloads (and each
//	    segment payload) carry a LeafFloat32 flag, and the dynamic stream
//	    additionally records it as build configuration for future seals.
//	    The float32 tile block itself is derived data — loading rebuilds
//	    it deterministically from the stored float64 points, so answers
//	    are identical to the saved engine's. v1–v6 files load with the
//	    flag off.
const persistVersion = 7

// oldestReadableVersion is the earliest format this build still decodes.
const oldestReadableVersion = 1

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

// enginePayload is the gob wire format for an Engine. Since version 4 it
// carries the flat index layout itself (leaf-ordered points plus the node
// arrays below), so loading is a reconstruction, not a rebuild. Files from
// versions 1–3 carry only the data and build parameters; for those the node
// fields decode as nil and the tree is rebuilt deterministically.
type enginePayload struct {
	Version int
	Dims    int
	Points  []float64 // row-major Dims-wide rows; leaf-ordered since v4
	Weights []float64 // nil for unit weights; leaf-ordered since v4
	Kernel  Kernel
	Kind    IndexKind
	LeafCap int
	Method  Method
	Sketch  *sketchProvenance // nil for full-set engines
	Shard   *shardWire        // nil for unpartitioned engines

	// LeafFloat32 (v7+) records that the engine was built with
	// WithLeafFloat32. The tile block is derived data: loading rebuilds it
	// from the float64 points, so old readers simply ignore the flag.
	LeafFloat32 bool

	// Flat index layout (v4+): storage row -> original row, the DFS-preorder
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
	method := MethodKARL
	if e.eng.Method() == methodOf(MethodSOTA) {
		method = MethodSOTA
	}
	p := treePayload(e.tree, e.kern, method)
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
// method it is queried with) into the v4 wire layout — the unit both the
// static engine format and every segment of the v5 dynamic format reuse.
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
		Version:     persistVersion,
		Dims:        tree.Dims(),
		Points:      pts,
		Weights:     w,
		Kernel:      kern,
		Kind:        kind,
		LeafCap:     tree.LeafCap,
		Method:      method,
		LeafFloat32: tree.Leaf32 != nil,
		PointID:     pointID,
		NodeStart:   nodeStart,
		NodeEnd:     nodeEnd,
		NodeRight:   nodeRight,
		NodeDepth:   nodeDepth,
		VolData:     tree.FlattenVolumes(),
	}
}

// restoreTree validates a v4+ payload and reconstructs its flat index
// exactly.
func (p enginePayload) restoreTree() (*index.Tree, error) {
	if p.Dims < 1 || len(p.Points) == 0 || len(p.Points)%p.Dims != 0 {
		return nil, errors.New("karl: corrupt engine payload")
	}
	m := &vec.Matrix{Data: p.Points, Rows: len(p.Points) / p.Dims, Cols: p.Dims}
	if p.Weights != nil && len(p.Weights) != m.Rows {
		return nil, errors.New("karl: corrupt engine payload (weights)")
	}
	tree, err := index.Reconstruct(indexKindOf(p.Kind), m, p.Weights, p.PointID,
		p.NodeStart, p.NodeEnd, p.NodeRight, p.NodeDepth, p.VolData, p.LeafCap)
	if err != nil {
		return nil, fmt.Errorf("karl: corrupt engine payload: %w", err)
	}
	if p.LeafFloat32 {
		tree.BuildLeaf32()
	}
	return tree, nil
}

// restore rebuilds an engine from a payload.
func (p enginePayload) restore() (*Engine, error) {
	if p.Version < oldestReadableVersion || p.Version > persistVersion {
		return nil, fmt.Errorf("karl: unsupported engine format version %d (this build reads versions %d through %d)",
			p.Version, oldestReadableVersion, persistVersion)
	}
	if p.Version >= 5 && len(p.Points) == 0 {
		return nil, errors.New("karl: stream has no static engine payload (a dynamic engine file? use ReadDynamic)")
	}
	var eng *Engine
	var err error
	if p.Version >= 4 {
		// v4+: reconstruct the persisted flat index exactly.
		tree, rerr := p.restoreTree()
		if rerr != nil {
			return nil, rerr
		}
		eng, err = engineFromTree(tree, p.Kernel, p.Method)
	} else {
		// v1–v3 stored only the data and build parameters: rebuild.
		if p.Dims < 1 || len(p.Points) == 0 || len(p.Points)%p.Dims != 0 {
			return nil, errors.New("karl: corrupt engine payload")
		}
		m := &vec.Matrix{Data: p.Points, Rows: len(p.Points) / p.Dims, Cols: p.Dims}
		if p.Weights != nil && len(p.Weights) != m.Rows {
			return nil, errors.New("karl: corrupt engine payload (weights)")
		}
		opts := []Option{WithIndex(p.Kind, p.LeafCap), WithMethod(p.Method)}
		if p.Weights != nil {
			opts = append(opts, WithWeights(p.Weights))
		}
		eng, err = buildMatrix(m, p.Kernel, opts...)
	}
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

// WriteTo serializes the engine (points, weights, kernel and index
// configuration) to w. The index is rebuilt deterministically on load.
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

// segmentPayload is the wire form of one manifest segment: a v4-style
// flat-index payload plus the segment's identity and coreset provenance,
// and (v6) its per-row sequence numbers and insert timestamps in
// insertion order with the decay reference instant.
type segmentPayload struct {
	Engine  enginePayload
	ID      uint64
	Coreset bool
	Eps     float64
	Seqs    []uint64 // v6+; nil for coresets and legacy loads
	Times   []int64  // v6+; nil on untimed engines
	TimeRef int64    // v6+
}

// dynamicPayload is the gob wire format for a DynamicEngine (format v5):
// the LSM policy, the manifest as per-segment v4 payloads, and the raw
// memtable rows in insertion order.
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

	// Mutability state (v6+). Tombstones are stored sorted by sequence
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

	// LeafFloat32 (v7+): the engine was configured with WithLeafFloat32,
	// so future seals build float32 tile blocks too. Each segment payload
	// carries its own flag for reconstruction.
	LeafFloat32 bool
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
	kind := publicIndexKind(sh.bcfg.Kind)
	method := MethodKARL
	if sh.method == methodOf(MethodSOTA) {
		method = MethodSOTA
	}
	p := dynamicPayload{
		Version:     persistVersion,
		Dims:        sh.dims,
		Kernel:      sh.kern,
		Kind:        kind,
		LeafCap:     sh.bcfg.LeafCap,
		Method:      method,
		SealSize:    sh.policy.SealSize,
		Fanout:      sh.policy.Fanout,
		AutoCompact: sh.autoCompact,
		ColdEps:     sh.policy.ColdEps,
		ColdMin:     sh.policy.ColdMin,
		ColdSeed:    sh.coldSeed,
		Epoch:       sh.man.Epoch,
		NextID:      sh.nextID,
		Seals:       sh.seals,
		Compactions: sh.compactions,
		TTL:         sh.ttl,
		HalfLife:    int64(sh.halfLife),
		NextSeq:     sh.nextSeq,
		Deletes:     sh.deletes,
		LeafFloat32: sh.bcfg.Leaf32,
	}
	p.Segments = make([]segmentPayload, len(sh.man.Segs))
	for i, s := range sh.man.Segs {
		p.Segments[i] = segmentPayload{
			Engine:  treePayload(s.Tree, sh.kern, method),
			ID:      s.ID,
			Coreset: s.Coreset,
			Eps:     s.Eps,
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
	if p.Version < 5 || p.Version > persistVersion {
		return nil, fmt.Errorf("karl: unsupported dynamic engine format version %d (this build reads version 5 through %d; static engine files load with ReadEngine)",
			p.Version, persistVersion)
	}
	if p.SealSize == 0 && len(p.Segments) == 0 {
		// A static v5 engine stream decodes into these fields as zeroes.
		return nil, errors.New("karl: stream has no dynamic engine payload (a static engine file? use ReadEngine)")
	}
	policy := segment.Policy{
		SealSize: p.SealSize, Fanout: p.Fanout,
		ColdEps: p.ColdEps, ColdMin: p.ColdMin,
	}
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
		if p.Version >= 6 && len(p.MemSeqs) != memN {
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
	sh := &dynShared{
		kern:        p.Kernel,
		method:      methodOf(p.Method),
		bcfg:        segment.BuildConfig{Kind: indexKindOf(p.Kind), LeafCap: p.LeafCap, Leaf32: p.LeafFloat32},
		policy:      policy,
		coldSeed:    p.ColdSeed,
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
	// v5 files predate sequence numbers: synthesize consecutive ids over
	// the stored stream (segments oldest-first, memtable last), making the
	// loaded points deletable.
	synth := uint64(0)
	for i, sp := range p.Segments {
		tree, err := sp.Engine.restoreTree()
		if err != nil {
			return nil, fmt.Errorf("karl: segment %d: %w", i, err)
		}
		if p.Dims != 0 && tree.Dims() != p.Dims {
			return nil, fmt.Errorf("karl: corrupt dynamic engine payload: segment %d has %d dims, engine has %d", i, tree.Dims(), p.Dims)
		}
		seqs, times := sp.Seqs, sp.Times
		if p.Version < 6 && !sp.Coreset {
			seqs = make([]uint64, tree.Len())
			for j := range seqs {
				synth++
				seqs[j] = synth
			}
			times = nil
		}
		if seqs != nil {
			if len(seqs) != tree.Len() {
				return nil, fmt.Errorf("karl: corrupt dynamic engine payload: segment %d has %d seqs for %d points", i, len(seqs), tree.Len())
			}
			for j := 1; j < len(seqs); j++ {
				if seqs[j] <= seqs[j-1] {
					return nil, fmt.Errorf("karl: corrupt dynamic engine payload: segment %d seqs not ascending", i)
				}
			}
		}
		if times != nil && len(times) != tree.Len() {
			return nil, fmt.Errorf("karl: corrupt dynamic engine payload: segment %d has %d times for %d points", i, len(times), tree.Len())
		}
		if times != nil && seqs == nil {
			return nil, fmt.Errorf("karl: corrupt dynamic engine payload: segment %d has times without seqs", i)
		}
		man.Segs[i] = segment.New(tree, sp.ID, sp.Coreset, sp.Eps, seqs, times, sp.TimeRef)
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
		if p.Version >= 6 {
			copy(sh.mem.seq, p.MemSeqs)
		} else {
			for j := 0; j < memN; j++ {
				synth++
				sh.mem.seq[j] = synth
			}
		}
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
	if p.Version < 6 {
		sh.nextSeq = synth + 1
	}
	if sh.nextSeq == 0 {
		sh.nextSeq = 1
	}
	// Tombstones (v6+): parallel arrays sorted by seq. Each one is handed
	// to the segment that stores its row; one whose row was absorbed into
	// a lossy coreset (no longer addressable) rides with the oldest
	// coreset segment, and one that shadows no stored row at all would
	// subtract mass the engine does not hold.
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
			if home == nil && s.Coreset && s.Seqs == nil {
				home = s
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
