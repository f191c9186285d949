// Package segment implements the LSM-style storage layer under
// karl.Engine: an ordered manifest of immutable index segments plus
// the operations that evolve it — sealing a memtable into a small segment,
// merging segments under a geometric tiering policy, and cutting an
// engine's rows into parts (a shard split, Engine.Shard).
//
// Manifests are immutable snapshots: every mutation returns a new Manifest
// with a bumped Epoch, so query executors can keep refining over an old
// snapshot while a background compaction installs a new one — no query
// ever waits on a rebuild.
//
// Two invariants matter for exactness:
//
//   - Each segment's tree was built from its points in INSERTION order
//     (the build input order; the tree's PointID maps leaf-storage rows
//     back to it). Merging reconstructs that order per segment and
//     concatenates oldest-first, so a full merge reproduces the exact
//     point sequence the user inserted — and therefore the exact tree a
//     monolithic build over that sequence would produce, making answers
//     bitwise-identical after full compaction.
//   - Segments in a manifest are ordered oldest-first and cover disjoint,
//     time-contiguous runs of the insert stream, so sequence numbers ascend
//     within every segment AND from each segment to the next. Only a
//     contiguous manifest run may ever be merged (Policy.Plan returns
//     nothing else, Merge rejects anything else): concatenating segments
//     around a skipped one would interleave their sequence ranges, and
//     Find's binary search would then miss live rows.
package segment

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"karl/internal/balltree"
	"karl/internal/index"
	"karl/internal/kdtree"
	"karl/internal/vec"
)

// BuildConfig fixes the index family every segment of an engine is built
// with, so merged segments answer bitwise like a monolithic build.
// Skeleton, when set on a kd-tree config, cuts the tree on that split plan
// instead of fresh medians (kdtree.BuildOn), so the segment joins the group
// core.Forest refines as one tree with every other segment cut on it.
type BuildConfig struct {
	Kind     index.Kind
	LeafCap  int
	Skeleton *kdtree.Skeleton
}

// Build constructs one tree with the configured builder.
func (c BuildConfig) Build(m *vec.Matrix, w []float64) (*index.Tree, error) {
	switch c.Kind {
	case index.KDTree:
		if c.Skeleton != nil {
			return kdtree.BuildOn(m, w, c.Skeleton, c.LeafCap)
		}
		return kdtree.Build(m, w, c.LeafCap)
	case index.BallTree:
		return balltree.Build(m, w, c.LeafCap)
	default:
		return nil, fmt.Errorf("segment: unknown index kind %d", int(c.Kind))
	}
}

// SkeletonOver reads a kd skeleton off a fresh median build over every row
// the segments store (tombstoned ones included: they still sit in the
// cells), at leaf capacity leafCap.
func SkeletonOver(segs []*Segment, leafCap int) (*kdtree.Skeleton, error) {
	n, dims := 0, segs[0].Tree.Dims()
	for _, s := range segs {
		n += s.Len()
	}
	m := vec.NewMatrix(n, dims)
	at := 0
	for _, s := range segs {
		at += copy(m.Data[at:], s.Tree.Points.Data[:s.Len()*dims])
	}
	t, err := kdtree.Build(m, nil, leafCap)
	if err != nil {
		return nil, err
	}
	return kdtree.SkeletonOf(t), nil
}

// Segment is one immutable sorted run: a flat index over a contiguous
// slice of the insert stream.
//
// Seqs, when non-nil, carries the global point sequence numbers of the
// segment's rows in INSERTION order (ascending — segments cover contiguous
// runs of the insert stream), which is what makes individual points
// addressable for deletion; every segment an engine serves has them.
// Times (parallel to Seqs, UnixNano) records insert timestamps for TTL
// expiry; nil on untimed engines.
// TimeRef is the instant the stored weights are scaled to under
// exponential decay (0 when decay is off): the live weight of row i at
// query time T is Weights[i]·2^(−(T−TimeRef)/halflife).
type Segment struct {
	Tree *index.Tree
	ID   uint64

	Seqs    []uint64
	Times   []int64
	TimeRef int64

	// Dead holds the tombstones of this segment's deleted rows — the one
	// mutable part of a Segment. The owning engine guards it with its own
	// lock and never touches it from the lock-free query path; nil while
	// the segment has no dead rows. See Dead.
	Dead *Dead

	// Sum caches the fingerprint of everything above Dead — what
	// replication compares to tell that two engines hold the same segment
	// under one ID. The persistence layer owns the value (1<<32 | the
	// checksum once known, 0 before) and leaves it here whenever it encodes
	// or decodes the segment.
	Sum atomic.Uint64

	// inv maps insertion-order position -> leaf-storage row (the inverse
	// of Tree.PointID), built by New when Seqs is present so Find can
	// binary-search Seqs and land on the stored row.
	inv []int32
}

// New assembles a segment from an already-built tree and its provenance.
// seqs and times are retained, not copied; callers hand over slices they
// will not mutate. It is the single construction path shared by Seal,
// Merge and the persistence loader.
func New(tree *index.Tree, id uint64, seqs []uint64, times []int64, timeRef int64) *Segment {
	s := &Segment{Tree: tree, ID: id, Seqs: seqs, Times: times, TimeRef: timeRef}
	if seqs != nil {
		s.inv = make([]int32, tree.Len())
		for storage, input := range tree.PointID {
			s.inv[input] = int32(storage)
		}
	}
	return s
}

// Len returns the number of points the segment stores.
func (s *Segment) Len() int { return s.Tree.Len() }

// Find returns the leaf-storage row holding the point with the given
// sequence number, or false when the segment does not track sequence
// numbers or does not contain it.
func (s *Segment) Find(seq uint64) (int, bool) {
	if len(s.Seqs) == 0 {
		return 0, false
	}
	lo, hi := 0, len(s.Seqs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.Seqs[mid] < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(s.Seqs) || s.Seqs[lo] != seq {
		return 0, false
	}
	return int(s.inv[lo]), true
}

// Manifest is an immutable snapshot of the segment set, ordered
// oldest-first. Epoch increases with every swap, so executors can detect
// staleness with one comparison.
type Manifest struct {
	Epoch uint64
	Segs  []*Segment
}

// Len returns the total number of stored points across all segments.
func (m *Manifest) Len() int {
	n := 0
	for _, s := range m.Segs {
		n += s.Len()
	}
	return n
}

// Trees returns a fresh slice of the segments' trees in manifest order,
// ready for core.Forest.SetTrees.
func (m *Manifest) Trees() []*index.Tree {
	trees := make([]*index.Tree, len(m.Segs))
	for i, s := range m.Segs {
		trees[i] = s.Tree
	}
	return trees
}

// WithSealed returns a new manifest with seg appended as the newest
// segment.
func (m *Manifest) WithSealed(seg *Segment) *Manifest {
	segs := make([]*Segment, 0, len(m.Segs)+1)
	segs = append(segs, m.Segs...)
	segs = append(segs, seg)
	return &Manifest{Epoch: m.Epoch + 1, Segs: segs}
}

// WithReplaced returns a new manifest where the segments whose IDs appear
// in ids are removed and merged takes the position of the oldest of them.
// Segments sealed after the compaction snapshot are untouched. A nil
// merged segment removes the inputs without a replacement — the case
// where every input row was tombstoned or expired away.
func (m *Manifest) WithReplaced(ids []uint64, merged *Segment) *Manifest {
	replace := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		replace[id] = true
	}
	segs := make([]*Segment, 0, len(m.Segs))
	placed := merged == nil
	for _, s := range m.Segs {
		if replace[s.ID] {
			if !placed {
				segs = append(segs, merged)
				placed = true
			}
			continue
		}
		segs = append(segs, s)
	}
	if !placed {
		segs = append(segs, merged)
	}
	return &Manifest{Epoch: m.Epoch + 1, Segs: segs}
}

// MemRun names the first N rows of a memtable buffer: points, parallel
// weights (nil = unit), and the optional per-row sequence numbers and
// insert timestamps that make the rows deletable and expirable.
type MemRun struct {
	M     *vec.Matrix
	W     []float64
	N     int
	Seqs  []uint64
	Times []int64
}

// Seal builds a small immutable segment from a memtable run (insertion
// order). The buffers are only read — the builders reorder through a
// permutation array and the tree keeps its own leaf-ordered copy, and the
// Seqs/Times prefixes are copied — so the caller may let concurrent
// queries scan the same rows while the seal runs, and may recycle the
// buffers once Seal returns. timeRef stamps the decay reference instant
// the run's weights are scaled to (0 when decay is off).
func Seal(mem MemRun, timeRef int64, cfg BuildConfig, id uint64) (*Segment, error) {
	n := mem.N
	if n <= 0 {
		return nil, errors.New("segment: sealing an empty memtable")
	}
	view := &vec.Matrix{Data: mem.M.Data[:n*mem.M.Cols], Rows: n, Cols: mem.M.Cols}
	var wv []float64
	if mem.W != nil {
		wv = mem.W[:n]
	}
	tree, err := cfg.Build(view, wv)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	if mem.Seqs != nil {
		seqs = append([]uint64(nil), mem.Seqs[:n]...)
	}
	var times []int64
	if mem.Times != nil {
		times = append([]int64(nil), mem.Times[:n]...)
	}
	return New(tree, id, seqs, times, timeRef), nil
}

// MergeOpts carries the mutations a merge applies while rewriting its
// inputs — the only place dead points are physically removed.
type MergeOpts struct {
	// Drop removes points whose sequence numbers appear here (tombstone
	// consumption). Rows of segments without Seqs cannot be dropped.
	Drop map[uint64]bool
	// ExpireBefore removes rows whose insert time is before this instant
	// (TTL expiry); 0 disables. Rows without timestamps never expire.
	ExpireBefore int64
	// HalfLife (nanoseconds) and NewRef rescale every surviving weight
	// from its input's decay reference to NewRef:
	// w' = w·2^(−(NewRef−ref)/HalfLife). HalfLife 0 disables and the
	// output keeps TimeRef 0.
	HalfLife float64
	NewRef   int64
}

// scaleTo returns the decay factor rebasing a weight from ref to NewRef.
func (o MergeOpts) scaleTo(ref int64) float64 {
	if o.HalfLife <= 0 {
		return 1
	}
	return math.Exp2(-float64(o.NewRef-ref) / o.HalfLife)
}

// keep reports whether the row with the given identity survives the merge.
func (o MergeOpts) keep(seq uint64, hasSeq bool, t int64, hasTime bool) bool {
	if hasSeq && o.Drop[seq] {
		return false
	}
	if o.ExpireBefore != 0 && hasTime && t < o.ExpireBefore {
		return false
	}
	return true
}

// Gathered is the flat row image a merge or a cut collects before
// building: every surviving input row restored to insertion order
// (segments oldest-first, then the memtable run), weights rescaled onto
// the shared decay reference, plus the provenance the output segments
// inherit.
type Gathered struct {
	m     *vec.Matrix
	w     []float64 // nil when every input was unweighted and no decay ran
	seqs  []uint64  // nil when any input lost sequence tracking
	times []int64
	rows  int
	ref   int64 // the output decay reference (0 when decay is off)
}

// Len returns the number of gathered rows.
func (g *Gathered) Len() int { return g.rows }

// Row returns gathered row r in insertion order; the slice aliases the
// image.
func (g *Gathered) Row(r int) []float64 { return g.m.Row(r) }

// Gather restores and filters the inputs of a merge or a cut into one
// flat insertion-ordered row image. The inputs are only read. A result
// with Len 0 means every input row was tombstoned or expired.
func Gather(segs []*Segment, mem MemRun, opts MergeOpts) (*Gathered, error) {
	total := mem.N
	for _, s := range segs {
		total += s.Len()
	}
	if total == 0 {
		return nil, errors.New("segment: merging zero points")
	}
	dims := 0
	if len(segs) > 0 {
		dims = segs[0].Tree.Dims()
	} else {
		dims = mem.M.Cols
	}
	tracked := mem.N == 0 || mem.Seqs != nil
	timed := mem.N == 0 || mem.Times != nil
	hasWeights := mem.N > 0 && mem.W != nil
	for _, s := range segs {
		if s.Seqs == nil {
			tracked = false
		}
		if s.Times == nil {
			timed = false
		}
		if s.Tree.Weights != nil {
			hasWeights = true
		}
	}
	if opts.HalfLife > 0 {
		// Rescaled weights are no longer unit even for Type I inputs.
		hasWeights = true
	}
	m := vec.NewMatrix(total, dims)
	w := make([]float64, total)
	var seqs []uint64
	if tracked {
		seqs = make([]uint64, total)
	}
	var times []int64
	if tracked && timed {
		times = make([]int64, total)
	}
	row := 0
	for _, s := range segs {
		row = mergeAppend(s, opts, m, w, seqs, times, row)
	}
	memScaleTimed := opts.HalfLife > 0 && mem.Times != nil
	for i := 0; i < mem.N; i++ {
		var seq uint64
		if mem.Seqs != nil {
			seq = mem.Seqs[i]
		}
		var ts int64
		if mem.Times != nil {
			ts = mem.Times[i]
		}
		if !opts.keep(seq, mem.Seqs != nil, ts, mem.Times != nil) {
			continue
		}
		copy(m.Row(row), mem.M.Row(i))
		wv := 1.0
		if mem.W != nil {
			wv = mem.W[i]
		}
		if memScaleTimed {
			// Memtable weights are raw (as inserted); each row decays from
			// its own insert instant.
			wv *= opts.scaleTo(ts)
		}
		w[row] = wv
		if seqs != nil {
			seqs[row] = seq
		}
		if times != nil {
			times[row] = ts
		}
		row++
	}
	g := &Gathered{rows: row}
	if opts.HalfLife > 0 {
		g.ref = opts.NewRef
	}
	if row == 0 {
		return g, nil
	}
	g.m = &vec.Matrix{Data: m.Data[:row*dims], Rows: row, Cols: dims}
	// Drop the materialized unit weights when every input was unweighted,
	// so a full merge reproduces a monolithic unit-weight build exactly.
	if hasWeights {
		g.w = w[:row]
	}
	if seqs != nil {
		g.seqs = seqs[:row]
		for i := 1; i < row; i++ {
			if seqs[i] <= seqs[i-1] {
				return nil, fmt.Errorf("segment: merge inputs are not a contiguous oldest-first run (seq %d follows %d)", seqs[i], seqs[i-1])
			}
		}
	}
	if times != nil {
		g.times = times[:row]
	}
	return g, nil
}

// build indexes the gathered rows selected by sel (nil = all) as one
// segment with the given id, preserving their relative order.
func (g *Gathered) build(sel []int, cfg BuildConfig, id uint64) (*Segment, error) {
	m, w, seqs, times := g.m, g.w, g.seqs, g.times
	if sel != nil {
		m = vec.NewMatrix(len(sel), g.m.Cols)
		if g.w != nil {
			w = make([]float64, len(sel))
		}
		if g.seqs != nil {
			seqs = make([]uint64, len(sel))
		}
		if g.times != nil {
			times = make([]int64, len(sel))
		}
		for i, r := range sel {
			copy(m.Row(i), g.m.Row(r))
			if w != nil {
				w[i] = g.w[r]
			}
			if seqs != nil {
				seqs[i] = g.seqs[r]
			}
			if times != nil {
				times[i] = g.times[r]
			}
		}
	}
	tree, err := cfg.Build(m, w)
	if err != nil {
		return nil, err
	}
	return New(tree, id, seqs, times, g.ref), nil
}

// Merge concatenates the segments' points oldest-first, each restored to
// its insertion order, drops the rows opts tombstones or expires, and
// builds one segment over the survivors. mem optionally appends a trailing
// memtable run (the full-compaction path); pass a zero MemRun for pure
// segment merges. The merged segment tracks sequence numbers iff every
// input did. A merge whose every row is dropped returns (nil, nil): the
// inputs simply disappear.
func Merge(segs []*Segment, mem MemRun, opts MergeOpts, cfg BuildConfig, id uint64) (*Segment, error) {
	g, err := Gather(segs, mem, opts)
	if err != nil {
		return nil, err
	}
	if g.rows == 0 {
		return nil, nil // every row tombstoned or expired
	}
	return g.build(nil, cfg, id)
}

// Cut builds the gathered rows as len(ids) segments — the primitive
// behind both ways an engine is cut into parts, a shard split and
// Engine.Shard. route sends every row, by its coordinates, to a part in
// [0, len(ids)); part i is built with id ids[i], and comes back nil when
// route sent nothing its way. Relative insertion order is preserved within
// each part, so every part is a valid sealed segment whose sequence
// numbers keep resolving.
func (g *Gathered) Cut(route func(p []float64) int, cfg BuildConfig, ids ...uint64) ([]*Segment, error) {
	sels := make([][]int, len(ids))
	for r := 0; r < g.rows; r++ {
		i := route(g.m.Row(r))
		sels[i] = append(sels[i], r)
	}
	parts := make([]*Segment, len(ids))
	for i, sel := range sels {
		if len(sel) == 0 {
			continue
		}
		var err error
		if parts[i], err = g.build(sel, cfg, ids[i]); err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// mergeAppend restores one segment to insertion order, filters it through
// opts, rescales its weights to the merge's decay reference, and appends
// the survivors at dst row `row`, returning the next free row.
func mergeAppend(s *Segment, opts MergeOpts, dst *vec.Matrix, dw []float64, dseqs []uint64, dtimes []int64, row int) int {
	t := s.Tree
	n := t.Len()
	scale := opts.scaleTo(s.TimeRef)
	// pos[input] is the output slot of each surviving insertion-order
	// position, so the leaf-order scatter below lands rows directly.
	pos := make([]int32, n)
	kept := 0
	for input := 0; input < n; input++ {
		var seq uint64
		if s.Seqs != nil {
			seq = s.Seqs[input]
		}
		var ts int64
		if s.Times != nil {
			ts = s.Times[input]
		}
		if opts.keep(seq, s.Seqs != nil, ts, s.Times != nil) {
			pos[input] = int32(kept)
			kept++
		} else {
			pos[input] = -1
		}
	}
	for storage := 0; storage < n; storage++ {
		input := int(t.PointID[storage])
		p := pos[input]
		if p < 0 {
			continue
		}
		r := row + int(p)
		copy(dst.Row(r), t.Points.Row(storage))
		wv := 1.0
		if t.Weights != nil {
			wv = t.Weights[storage]
		}
		dw[r] = wv * scale
		if dseqs != nil {
			dseqs[r] = s.Seqs[input]
		}
		if dtimes != nil {
			dtimes[r] = s.Times[input]
		}
	}
	return row + kept
}

// Policy is the geometric tiering compaction policy. Segments are binned
// into tiers by size — tier t holds segments with
// SealSize·Fanout^t ≤ Len < SealSize·Fanout^(t+1) — and whenever Fanout
// neighbouring segments of one level accumulate, the oldest Fanout of them
// merge into one segment of the next tier. Write amplification is
// O(Fanout·log_Fanout N) per point overall, and no merge is ever larger
// than geometric growth requires, so the engine never performs the old
// stop-the-world O(N) rebuild on the insert path.
//
// Deletes reuse the same Fanout as a dead-share threshold: a segment whose
// dead rows reach Len/Fanout is rewritten alone, as is one whose dead rows
// reads have paid the rewrite's cost for (RewriteDue), and a segment with
// no live row left is dropped without a rebuild (see Plan).
type Policy struct {
	// SealSize is the memtable row count that triggers a seal (tier 0
	// segment size).
	SealSize int
	// Fanout is the per-level segment budget, the size ratio between
	// consecutive tiers, and the inverse of the dead share that triggers a
	// rewrite.
	Fanout int
}

// DefaultPolicy returns the tiering defaults: seal at 512 rows, merge
// every 4 same-tier segments.
func DefaultPolicy() Policy { return Policy{SealSize: 512, Fanout: 4} }

// Validate checks the policy parameters.
func (p Policy) Validate() error {
	if p.SealSize < 1 {
		return fmt.Errorf("segment: seal size %d out of range", p.SealSize)
	}
	if p.Fanout < 2 {
		return fmt.Errorf("segment: compaction fanout %d out of range (need >= 2)", p.Fanout)
	}
	return nil
}

// Tier returns the size tier of a segment with n points.
func (p Policy) Tier(n int) int {
	t := 0
	bound := p.SealSize * p.Fanout
	for n >= bound {
		t++
		// Guard against overflow on absurd sizes.
		if bound > (1<<62)/p.Fanout {
			break
		}
		bound *= p.Fanout
	}
	return t
}

// AllDead reports whether every row of the segment has been deleted, so
// the segment can leave the manifest without a rebuild. A segment without
// sequence numbers never qualifies: it cannot hold tombstones.
func (s *Segment) AllDead() bool { return s.Seqs != nil && s.Dead.Len() >= s.Len() }

// RowRewriteEvals is the price of rewriting one row, counted in the
// dead-row kernel evaluations a read pays instead: a rewrite over Len rows
// costs what RowRewriteEvals·Len such evaluations do. A rewrite is paid
// for more than once: the engine merges the segment, and a replicated
// engine then writes it to its follower, which loads it. So the price is
// the sum of three per-layer figures of the benchmark harness's traced
// cluster-rw run (d = 8, one follower per leader, 2-vCPU guest) over a
// fourth: segment.merge_us_per_point + karl.persist_write_us_per_point +
// karl.persist_load_us_per_point = 0.56 + 0.16 + 0.19 µs, ÷
// kernel.ns_per_point 25.1 ns ≈ 36. The merge alone (≈ 22, and ≈ 25 on
// stream-churn, which has no follower) undercharges a replicated rewrite
// by the copy every follower makes, and buys rewrites a third more often.
const RowRewriteEvals = 36

// RewriteDue reports whether the segment's dead rows are due a rewrite,
// by either of two rules. Write side: the dead rows have reached a
// 1/Fanout share of it, the point at which rewriting it alone costs at
// most Fanout−1 row writes per row reclaimed, the amplification a tier
// merge pays per point. Read side (rent or buy): the dead-row evaluations
// reads have paid since its first tombstone (Dead.Debt) have reached the
// rewrite's own cost, RowRewriteEvals·Len — the ski-rental rule, under
// which reads never pay more than twice what the best offline schedule
// would. A segment without sequence numbers is never due: its rows
// cannot be dropped.
func (p Policy) RewriteDue(s *Segment) bool {
	dead := s.Dead.Len()
	return dead > 0 && s.Seqs != nil && (dead*p.Fanout >= s.Len() || s.Dead.Debt >= s.rent())
}

// rent is the debt at which reads have paid for rewriting the segment.
func (s *Segment) rent() int64 { return RowRewriteEvals * int64(s.Len()) }

// PayRent charges the segment's tombstones n more dead-row evaluations and
// reports whether that charge took their debt to the rewrite's cost — the
// one read that should ask for the rewrite. The segment must hold dead rows.
func (s *Segment) PayRent(n int64) bool {
	before := s.Dead.Debt
	s.Dead.Debt += n
	return before < s.rent() && s.Dead.Debt >= s.rent()
}

// Plan returns the IDs of the segments the next compaction should rebuild
// into one — always a contiguous manifest run, oldest first — or nil when
// the manifest is within policy.
//
// Tiered merges come first. Rewrites shrink segments out of their tier, so
// tiers no longer descend monotonically along the manifest; the manifest
// is therefore cut into LEVELS the way Lucene's log merge policy does it:
// a level starts at the oldest unassigned segment and extends to the
// newest segment of the highest remaining tier, swallowing any smaller
// (shrunken) segments in between. A level holding at least Fanout segments
// merges its oldest Fanout; the lowest such level wins (cheapest first).
// Shrunken segments thus keep counting against their neighbours' budget
// and are re-absorbed by the next merge of that level instead of being
// stranded, and the segment count stays below Fanout per level. Without
// deletes a level is exactly a run of one tier — the classic policy.
//
// Failing that, the segment with the most dead rows among those due a
// rewrite (RewriteDue) is rewritten alone (a one-ID plan).
func (p Policy) Plan(m *Manifest) []uint64 {
	segs := m.Segs
	lo := -1 // start of the lowest level due a merge
	for start := 0; start < len(segs); {
		level, end := -1, start
		for i := start; i < len(segs); i++ {
			if t := p.Tier(segs[i].Len()); t >= level {
				level, end = t, i+1
			}
		}
		if end-start >= p.Fanout {
			lo = start // levels descend, so the last one found is the lowest
		}
		start = end
	}
	if lo >= 0 {
		ids := make([]uint64, p.Fanout)
		for i := range ids {
			ids[i] = segs[lo+i].ID
		}
		return ids
	}
	var worst *Segment
	for _, s := range segs {
		if p.RewriteDue(s) && (worst == nil || s.Dead.Len() > worst.Dead.Len()) {
			worst = s
		}
	}
	if worst != nil {
		return []uint64{worst.ID}
	}
	return nil
}

// Select returns the manifest's segments with the given IDs, in manifest
// (oldest-first) order.
func (m *Manifest) Select(ids []uint64) []*Segment {
	want := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	out := make([]*Segment, 0, len(ids))
	for _, s := range m.Segs {
		if want[s.ID] {
			out = append(out, s)
		}
	}
	return out
}
