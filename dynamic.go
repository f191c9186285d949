package karl

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"karl/internal/bound"
	"karl/internal/core"
	"karl/internal/index"
	"karl/internal/kdtree"
	"karl/internal/kernel"
	"karl/internal/segment"
	"karl/internal/vec"
)

// Engine answers kernel aggregation queries over a point set that may
// keep changing — bulk-loaded by Build, streamed in by Insert, or both —
// without ever blocking a query on an index rebuild. It is organized like a
// small LSM tree:
//
//   - Build installs its matrix as one sealed SEGMENT (an immutable flat
//     index); an engine from NewDynamic starts with none.
//   - Inserts land in a fixed-capacity MEMTABLE that queries scan exactly.
//   - When the memtable fills it is SEALED: a small immutable flat-index
//     segment is built off the query path and appended to the MANIFEST,
//     and the memtable's backing storage is recycled (no allocation in
//     steady state).
//   - A geometric tiering policy merges segments in a BACKGROUND
//     goroutine; the merged segment replaces its inputs with one atomic
//     manifest swap, so queries keep refining over the old snapshot until
//     the swap lands.
//
// Queries refine over every segment through one shared global priority
// queue (core.Forest), with the memtable folded in as an exact base term
// on both global bounds — so Threshold and Approximate guarantees hold
// relative to the true total over ALL current points, including the
// mixed-sign case where memtable and indexed parts nearly cancel. An engine
// holding exactly one segment and nothing else — every built or compacted
// engine — takes the forest's single-segment loop, the plain best-first
// refinement of the paper.
//
// An Engine value is not safe for concurrent QUERIES — it owns per-query
// scratch. Clone once per goroutine: clones share the dataset (inserts
// through any clone are visible to all) but own their query state. Insert,
// Delete, Compact and Close may be called from any goroutine concurrently
// with queries on other clones.
type Engine struct {
	sh *dynShared

	// f refines over the manifest snapshot fMan (nil until armed; manifests
	// are never edited in place, and a replica re-pointed at another leader
	// can meet the same epoch over other segments, so it is the pointer that
	// is compared). Query-only state, per clone. fCfgGen is the sh.cfgGen the
	// forest was built against: a snapshot install can replace the kernel
	// configuration under live views, and a forest carrying the old kernel
	// would silently mix kernels within one answer — walk rebuilds it when
	// the generations diverge.
	f       *core.Forest
	fMan    *segment.Manifest
	fCfgGen uint64

	// scales is this clone's per-query decay-scale scratch, refilled by
	// walk for the query instant and retained by the forest; unused
	// (nil) when decay is off.
	scales []float64

	// rows scans the rows the base term evaluates exactly (buffered and
	// dead ones) with the leaves' evaluator, for the kernel of generation
	// fCfgGen. decayW is its per-clone scratch for decayed weights, dead the
	// matrix view it reads a tombstone set through.
	rows   kernel.RowsFunc
	decayW []float64
	dead   vec.Matrix
}

// memtable is one reusable insert buffer: a fixed-capacity matrix plus
// parallel squared row norms, weights, sequence numbers and (on timed
// engines) insert timestamps, filled to n rows in insertion order. seq is
// ascending, so lookup by id is a binary search.
type memtable struct {
	m     *vec.Matrix
	norms []float64
	w     []float64
	seq   []uint64
	t     []int64 // nil on untimed engines (no TTL, no decay)
	n     int
}

func newMemtable(rows, dims int, timed bool) *memtable {
	mt := &memtable{m: vec.NewMatrix(rows, dims), norms: make([]float64, rows), w: make([]float64, rows), seq: make([]uint64, rows)}
	if timed {
		mt.t = make([]int64, rows)
	}
	return mt
}

// find returns the row holding the point with the given sequence number.
func (b *memtable) find(id uint64) (int, bool) {
	if b == nil || b.n == 0 {
		return 0, false
	}
	lo, hi := 0, b.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.seq[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= b.n || b.seq[lo] != id {
		return 0, false
	}
	return lo, true
}

// removeAt deletes row i, shifting the tail down to preserve insertion
// order (and therefore the ascending seq invariant). Only legal on the
// active memtable — the sealing buffer is scanned concurrently without
// the lock and must never be mutated.
func (b *memtable) removeAt(i int) {
	tail := b.n - i - 1
	if tail > 0 {
		d := b.m.Cols
		copy(b.m.Data[i*d:(i+tail)*d], b.m.Data[(i+1)*d:(i+1+tail)*d])
		copy(b.norms[i:i+tail], b.norms[i+1:b.n])
		copy(b.w[i:i+tail], b.w[i+1:b.n])
		copy(b.seq[i:i+tail], b.seq[i+1:b.n])
		if b.t != nil {
			copy(b.t[i:i+tail], b.t[i+1:b.n])
		}
	}
	b.n--
}

// run names the buffer's filled prefix for the segment layer.
func (b *memtable) run() segment.MemRun {
	if b == nil {
		return segment.MemRun{}
	}
	return segment.MemRun{M: b.m, W: b.w, N: b.n, Seqs: b.seq, Times: b.t}
}

// dynConfig is what an engine is configured with — the part of its state a
// split hands to the sibling it creates and a replica adopts wholesale from
// its leader's snapshot.
type dynConfig struct {
	kern        Kernel
	method      bound.Method
	bcfg        segment.BuildConfig
	policy      segment.Policy
	autoCompact bool

	// ttl > 0 expires points that many nanoseconds after insertion
	// (enforced lazily at seal/compaction); halfLife > 0 decays every
	// weight by half per that many nanoseconds. Either makes the engine
	// "timed": memtables then stamp per-row insert times from now().
	ttl      int64
	halfLife float64
}

// dynShared is the mutable dataset state shared by every clone of one
// engine. All fields are guarded by mu; cond broadcasts every
// state transition (seal finished, compaction finished, drain finished).
type dynShared struct {
	mu   sync.Mutex
	cond *sync.Cond

	dynConfig

	// dualCtr is the batch-executor telemetry shared by every clone; its
	// fields are atomic, so it is updated without mu.
	dualCtr dualCounters

	// sketch and shardProv record how the bulk-loaded set was made — a
	// coreset of a larger set (BuildCoreset / Sketch), one shard of a
	// partition (Shard) — and are nil otherwise. Set before the engine is
	// shared, read-only afterwards.
	sketch    *SketchInfo
	shardProv *ShardProvenance

	// now is the clock a timed engine stamps per-row insert times from.
	now func() int64

	dims int // fixed by the first insert (or a load); 0 = undetermined

	man *segment.Manifest

	// skel is the kd split plan seals and rebuilds are cut on, so the
	// segments refine as one tree (core.Forest). nil until a kd build needs
	// it and after the manifest is replaced whole (Compact, Split, a
	// snapshot install, a load): skeletonLocked then reads it off the
	// largest segment.
	skel *kdtree.Skeleton

	// set is setMan's segment set under kernel configuration setGen, the
	// one every clone's forest refines over (segmentSet).
	set    *core.SegmentSet
	setMan *segment.Manifest
	setGen uint64

	// nextSeq numbers every inserted point (ids start at 1). A deleted
	// but not yet compacted point is a tombstone, held by the segment that
	// stores its row (segment.Segment.Dead, guarded by mu): memtable
	// deletes are physical, and a delete that hits the sealing buffer
	// parks its tombstone in sealDead until the seal installs and the new
	// segment adopts the set. Every rebuild hands the tombstones it did
	// not consume on to its output, so attribution never needs a search
	// and each segment's dead count is len(Dead.Seqs).
	nextSeq  uint64
	sealDead *segment.Dead
	deletes  int

	// mem receives inserts; sealing is non-nil while its rows are being
	// built into a segment (queries still scan it); spare is the recycled
	// buffer the next seal swap installs. The three rotate forever, so
	// steady-state Insert allocates nothing.
	mem     *memtable
	sealing *memtable
	spare   *memtable

	// draining blocks inserts and new compactions while a full Compact()
	// merge is in flight (queries proceed on the old snapshot).
	draining   bool
	compacting bool
	closed     bool

	// mirror is set by InstallSnapshot and cleared by the engine's own next
	// insert or delete: a follower's manifest is its leader's, so it starts
	// no rebuild of its own, and its reads charge no segment rent (it could
	// not buy the rewrite) until it writes. Its server refuses writes until
	// promotion, so that first write is the promotion taking effect.
	mirror bool

	// compactions counts completed rebuilds (tiered merges, dead-share
	// rewrites, Compact and Split); deadRewrites is the dead-share subset
	// and deadDrops the fully dead segments removed without a rebuild.
	nextID       uint64
	seals        int
	compactions  int
	deadRewrites int
	deadDrops    int
	compactErr   error

	// cfgGen counts replacements of the configuration after construction —
	// today only a replica snapshot install that adopts a leader configured
	// differently. Views compare it against their forest's generation and
	// rebuild before answering.
	cfgGen uint64
}

// ErrPointNotFound is returned by Delete when no live point has the given
// id: it was never assigned, already deleted, or expired away.
var ErrPointNotFound = errors.New("karl: point not found")

// timed reports whether rows carry insert timestamps.
func (c *dynConfig) timed() bool { return c.ttl > 0 || c.halfLife > 0 }

// decayAt returns the factor rebasing a weight scaled to ref onto query
// instant now: 2^(−(now−ref)/halfLife), or 1 when decay is off.
func (sh *dynShared) decayAt(now, ref int64) float64 {
	if sh.halfLife <= 0 {
		return 1
	}
	return math.Exp2(-float64(now-ref) / sh.halfLife)
}

// NewDynamic creates an empty engine for streamed points. Index options
// (WithIndex, WithMethod) fix how segments are built; WithSealSize and
// WithCompactionFanout shape the LSM tiering; WithWeights is rejected —
// weights arrive with Insert.
func NewDynamic(kern Kernel, opts ...Option) (*Engine, error) {
	cfg := defaultBuildConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.weights != nil {
		return nil, errors.New("karl: pass weights through Insert, not WithWeights")
	}
	sh, err := newShared(kern, cfg)
	if err != nil {
		return nil, err
	}
	return newDynamicView(sh)
}

// newShared validates a resolved configuration and returns the empty
// dataset state every constructor starts from.
func newShared(kern Kernel, cfg buildConfig) (*dynShared, error) {
	sh := blankShared()
	sh.kern, sh.bcfg.LeafCap, sh.policy = kern, cfg.leafCap, segment.DefaultPolicy()
	if cfg.sealSize != 0 {
		sh.policy.SealSize = cfg.sealSize
	}
	if cfg.fanout != 0 {
		sh.policy.Fanout = cfg.fanout
	}
	sh.autoCompact, sh.ttl, sh.halfLife = !cfg.noAutoCompact, int64(cfg.ttl), float64(cfg.halfLife)
	if cfg.clock != nil {
		sh.now = cfg.clock
	}
	var err error
	if sh.method, err = methodOf(cfg.method); err != nil {
		return nil, err
	}
	if sh.bcfg.Kind, err = indexKindOf(cfg.kind); err != nil {
		return nil, err
	}
	if err := sh.validate(); err != nil {
		return nil, err
	}
	return sh, nil
}

// blankShared returns dataset state with no configuration yet: what
// newShared fills from options and ReadEngine from an engine block.
func blankShared() *dynShared {
	sh := &dynShared{
		now:     func() int64 { return time.Now().UnixNano() },
		man:     &segment.Manifest{},
		nextID:  1,
		nextSeq: 1,
	}
	sh.cond = sync.NewCond(&sh.mu)
	return sh
}

// validate checks a resolved configuration.
func (c *dynConfig) validate() error {
	if err := c.kern.Validate(); err != nil {
		return err
	}
	if c.bcfg.LeafCap < 1 {
		return fmt.Errorf("karl: leaf capacity %d out of range", c.bcfg.LeafCap)
	}
	if err := c.policy.Validate(); err != nil {
		return err
	}
	if c.ttl < 0 {
		return fmt.Errorf("karl: ttl must be non-negative, got %v", time.Duration(c.ttl))
	}
	if c.halfLife < 0 {
		return fmt.Errorf("karl: decay half-life must be non-negative, got %v", time.Duration(c.halfLife))
	}
	return nil
}

// bulkLoad installs an already-built tree as an empty engine's first
// sealed segment — never through the memtable→seal→compact route — and
// returns the engine. The rows get the ids 1..n in input order; on a timed
// engine they are stamped with the load instant, which is also the
// segment's decay reference.
func (sh *dynShared) bulkLoad(tree *index.Tree) (*Engine, error) {
	n := tree.Len()
	seqs := make([]uint64, n)
	for i := range seqs {
		seqs[i] = uint64(i + 1)
	}
	var times []int64
	var ref int64
	if sh.timed() {
		nowT := sh.now()
		times = make([]int64, n)
		for i := range times {
			times[i] = nowT
		}
		if sh.halfLife > 0 {
			ref = nowT
		}
	}
	sh.man = &segment.Manifest{Epoch: 1, Segs: []*segment.Segment{segment.New(tree, sh.nextID, seqs, times, ref)}}
	sh.dims, sh.nextID, sh.nextSeq = tree.Dims(), sh.nextID+1, uint64(n)+1
	return newDynamicView(sh)
}

// newDynamicView wraps shared state in a queryable engine view. The
// configuration is read under the lock: a clone can be created while a
// replica snapshot install replaces the kernel, and the generation
// recorded here is what lets snapshot() detect a forest built against
// the superseded config.
func newDynamicView(sh *dynShared) (*Engine, error) {
	sh.mu.Lock()
	params := kernel.Params(sh.kern)
	method := sh.method
	gen := sh.cfgGen
	sh.mu.Unlock()
	f, err := core.NewForest(params, method)
	if err != nil {
		return nil, err
	}
	return &Engine{sh: sh, f: f, fCfgGen: gen, rows: params.RowsEvaluator()}, nil
}

// Clone returns a view of the same mutable dataset with independent query
// scratch, for use from another goroutine. Inserts through any clone are
// visible to all clones.
func (d *Engine) Clone() *Engine {
	c, _ := newDynamicView(d.sh) // kernel already validated
	return c
}

// Len returns the number of points currently represented: all segments
// plus buffered inserts, minus pending tombstones (each tombstone cancels
// exactly one stored row). TTL-expired points still count until a seal or
// compaction physically drops them.
func (d *Engine) Len() int {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.man.Len() + sh.mem.len() + sh.sealing.len() - sh.tombstonesLocked()
}

// tombstonesLocked counts the pending tombstones: every segment's dead
// rows plus those parked on the sealing buffer.
func (sh *dynShared) tombstonesLocked() int {
	n := sh.sealDead.Len()
	for _, s := range sh.man.Segs {
		n += s.Dead.Len()
	}
	return n
}

// eachDeadLocked visits every non-empty tombstone set with the segment
// holding it in the one order all consumers share — the manifest's
// segments oldest first, then the sealing buffer's set (with a nil
// segment) — so sums over tombstones are bitwise repeatable.
func (sh *dynShared) eachDeadLocked(man *segment.Manifest, visit func(s *segment.Segment, d *segment.Dead)) {
	for _, s := range man.Segs {
		if s.Dead.Len() > 0 {
			visit(s, s.Dead)
		}
	}
	if sh.sealDead.Len() > 0 {
		visit(nil, sh.sealDead)
	}
}

// Dims returns the dataset dimensionality (0 before the first insert).
func (d *Engine) Dims() int {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.dims
}

// Kernel returns the engine's kernel.
func (d *Engine) Kernel() Kernel { return d.sh.kern }

// WeightMass returns the dataset's positive and negative weight mass
// (pos = Σ w_i over w_i ≥ 0, neg = Σ |w_i| over w_i < 0) across every
// segment plus the buffered inserts, net of pending tombstones. The total
// W = pos + neg is the normalization mass the coreset guarantees and the
// cluster layer's ε-budget allocation are stated against.
func (d *Engine) WeightMass() (pos, neg float64) {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var nowT int64
	if sh.timed() {
		nowT = sh.now()
	}
	decayed := sh.halfLife > 0
	for _, s := range sh.man.Segs {
		r := s.Tree.Root()
		scale := 1.0
		if decayed {
			scale = sh.decayAt(nowT, s.TimeRef)
		}
		pos += r.Pos().W * scale
		neg += r.Neg().W * scale
	}
	for _, mt := range []*memtable{sh.mem, sh.sealing} {
		if mt == nil {
			continue
		}
		for i := 0; i < mt.n; i++ {
			w := mt.w[i]
			if decayed {
				w *= sh.decayAt(nowT, mt.t[i])
			}
			if w >= 0 {
				pos += w
			} else {
				neg -= w
			}
		}
	}
	// Tombstones cancel mass they still shadow inside segments.
	sh.eachDeadLocked(sh.man, func(_ *segment.Segment, d *segment.Dead) {
		for i, w := range d.W {
			if decayed {
				w *= sh.decayAt(nowT, d.Ref[i])
			}
			if w >= 0 {
				pos -= w
			} else {
				neg += w
			}
		}
	})
	return pos, neg
}

func (b *memtable) len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// Epoch returns the current manifest epoch; it increases with every seal
// and compaction, so two equal epochs imply an identical segment set.
func (d *Engine) Epoch() uint64 {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.man.Epoch
}

// MemtableLen returns the number of buffered (not yet sealed) points.
func (d *Engine) MemtableLen() int {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.mem.len() + sh.sealing.len()
}

// Seals reports how many memtable seals have happened.
func (d *Engine) Seals() int {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.seals
}

// Compactions reports how many segment rebuilds have completed:
// background tiered merges and dead-share rewrites plus explicit Compact
// calls. DeadRewrites counts the dead-share subset.
func (d *Engine) Compactions() int {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.compactions
}

// DeadRewrites reports how many background compactions rewrote a single
// segment because its dead rows were due a rewrite: they reached a
// 1/Fanout share of it, or reads had paid the rewrite's cost evaluating
// them (segment.Policy.RewriteDue).
func (d *Engine) DeadRewrites() int {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.deadRewrites
}

// DeadDrops reports how many segments left the manifest without a rebuild
// because every one of their rows had been deleted.
func (d *Engine) DeadDrops() int {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.deadDrops
}

// Tombstones reports how many deletes are pending physical removal —
// points whose mass every query currently subtracts exactly, awaiting a
// compaction over their segment.
func (d *Engine) Tombstones() int {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tombstonesLocked()
}

// Deletes reports how many points have been deleted over the engine's
// lifetime (memtable removals and tombstones alike).
func (d *Engine) Deletes() int {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.deletes
}

// TTL returns the configured point lifetime (0 = points never expire).
func (d *Engine) TTL() time.Duration { return time.Duration(d.sh.ttl) }

// DecayHalfLife returns the configured weight-decay half-life (0 = no
// decay).
func (d *Engine) DecayHalfLife() time.Duration { return time.Duration(d.sh.halfLife) }

// SegmentInfo describes one immutable segment of the current manifest.
type SegmentInfo struct {
	// ID is the segment's stable identity (assigned at seal/merge time).
	ID uint64
	// Len is the number of points the segment stores, Dead how many of
	// them are deleted and awaiting physical removal.
	Len  int
	Dead int
}

// Segments returns a snapshot of the current manifest, oldest segment
// first.
func (d *Engine) Segments() []SegmentInfo {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]SegmentInfo, len(sh.man.Segs))
	for i, s := range sh.man.Segs {
		out[i] = SegmentInfo{ID: s.ID, Len: s.Len(), Dead: s.Dead.Len()}
	}
	return out
}

// DeadEvals reports, by segment ID, the kernel evaluations reads have paid
// on each current segment's dead rows since its first tombstone — the debt
// that gets the segment rewritten once it reaches the rewrite's own cost
// (segment.RowRewriteEvals per stored row). Segments without tombstones are
// absent. The figure belongs to this process: a reload or a replica starts
// from what it pays itself, which is why Segments leaves it out.
func (d *Engine) DeadEvals() map[uint64]int64 {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make(map[uint64]int64)
	for _, s := range sh.man.Segs {
		if s.Dead.Len() > 0 {
			out[s.ID] = s.Dead.Debt
		}
	}
	return out
}

// validateInsert rejects empty points and NaN or ±Inf coordinates and
// weights: a single non-finite value would silently poison every
// aggregate the engine answers afterwards.
func validateInsert(p []float64, w float64) error {
	if len(p) == 0 {
		return errors.New("karl: empty point")
	}
	for i, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("karl: point coordinate %d is %v; coordinates must be finite", i, v)
		}
	}
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("karl: weight is %v; weights must be finite", w)
	}
	return nil
}

// Insert adds one weighted point, discarding its id; use InsertID when
// the point may need deleting later. The first insert fixes the
// dimensionality. Steady-state inserts are allocation-free; an insert
// that fills the memtable builds the new segment synchronously (off the
// query path — concurrent queries are never blocked by it).
func (d *Engine) Insert(p []float64, w float64) error {
	_, err := d.InsertID(p, w)
	return err
}

// InsertID adds one weighted point and returns its id — a stable handle
// (ids start at 1 and never recycle) that Delete accepts for as long as
// the point lives.
func (d *Engine) InsertID(p []float64, w float64) (uint64, error) {
	if err := validateInsert(p, w); err != nil {
		return 0, err
	}
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.insertReadyLocked(len(p)); err != nil {
		return 0, err
	}
	return sh.putRowLocked(TailRow{P: p, W: w})
}

// InsertBulk adds many points with optional parallel weights (nil = unit)
// in one lock acquisition, returning their ids. Validation is
// all-or-nothing and happens BEFORE any buffer is touched: a NaN in the
// last point rejects the whole batch with the engine state unchanged,
// never with a prefix of the batch silently landed.
func (d *Engine) InsertBulk(points [][]float64, weights []float64) ([]uint64, error) {
	if len(points) == 0 {
		return nil, nil
	}
	if weights != nil && len(weights) != len(points) {
		return nil, fmt.Errorf("karl: %d weights for %d points", len(weights), len(points))
	}
	dims := len(points[0])
	for i, p := range points {
		if len(p) != dims {
			return nil, fmt.Errorf("karl: point %d has %d dims, point 0 has %d", i, len(p), dims)
		}
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		if err := validateInsert(p, w); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
	}
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.insertReadyLocked(dims); err != nil {
		return nil, err
	}
	ids := make([]uint64, len(points))
	for i, p := range points {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		id, err := sh.putRowLocked(TailRow{P: p, W: w})
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return ids, nil
}

// insertReadyLocked performs the per-call insert gating: closed and
// background-error checks plus fixing or checking the dimensionality.
func (sh *dynShared) insertReadyLocked(dims int) error {
	if sh.closed {
		return errors.New("karl: engine is closed")
	}
	if err := sh.compactErrLocked(); err != nil {
		return err
	}
	if sh.dims == 0 {
		sh.dims = dims
	}
	if dims != sh.dims {
		return fmt.Errorf("karl: point has %d dims, engine has %d", dims, sh.dims)
	}
	sh.mirror = false
	return nil
}

// putRowLocked lands one already-validated row in the memtable, sealing when
// it fills, and returns its id: a new row (Seq 0) gets the next id and the
// current time, a replayed one (ApplyRows) keeps its own. Called with mu
// held; may release it while waiting for room or sealing.
func (sh *dynShared) putRowLocked(r TailRow) (uint64, error) {
	// Wait until the memtable has room (a seal may be draining it) and no
	// full compaction is snapshotting it.
	for sh.draining || (sh.mem != nil && sh.mem.n >= sh.policy.SealSize) {
		sh.cond.Wait()
		if sh.closed {
			return 0, errors.New("karl: engine is closed")
		}
	}
	if sh.mem == nil {
		sh.mem = newMemtable(sh.policy.SealSize, sh.dims, sh.timed())
	}
	if r.Seq == 0 {
		r.Seq = sh.nextSeq
	}
	sh.nextSeq = r.Seq + 1
	mt := sh.mem
	copy(mt.m.Row(mt.n), r.P)
	mt.norms[mt.n] = vec.Norm2(r.P)
	mt.w[mt.n] = r.W
	mt.seq[mt.n] = r.Seq
	if mt.t != nil {
		if mt.t[mt.n] = r.T; r.T == 0 {
			mt.t[mt.n] = sh.now()
		}
	}
	mt.n++
	if mt.n >= sh.policy.SealSize {
		return r.Seq, sh.sealLocked()
	}
	return r.Seq, nil
}

// Delete removes the point with the given id (as returned by InsertID or
// InsertBulk) and returns ErrPointNotFound when no live point has it.
// A point still in the active memtable is removed physically; a point in
// the sealing buffer or a sealed segment gets a TOMBSTONE — its exact
// mass is subtracted from both global bounds of every query (so answers
// reflect the delete immediately and the ε/τ guarantees stay anchored to
// the true post-delete total) until a compaction touching its segment
// physically drops the row and consumes the tombstone. The tombstone is
// held by the segment that stores the row; once a segment's dead rows
// reach a 1/Fanout share of it, or reads have paid the cost of rewriting
// it by evaluating them, the background compactor rewrites it, and a
// segment with no live row left simply leaves the manifest.
func (d *Engine) Delete(id uint64) error {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return errors.New("karl: engine is closed")
	}
	if err := sh.compactErrLocked(); err != nil {
		return err
	}
	// A full compaction snapshots the memtable without the lock; wait it
	// out before mutating anything.
	for sh.draining {
		sh.cond.Wait()
		if sh.closed {
			return errors.New("karl: engine is closed")
		}
	}
	if id == 0 || id >= sh.nextSeq {
		return ErrPointNotFound
	}
	sh.mirror = false
	if i, ok := sh.mem.find(id); ok {
		sh.mem.removeAt(i)
		sh.deletes++
		return nil
	}
	if b := sh.sealing; b != nil {
		if i, ok := b.find(id); ok {
			// The sealing buffer is being indexed concurrently without the
			// lock: never mutate it. The row lands in a segment when the
			// seal installs; the tombstone keeps cancelling it exactly.
			var ref int64
			if b.t != nil {
				ref = b.t[i]
			}
			if sh.sealDead == nil {
				sh.sealDead = &segment.Dead{}
			}
			if !sh.sealDead.Add(id, b.w[i], ref, b.m.Row(i)) {
				return ErrPointNotFound // already deleted, tombstone pending
			}
			sh.deletes++
			return nil
		}
	}
	for _, s := range sh.man.Segs {
		stored, added := s.Kill(id)
		if !stored {
			continue
		}
		if !added {
			return ErrPointNotFound // already deleted, tombstone pending
		}
		sh.deletes++
		if sh.policy.RewriteDue(s) {
			sh.maybeCompactLocked()
		}
		return nil
	}
	return ErrPointNotFound
}

// sealLocked drains the full memtable into a new immutable segment. It is
// called with mu held and releases it around the index build, so queries
// (which scan the sealing buffer as part of their base term) and inserts
// (which go to the freshly installed buffer) proceed while the segment is
// built. Returns with mu held.
func (sh *dynShared) sealLocked() error {
	for sh.mem.n >= sh.policy.SealSize {
		if sh.sealing != nil || sh.draining {
			sh.cond.Wait() // another seal, or a full compaction's snapshot: both broadcast when done
			continue
		}
		sh.sealing = sh.mem
		if sh.spare != nil {
			sh.mem = sh.spare
			sh.spare = nil
		} else {
			sh.mem = newMemtable(sh.policy.SealSize, sh.dims, sh.timed())
		}
		id := sh.nextID
		sh.nextID++
		buf := sh.sealing
		run := buf.run()
		var ref int64
		if sh.timed() {
			nowT := sh.now()
			if sh.halfLife > 0 {
				ref = nowT // the new segment's decay reference instant
			}
			run = sh.sealRunLocked(buf, nowT, ref)
		}
		cfg := sh.buildCfgLocked()
		sh.mu.Unlock()
		var seg *segment.Segment
		var err error
		if run.N > 0 {
			seg, err = segment.Seal(run, ref, cfg, id)
		}
		sh.mu.Lock()
		sh.sealing = nil
		dead := sh.sealDead
		sh.sealDead = nil
		if err != nil {
			// Unreachable with a validated build config; surface rather
			// than silently dropping the buffered points.
			sh.cond.Broadcast()
			return fmt.Errorf("karl: sealing memtable: %w", err)
		}
		if seg != nil {
			// Tombstones placed on the buffer while the build ran move to the
			// segment that now stores their rows. Rows the seal expired away
			// take their tombstones with them, so the subtraction never
			// outlives the mass it cancels.
			inheritDead(seg, nil, dead)
			sh.man = sh.man.WithSealed(seg)
		}
		sh.seals++
		buf.n = 0
		sh.spare = buf
		sh.maybeCompactLocked()
		sh.cond.Broadcast()
	}
	return nil
}

// sealRunLocked prepares a timed seal's input: drops rows past the TTL
// cutoff and rescales surviving weights onto the decay reference ref,
// copying into fresh buffers when anything changes (the shared sealing
// buffer is scanned by concurrent queries and must stay untouched).
// Returns the run to seal. Called with mu held; the plain untimed path
// never reaches here and stays allocation-free.
func (sh *dynShared) sealRunLocked(buf *memtable, nowT, ref int64) segment.MemRun {
	var cutoff int64
	if sh.ttl > 0 {
		cutoff = nowT - sh.ttl
	}
	kept := 0
	for i := 0; i < buf.n; i++ {
		if cutoff != 0 && buf.t[i] < cutoff {
			continue
		}
		kept++
	}
	if kept == buf.n && sh.halfLife <= 0 {
		return buf.run() // nothing expired, no decay: zero-copy
	}
	var run segment.MemRun
	if kept > 0 {
		run = segment.MemRun{
			M: vec.NewMatrix(kept, buf.m.Cols), W: make([]float64, kept),
			Seqs: make([]uint64, kept), Times: make([]int64, kept), N: kept,
		}
	}
	j := 0
	for i := 0; i < buf.n; i++ {
		if cutoff != 0 && buf.t[i] < cutoff {
			continue
		}
		copy(run.M.Row(j), buf.m.Row(i))
		w := buf.w[i]
		if sh.halfLife > 0 {
			// Rebase the raw (as-inserted) weight from its own insert
			// instant onto the segment's shared reference.
			w *= sh.decayAt(ref, buf.t[i])
		}
		run.W[j] = w
		run.Seqs[j] = buf.seq[i]
		run.Times[j] = buf.t[i]
		j++
	}
	return run
}

// maybeCompactLocked is the one place maintenance is planned: it removes
// every segment whose rows are all dead (a manifest edit, no rebuild) and
// starts one background rebuild if the policy calls for one — a tiered
// merge or a dead-row rewrite — and none is running. It runs after every
// seal and every finished rebuild, from Delete whenever a tombstone makes
// a segment due a rewrite, and from the read whose evaluations take a
// segment's dead-row debt to the cost of rewriting it. A mirror (an
// unpromoted follower) never plans: a snapshot install mirrors the
// leader's manifest instead of maintaining its own.
// Planning reads only per-segment sizes, dead counts and debts: its cost
// under the lock does not grow with the number of pending tombstones.
func (sh *dynShared) maybeCompactLocked() {
	if !sh.autoCompact || sh.compacting || sh.draining || sh.closed || sh.mirror {
		return
	}
	var gone []uint64
	for _, s := range sh.man.Segs {
		if s.AllDead() {
			gone = append(gone, s.ID)
		}
	}
	if gone != nil {
		sh.man = sh.man.WithReplaced(gone, nil)
		sh.deadDrops += len(gone)
	}
	ids := sh.policy.Plan(sh.man)
	if ids == nil {
		return
	}
	sh.compacting = true
	segs := sh.man.Select(ids)
	id := sh.nextID
	sh.nextID++
	cfg := sh.buildCfgLocked()
	var found []*segment.Segment
	if cfg.Skeleton != nil && sh.man.Len()+sh.mem.len() > 2*cfg.LeafCap*cfg.Skeleton.Leaves() {
		// The engine has outgrown its skeleton: this rebuild founds the next.
		found = sh.man.Segs
	}
	go sh.compactSegments(ids, segs, id, sh.mergeOptsLocked(segs), cfg, found)
}

// buildCfgLocked returns the configuration seals and rebuilds build with:
// a kd engine's segments are cut on its skeleton once it has one.
func (sh *dynShared) buildCfgLocked() segment.BuildConfig {
	cfg := sh.bcfg
	cfg.Skeleton = sh.skeletonLocked()
	return cfg
}

// skeletonLocked returns the engine's skeleton, reading it off the largest
// (oldest of the largest) kd segment when none is set; nil when the
// manifest holds no kd segment.
func (sh *dynShared) skeletonLocked() *kdtree.Skeleton {
	if sh.skel != nil {
		return sh.skel
	}
	var from *segment.Segment
	for _, s := range sh.man.Segs {
		if s.Tree.Kind == index.KDTree && (from == nil || s.Len() > from.Len()) {
			from = s
		}
	}
	if from != nil {
		sh.skel = kdtree.SkeletonOf(from.Tree)
	}
	return sh.skel
}

// mergeOptsLocked assembles, under the lock, the mutations a rebuild over
// the given input segments applies: their dead rows as of now (dropped,
// and their tombstones consumed, when the rebuild installs), the TTL
// expiry cutoff, and the decay rebase onto the merge instant. The cost is
// proportional to the inputs' dead rows. Tombstones placed after this
// snapshot stay pending — the output keeps their rows and inherits them.
func (sh *dynShared) mergeOptsLocked(segs []*segment.Segment) segment.MergeOpts {
	var opts segment.MergeOpts
	var nowT int64
	if sh.timed() {
		nowT = sh.now()
	}
	if sh.ttl > 0 {
		opts.ExpireBefore = nowT - sh.ttl
	}
	if sh.halfLife > 0 {
		opts.HalfLife = sh.halfLife
		opts.NewRef = nowT
	}
	for _, s := range segs {
		if s.Dead.Len() == 0 {
			continue
		}
		if opts.Drop == nil {
			opts.Drop = make(map[uint64]bool, s.Dead.Len())
		}
		for _, seq := range s.Dead.Seqs {
			opts.Drop[seq] = true
		}
	}
	return opts
}

// inheritDead marks dead in a freshly built segment the rows its inputs'
// tombstones name that the build did not consume (those outside its drop
// set, placed after its snapshot) and that it still stores. A tombstone
// whose row the build expired away vanishes with it. A nil out discards
// them all — no row survived.
func inheritDead(out *segment.Segment, drop map[uint64]bool, inputs ...*segment.Dead) {
	if out == nil {
		return
	}
	for _, d := range inputs {
		for i := 0; i < d.Len(); i++ {
			if seq := d.Seqs[i]; !drop[seq] {
				out.Kill(seq)
			}
		}
	}
}

// deadOf lists the tombstone sets of the given segments.
func deadOf(segs []*segment.Segment) []*segment.Dead {
	out := make([]*segment.Dead, len(segs))
	for i, s := range segs {
		out[i] = s.Dead
	}
	return out
}

// compactSegments rebuilds the planned segments into one off the query
// and insert paths and swaps the result in atomically. Queries started
// before the swap keep refining over the old snapshot.
//
// Given found, the rebuild founds a new skeleton first: the one read off a
// fresh median build over every row those segments store, at the engine's
// leaf capacity, so the union of everything cut on it has the cells of one
// index over the engine. The output is cut on it, and so is every later
// build.
func (sh *dynShared) compactSegments(ids []uint64, segs []*segment.Segment, id uint64, opts segment.MergeOpts, cfg segment.BuildConfig, found []*segment.Segment) {
	var err error
	if found != nil {
		cfg.Skeleton, err = segment.SkeletonOver(found, cfg.LeafCap)
	}
	var merged *segment.Segment
	if err == nil {
		merged, err = segment.Merge(segs, segment.MemRun{}, opts, cfg, id)
	}
	sh.mu.Lock()
	sh.compacting = false
	if err != nil {
		sh.compactErr = err
	} else {
		inheritDead(merged, opts.Drop, deadOf(segs)...)
		sh.man = sh.man.WithReplaced(ids, merged)
		if found != nil {
			sh.skel = cfg.Skeleton
		}
		sh.compactions++
		if len(ids) == 1 {
			sh.deadRewrites++
		}
		sh.maybeCompactLocked() // cascade: next tier, next dead-heavy segment
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// compactErrLocked surfaces (once) an error from a background merge.
func (sh *dynShared) compactErrLocked() error {
	err := sh.compactErr
	sh.compactErr = nil
	if err != nil {
		return fmt.Errorf("karl: background compaction: %w", err)
	}
	return nil
}

// Compact merges every segment AND the memtable into one segment,
// restoring per-segment insertion order oldest-first, physically dropping
// every tombstoned and TTL-expired row, and (under decay) rebasing all
// weights onto the compaction instant. Without deletes, TTL or decay the
// result is bitwise identical to a from-scratch static build over the
// full insert stream; with deletes it is bitwise identical to a static
// build over the never-deleted survivors in insertion order. Inserts and
// deletes block for the duration; queries proceed on the old snapshot and
// switch to the compacted manifest atomically.
func (d *Engine) Compact() error {
	sh := d.sh
	sh.mu.Lock()
	for sh.compacting || sh.sealing != nil || sh.draining {
		sh.cond.Wait()
	}
	if err := sh.compactErrLocked(); err != nil {
		sh.mu.Unlock()
		return err
	}
	memN := sh.mem.len()
	if sh.man.Len()+memN == 0 {
		sh.mu.Unlock()
		return nil // empty
	}
	if len(sh.man.Segs) == 1 && memN == 0 && sh.tombstonesLocked() == 0 && sh.ttl == 0 {
		// One segment, nothing buffered, no pending deletes, no window to
		// enforce: already fully compact. (Pending tombstones or a TTL
		// force the merge so dead rows are physically dropped.)
		sh.mu.Unlock()
		return nil
	}
	sh.draining = true // blocks inserts, deletes, seals and background merges
	segs := sh.man.Segs
	run := sh.mem.run()
	id := sh.nextID
	sh.nextID++
	opts := sh.mergeOptsLocked(segs)
	sh.mu.Unlock()
	merged, err := segment.Merge(segs, run, opts, sh.bcfg, id)
	sh.mu.Lock()
	sh.draining = false
	if err == nil {
		man := &segment.Manifest{Epoch: sh.man.Epoch + 1}
		if merged != nil {
			man.Segs = []*segment.Segment{merged}
		}
		// Deletes were blocked throughout, so opts.Drop holds every
		// tombstone of segs: there is none left to hand on.
		sh.man, sh.skel = man, nil
		sh.compactions++
		if sh.mem != nil {
			sh.mem.n = 0 // absorbed into the merged segment
		}
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()
	return err
}

// Close prevents further inserts and waits for in-flight seals and
// compactions to finish. Queries on existing clones remain valid.
func (d *Engine) Close() error {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.closed = true
	sh.cond.Broadcast()
	for sh.compacting || sh.sealing != nil || sh.draining {
		sh.cond.Wait()
	}
	return sh.compactErrLocked()
}

// walk takes, under the lock, the state n reads share: it refuses an
// empty engine and queries of other than dims dimensions, reads the clock
// once, and hands visit every run of rows the exact base term scans — the
// memtable and any buffer being sealed (sign +1), then every pending
// tombstone (sign −1) — with its weights decayed to that instant in this
// clone's scratch, which the next run reuses. Buffered mass minus dead mass
// folds into both global bounds, so ε/τ certificates hold relative to the
// true post-delete total. Every segment's tombstones are charged the n
// evaluations each the reads pay on them; the read that takes a segment's
// debt to the cost of rewriting it starts the rewrite, which changes only
// the manifest the next read sees. Under decay the walk also refills this
// clone's per-segment scale scratch for the instant.
func (d *Engine) walk(dims, n int, visit func(m *vec.Matrix, norms, w []float64, sign float64)) (*segment.Manifest, error) {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	man := sh.man
	if man.Len()+sh.mem.len()+sh.sealing.len() == 0 {
		return nil, errors.New("karl: dynamic engine is empty")
	}
	if dims != sh.dims {
		return nil, fmt.Errorf("karl: query has %d dims, engine has %d", dims, sh.dims)
	}
	if d.fCfgGen != sh.cfgGen {
		// The engine's kernel configuration was replaced (snapshot
		// install) after this view's forest was built: rebuild it so the
		// refinement side answers with the same kernel the base term is
		// computed with.
		p := kernel.Params(sh.kern)
		f, err := core.NewForest(p, sh.method)
		if err != nil {
			return nil, err
		}
		d.f, d.fCfgGen, d.fMan, d.rows = f, sh.cfgGen, nil, p.RowsEvaluator()
	}
	var nowT int64
	if sh.timed() {
		nowT = sh.now()
	}
	for _, b := range [2]*memtable{sh.mem, sh.sealing} {
		if b.len() > 0 {
			visit(b.m, b.norms[:b.n], d.decayed(b.w[:b.n], b.t, nowT), 1)
		}
	}
	due := false
	sh.eachDeadLocked(man, func(s *segment.Segment, dead *segment.Dead) {
		k := dead.Len()
		d.dead = vec.Matrix{Data: dead.Pts, Rows: k, Cols: dead.Dims}
		visit(&d.dead, dead.Norms, d.decayed(dead.W, dead.Ref, nowT), -1)
		due = s != nil && !sh.mirror && s.PayRent(int64(k*n)) || due
	})
	if due {
		sh.maybeCompactLocked()
	}
	d.scales = d.scales[:0]
	if sh.halfLife > 0 {
		for _, s := range man.Segs {
			d.scales = append(d.scales, sh.decayAt(nowT, s.TimeRef))
		}
	}
	return man, nil
}

// snapshot walks the engine for one query and scans each run straight into
// its base term: it returns the manifest to refine, the base term and how
// many points that scan covered.
func (d *Engine) snapshot(q []float64) (man *segment.Manifest, base float64, scanned int, err error) {
	qNorm2 := vec.Norm2(q)
	man, err = d.walk(len(q), 1, func(m *vec.Matrix, norms, w []float64, sign float64) {
		base += sign * d.rows(q, qNorm2, m, norms, w, 0, len(norms))
		scanned += len(norms)
	})
	return man, base, scanned, err
}

// decayed returns the weights w of rows stamped with the instants t as the
// query instant nowT sees them: w itself when decay is off, else
// w·2^(−(nowT−t)/halfLife) in this clone's reused scratch. Called with mu
// held.
func (d *Engine) decayed(w []float64, t []int64, nowT int64) []float64 {
	sh := d.sh
	if sh.halfLife <= 0 {
		return w
	}
	d.decayW = d.decayW[:0]
	for i, wi := range w {
		d.decayW = append(d.decayW, wi*sh.decayAt(nowT, t[i]))
	}
	return d.decayW
}

// arm points this clone's forest at the manifest snapshot, reusing the
// existing segment set when the manifest is unchanged (the steady-state path:
// no allocation, no re-validation). Under decay the per-segment scales
// are re-installed every query — the clock has moved — but the slice is
// this clone's reused scratch, so steady state still allocates nothing.
func (d *Engine) arm(man *segment.Manifest) error {
	if d.fMan != man {
		set, err := d.sh.segmentSet(man)
		if err != nil {
			return err
		}
		d.f.SetSegments(set)
		d.fMan = man
	}
	if d.sh.halfLife > 0 {
		return d.f.SetScales(d.scales)
	}
	return d.f.SetScales(nil)
}

// segmentSet returns man's grouped segment set, made once per manifest and
// shared by every clone, so a union tree is built once, not per clone.
func (sh *dynShared) segmentSet(man *segment.Manifest) (*core.SegmentSet, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.setMan == man && sh.setGen == sh.cfgGen {
		return sh.set, nil
	}
	var rel []float64
	if hl := sh.halfLife; hl > 0 {
		// Each segment's weight relative to the newest reference instant:
		// constant in time, so the forest folds it into the union of its
		// group once per manifest.
		newest := int64(math.MinInt64)
		for _, s := range man.Segs {
			newest = max(newest, s.TimeRef)
		}
		rel = make([]float64, len(man.Segs))
		for i, s := range man.Segs {
			rel[i] = math.Exp2(-float64(newest-s.TimeRef) / hl)
		}
	}
	set, err := core.NewSegmentSet(man.Trees(), rel)
	if err != nil {
		return nil, err
	}
	sh.set, sh.setMan, sh.setGen = set, man, sh.cfgGen
	return set, nil
}

// Aggregate computes the exact aggregate over all current points.
func (d *Engine) Aggregate(q []float64) (float64, error) {
	v, _, err := d.AggregateStats(q)
	return v, err
}

// AggregateStats is Aggregate plus the work statistics (an exact
// aggregation scans every point, buffered and indexed).
func (d *Engine) AggregateStats(q []float64) (float64, Stats, error) {
	man, base, scanned, err := d.snapshot(q)
	if err != nil {
		return 0, Stats{}, err
	}
	if err := d.arm(man); err != nil {
		return 0, Stats{}, err
	}
	v, st, err := d.f.Exact(q, base)
	st.PointsScanned += scanned
	return v, st, err
}

// Threshold answers the TKAQ over all current points: the buffered points
// contribute exactly to both global bounds, so the indexed segments still
// prune against the full-total threshold.
func (d *Engine) Threshold(q []float64, tau float64) (bool, error) {
	hot, _, err := d.ThresholdStats(q, tau)
	return hot, err
}

// ThresholdStats is Threshold plus the work statistics.
func (d *Engine) ThresholdStats(q []float64, tau float64) (bool, Stats, error) {
	man, base, scanned, err := d.snapshot(q)
	if err != nil {
		return false, Stats{}, err
	}
	if err := d.arm(man); err != nil {
		return false, Stats{}, err
	}
	hot, st, err := d.f.Threshold(q, tau, base)
	st.PointsScanned += scanned
	return hot, st, err
}

// Approximate answers the eKAQ over all current points: a value within
// relative error eps of the TRUE total. The buffered points fold into
// both global bounds as an exact base term before refinement, so the
// guarantee holds even with mixed-sign weights where the buffered and
// indexed parts nearly cancel (refinement is then driven toward exact).
func (d *Engine) Approximate(q []float64, eps float64) (float64, error) {
	v, _, err := d.ApproximateStats(q, eps)
	return v, err
}

// ApproximateStats is Approximate plus the work statistics.
func (d *Engine) ApproximateStats(q []float64, eps float64) (float64, Stats, error) {
	man, base, scanned, err := d.snapshot(q)
	if err != nil {
		return 0, Stats{}, err
	}
	if err := d.arm(man); err != nil {
		return 0, Stats{}, err
	}
	v, st, err := d.f.Approximate(q, eps, base)
	st.PointsScanned += scanned
	return v, st, err
}

// ArmedEpoch returns the manifest epoch this clone's executor is armed
// for — the epoch of the last query it ran — and whether it has run one.
// Comparing it with Epoch shows how far a pooled clone lags the dataset.
func (d *Engine) ArmedEpoch() (uint64, bool) {
	if d.fMan == nil {
		return 0, false
	}
	return d.fMan.Epoch, true
}

// FastPathQueries reports how many Threshold/Approximate queries on THIS
// clone ran through the single-segment fast path — the restored monolithic
// loop a query takes only when the manifest holds exactly one segment and
// no memtable points, tombstones or decay contribute (the base term and
// scales would otherwise change the algebra).
func (d *Engine) FastPathQueries() int64 { return d.f.FastPathQueries() }
