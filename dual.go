package karl

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"karl/internal/dualtree"
	"karl/internal/index"
	"karl/internal/kernel"
	"karl/internal/segment"
	"karl/internal/vec"
)

// BatchExecutor selects how the Batch* methods evaluate a query batch.
type BatchExecutor int

const (
	// BatchAuto (the default) picks per batch: large batches over large
	// indexes run the dual-tree executor, everything else fans out over
	// engine clones query-by-query.
	BatchAuto BatchExecutor = iota
	// BatchSequential always evaluates queries independently over clones.
	BatchSequential
	// BatchDualTree always runs the dual-tree executor (exact aggregation
	// included, where it matches the sequential results bitwise).
	BatchDualTree
)

// WithBatchExecutor fixes the batch execution strategy (default BatchAuto).
func WithBatchExecutor(x BatchExecutor) Option {
	return func(c *buildConfig) { c.batchExec = x }
}

// Auto-cutover thresholds: below either, the per-batch cost of building a
// query tree and scoring node pairs is not worth amortizing and the
// clone-pool fan-out wins.
const (
	dualTreeMinBatch  = 64  // queries per batch
	dualTreeMinPoints = 256 // indexed reference points
	dualTreeMinChunk  = 32  // min queries per worker chunk
)

// DualTreeStats is an engine's cumulative batch-executor telemetry: how
// batches were routed and, for dual-tree batches, how the traversal spent
// its work. Counters accumulate across the engine's lifetime and are shared
// by every clone.
type DualTreeStats struct {
	// DualBatches and SequentialBatches count non-empty batches by the
	// executor that served them.
	DualBatches       int
	SequentialBatches int
	// Queries counts queries answered by the dual-tree executor.
	Queries int
	// NodePairs counts (query node × reference node) group-bound
	// computations.
	NodePairs int
	// GroupCertified counts queries answered purely by group bound
	// certificates; Fallbacks counts queries the traversal handed back to
	// the sequential engine.
	GroupCertified int
	Fallbacks      int
}

// dualCounters is the shared atomic backing of DualTreeStats.
type dualCounters struct {
	dualBatches    atomic.Int64
	seqBatches     atomic.Int64
	queries        atomic.Int64
	nodePairs      atomic.Int64
	groupCertified atomic.Int64
	fallbacks      atomic.Int64
}

func (c *dualCounters) noteSequential(n int) {
	if c == nil || n == 0 {
		return
	}
	c.seqBatches.Add(1)
}

func (c *dualCounters) noteDual(st dualtree.Stats) {
	if c == nil {
		return
	}
	c.dualBatches.Add(1)
	c.queries.Add(int64(st.Queries))
	c.nodePairs.Add(int64(st.NodePairs))
	c.groupCertified.Add(int64(st.GroupCertified))
	c.fallbacks.Add(int64(st.Fallbacks))
}

func (c *dualCounters) snapshot() DualTreeStats {
	if c == nil {
		return DualTreeStats{}
	}
	return DualTreeStats{
		DualBatches:       int(c.dualBatches.Load()),
		SequentialBatches: int(c.seqBatches.Load()),
		Queries:           int(c.queries.Load()),
		NodePairs:         int(c.nodePairs.Load()),
		GroupCertified:    int(c.groupCertified.Load()),
		Fallbacks:         int(c.fallbacks.Load()),
	}
}

// DualTreeStats reports the engine's cumulative batch-executor telemetry
// (shared across clones).
func (d *Engine) DualTreeStats() DualTreeStats { return d.sh.dualCtr.snapshot() }

// validateBatchQueries fail-fasts a whole batch before any evaluation
// starts, mirroring InsertBulk's all-or-nothing contract: a bad row rejects
// the batch naming the offending query, with no partial results computed.
// dims ≤ 0 (an empty engine) checks internal consistency against
// the first row instead.
func validateBatchQueries(queries [][]float64, dims int) error {
	if len(queries) == 0 {
		return nil
	}
	if dims <= 0 {
		dims = len(queries[0])
	}
	for i, q := range queries {
		if len(q) != dims {
			return fmt.Errorf("karl: batch query %d: query has %d dims, batch expects %d", i, len(q), dims)
		}
		for j, v := range q {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("karl: batch query %d: coordinate %d is %v; coordinates must be finite", i, j, v)
			}
		}
	}
	return nil
}

// dualCoreStats folds dual-tree traversal work into the public batch Stats
// shape (LB/UB are per-query quantities and stay zero, as in sumStats).
func dualCoreStats(st dualtree.Stats) Stats {
	return Stats{Iterations: st.Iterations, NodesExpanded: st.NodesExpanded, PointsScanned: st.PointsScanned}
}

// runDual copies the (already validated) batch into one matrix, splits it
// into contiguous per-worker chunks, and runs each chunk through its own
// dual-tree executor created by run. Chunks are large enough that each
// query tree amortizes its setup; workers ≤ 0 selects GOMAXPROCS.
func runDual(queries [][]float64, workers int,
	run func(chunk *vec.Matrix, lo int) (dualtree.Stats, error)) (dualtree.Stats, error) {
	n := len(queries)
	m := vec.FromRows(queries)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if maxW := (n + dualTreeMinChunk - 1) / dualTreeMinChunk; workers > maxW {
		workers = maxW
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		return run(m, 0)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    dualtree.Stats
		firstErr error
	)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			chunk := &vec.Matrix{Data: m.Data[lo*m.Cols : hi*m.Cols], Rows: hi - lo, Cols: m.Cols}
			st, err := run(chunk, lo)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			total.Queries += st.Queries
			total.NodePairs += st.NodePairs
			total.GroupCertified += st.GroupCertified
			total.Fallbacks += st.Fallbacks
			total.Iterations += st.Iterations
			total.NodesExpanded += st.NodesExpanded
			total.PointsScanned += st.PointsScanned
		}(lo, hi)
	}
	wg.Wait()
	return total, firstErr
}

// dynBatchSnap is the one-lock snapshot a dual-tree batch runs
// over: the manifest's segment trees with their decay scales, plus every
// buffered point (memtable and sealing buffer) and every pending tombstone
// copied into one point block with its row norms and signed, pre-decayed
// weights (tombstones negative), cut at ends into the runs a single query's
// snapshot scans one evaluator call each. Each query's exact base term is
// then computed outside the lock, so queries never hold mu while scanning,
// and matches the single query's bit for bit.
type dynBatchSnap struct {
	cfg    dualtree.Config
	trees  []*index.Tree
	scales []float64
	rows   kernel.RowsFunc
	pts    *vec.Matrix
	norms  []float64
	ws     []float64
	ends   []int
}

// batchSnapshot captures the dataset state for a batch of n queries at one
// instant, charging every segment's tombstones the n evaluations each the
// batch pays on them (snapshot's rent rule, n reads at once). Decay is
// evaluated once for the whole batch — the same way a single sequential
// query evaluates it once for all segments.
func (d *Engine) batchSnapshot(dims, n int) (*dynBatchSnap, error) {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	man := sh.man
	total := man.Len() + sh.mem.len() + sh.sealing.len()
	if total == 0 {
		return nil, fmt.Errorf("karl: dynamic engine is empty")
	}
	if dims != sh.dims {
		return nil, fmt.Errorf("karl: query has %d dims, engine has %d", dims, sh.dims)
	}
	var nowT int64
	if sh.timed() {
		nowT = sh.now()
	}
	cfg := dualtree.Config{Kernel: kernel.Params(sh.kern), Method: sh.method}
	snap := &dynBatchSnap{cfg: cfg, trees: man.Trees(), rows: cfg.Kernel.RowsEvaluator()}
	extra := sh.mem.len() + sh.sealing.len() + sh.tombstonesLocked()
	if extra > 0 {
		snap.pts = vec.NewMatrix(extra, sh.dims)
		snap.norms = make([]float64, 0, extra)
		snap.ws = make([]float64, 0, extra)
	}
	// add appends rows [0,k) of one run, its weights scaled by sign and
	// decayed from the instants t.
	add := func(pts, norms, w []float64, t []int64, k int, sign float64) {
		copy(snap.pts.Data[len(snap.ws)*sh.dims:], pts[:k*sh.dims])
		snap.norms = append(snap.norms, norms[:k]...)
		for i, wi := range w[:k] {
			if sh.halfLife > 0 {
				wi *= sh.decayAt(nowT, t[i])
			}
			snap.ws = append(snap.ws, sign*wi)
		}
		snap.ends = append(snap.ends, len(snap.ws))
	}
	for _, b := range [2]*memtable{sh.mem, sh.sealing} {
		if b.len() > 0 {
			add(b.m.Data, b.norms, b.w, b.t, b.n, 1)
		}
	}
	due := false
	sh.eachDeadLocked(man, func(s *segment.Segment, dead *segment.Dead) {
		add(dead.Pts, dead.Norms, dead.W, dead.Ref, dead.Len(), -1)
		due = s != nil && !sh.mirror && s.PayRent(int64(dead.Len()*n)) || due
	})
	if due {
		sh.maybeCompactLocked()
	}
	if sh.halfLife > 0 {
		snap.scales = make([]float64, len(man.Segs))
		for i, s := range man.Segs {
			snap.scales[i] = sh.decayAt(nowT, s.TimeRef)
		}
	}
	return snap, nil
}

// bases computes the exact per-query base terms of the snapshot's buffered
// mass for one chunk (nil when the snapshot has no buffered points).
func (s *dynBatchSnap) bases(chunk *vec.Matrix) []float64 {
	if len(s.ws) == 0 {
		return nil
	}
	base := make([]float64, chunk.Rows)
	for i := range base {
		q := chunk.Row(i)
		qNorm2 := vec.Norm2(q)
		lo := 0
		for _, hi := range s.ends {
			base[i] += s.rows(q, qNorm2, s.pts, s.norms, s.ws, lo, hi)
			lo = hi
		}
	}
	return base
}

// useDual is the batch cutover: BatchAuto takes the dual-tree executor
// above the batch- and engine-size floors.
func (d *Engine) useDual(n int) bool {
	points := d.Len()
	if n == 0 || points == 0 {
		// An empty engine keeps the sequential path's "engine is empty"
		// contract.
		return false
	}
	switch d.sh.batchExec {
	case BatchSequential:
		return false
	case BatchDualTree:
		return true
	default:
		return n >= dualTreeMinBatch && points >= dualTreeMinPoints
	}
}

// runDualDyn is the chunk runner: one snapshot for the whole batch, one
// executor plus exact base scan per chunk.
func (d *Engine) runDualDyn(queries [][]float64, workers int,
	serve func(x *dualtree.Executor, chunk *vec.Matrix, base []float64, lo int) (dualtree.Stats, error)) (Stats, error) {
	snap, err := d.batchSnapshot(len(queries[0]), len(queries))
	if err != nil {
		return Stats{}, err
	}
	st, err := runDual(queries, workers, func(chunk *vec.Matrix, lo int) (dualtree.Stats, error) {
		x, err := dualtree.New(snap.cfg, snap.trees)
		if err != nil {
			return dualtree.Stats{}, err
		}
		if err := x.SetScales(snap.scales); err != nil {
			return dualtree.Stats{}, err
		}
		base := snap.bases(chunk)
		cst, err := serve(x, chunk, base, lo)
		// The buffered-mass scan is real per-query work, mirrored into the
		// same counter the sequential snapshot charges it to.
		cst.PointsScanned += chunk.Rows * len(snap.ws)
		return cst, err
	})
	if err != nil {
		return Stats{}, fmt.Errorf("karl: dual-tree batch: %w", err)
	}
	d.sh.dualCtr.noteDual(st)
	return dualCoreStats(st), nil
}

func (d *Engine) dualThreshold(queries [][]float64, tau float64, workers int) ([]bool, Stats, error) {
	out := make([]bool, len(queries))
	st, err := d.runDualDyn(queries, workers, func(x *dualtree.Executor, chunk *vec.Matrix, base []float64, lo int) (dualtree.Stats, error) {
		return x.Threshold(chunk, tau, base, out[lo:lo+chunk.Rows])
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return out, st, nil
}

func (d *Engine) dualApproximate(queries [][]float64, eps float64, workers int) ([]float64, Stats, error) {
	out := make([]float64, len(queries))
	st, err := d.runDualDyn(queries, workers, func(x *dualtree.Executor, chunk *vec.Matrix, base []float64, lo int) (dualtree.Stats, error) {
		return x.Approximate(chunk, eps, base, out[lo:lo+chunk.Rows])
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return out, st, nil
}

func (d *Engine) dualAggregate(queries [][]float64, workers int) ([]float64, Stats, error) {
	out := make([]float64, len(queries))
	st, err := d.runDualDyn(queries, workers, func(x *dualtree.Executor, chunk *vec.Matrix, base []float64, lo int) (dualtree.Stats, error) {
		return x.Aggregate(chunk, base, out[lo:lo+chunk.Rows])
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return out, st, nil
}
