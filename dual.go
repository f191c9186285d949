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
// flattened into one copied point block with signed, pre-decayed weights
// (tombstones negative). Each query's exact base term is then computed
// outside the lock, so queries never hold mu while scanning.
type dynBatchSnap struct {
	cfg    dualtree.Config
	trees  []*index.Tree
	scales []float64
	pts    *vec.Matrix
	ws     []float64
}

// batchSnapshot captures the dataset state for one batch at one instant.
// Decay is evaluated once for the whole batch — the same way a single
// sequential query evaluates it once for all segments.
func (d *Engine) batchSnapshot(dims int) (*dynBatchSnap, error) {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	total := sh.man.Len() + sh.mem.len() + sh.sealing.len()
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
	decayed := sh.halfLife > 0
	snap := &dynBatchSnap{
		cfg:   dualtree.Config{Kernel: kernel.Params(sh.kern), Method: sh.method},
		trees: sh.man.Trees(),
	}
	extra := sh.mem.len() + sh.sealing.len() + sh.tombstonesLocked()
	if extra > 0 {
		snap.pts = vec.NewMatrix(extra, sh.dims)
		snap.ws = make([]float64, 0, extra)
		row := 0
		for _, b := range [2]*memtable{sh.mem, sh.sealing} {
			if b == nil {
				continue
			}
			for i := 0; i < b.n; i++ {
				copy(snap.pts.Row(row), b.m.Row(i))
				w := b.w[i]
				if decayed {
					w *= sh.decayAt(nowT, b.t[i])
				}
				snap.ws = append(snap.ws, w)
				row++
			}
		}
		sh.eachDeadLocked(func(dead *segment.Dead) {
			for i, w := range dead.W {
				copy(snap.pts.Row(row), dead.Row(i))
				if decayed {
					w *= sh.decayAt(nowT, dead.Ref[i])
				}
				snap.ws = append(snap.ws, -w)
				row++
			}
		})
	}
	if decayed {
		snap.scales = make([]float64, len(sh.man.Segs))
		for i, s := range sh.man.Segs {
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
	for i := 0; i < chunk.Rows; i++ {
		q := chunk.Row(i)
		var b float64
		for j, w := range s.ws {
			b += w * s.cfg.Kernel.Eval(q, s.pts.Row(j))
		}
		base[i] = b
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
	snap, err := d.batchSnapshot(len(queries[0]))
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
