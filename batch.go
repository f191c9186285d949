package karl

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"karl/internal/dualtree"
	"karl/internal/vec"
)

// BatchThreshold answers the TKAQ for every query. workers > 1 evaluates
// in parallel on up to that many goroutines, and never on more than
// GOMAXPROCS (workers ≤ 0 selects GOMAXPROCS). The result slice is
// index-aligned with queries; the first error aborts the batch.
func (d *Engine) BatchThreshold(queries [][]float64, tau float64, workers int) ([]bool, error) {
	out, _, err := d.BatchThresholdStats(queries, tau, workers)
	return out, err
}

// BatchThresholdStats is BatchThreshold plus the summed work statistics of
// the whole batch (Iterations, NodesExpanded and PointsScanned accumulate
// across queries; the LB/UB fields are per-query quantities and stay zero).
func (d *Engine) BatchThresholdStats(queries [][]float64, tau float64, workers int) ([]bool, Stats, error) {
	if err := checkTau(tau); err != nil {
		return nil, Stats{}, err
	}
	if err := validateBatchQueries(queries, d.Dims()); err != nil {
		return nil, Stats{}, err
	}
	out := make([]bool, len(queries))
	if d.useDual(len(queries)) {
		st, err := d.runDual(queries, workers, nil, func(x *dualtree.Executor, chunk *vec.Matrix, base []float64, lo int) (dualtree.Stats, error) {
			return x.Threshold(chunk, tau, base, out[lo:lo+chunk.Rows])
		})
		return out, st, err
	}
	st, err := d.sequential(len(queries), workers, func(i int) (st Stats, err error) {
		out[i], st, err = d.ThresholdStats(queries[i], tau)
		return st, err
	})
	return out, st, err
}

// BatchApproximate answers the eKAQ for every query, index-aligned.
func (d *Engine) BatchApproximate(queries [][]float64, eps float64, workers int) ([]float64, error) {
	out, _, err := d.BatchApproximateStats(queries, eps, workers)
	return out, err
}

// BatchApproximateStats is BatchApproximate plus the summed work
// statistics of the whole batch.
func (d *Engine) BatchApproximateStats(queries [][]float64, eps float64, workers int) ([]float64, Stats, error) {
	if err := checkEps(eps); err != nil {
		return nil, Stats{}, err
	}
	if err := validateBatchQueries(queries, d.Dims()); err != nil {
		return nil, Stats{}, err
	}
	out := make([]float64, len(queries))
	if d.useDual(len(queries)) {
		st, err := d.runDual(queries, workers, nil, func(x *dualtree.Executor, chunk *vec.Matrix, base []float64, lo int) (dualtree.Stats, error) {
			return x.Approximate(chunk, eps, base, out[lo:lo+chunk.Rows])
		})
		return out, st, err
	}
	st, err := d.sequential(len(queries), workers, func(i int) (st Stats, err error) {
		out[i], st, err = d.ApproximateStats(queries[i], eps)
		return st, err
	})
	return out, st, err
}

// BatchApproximateNormStats is ApproximateNormStats for every query,
// index-aligned, with the summed work statistics. A dual-tree batch reads W
// once, at its snapshot; a sequential one reads it per query.
func (d *Engine) BatchApproximateNormStats(queries [][]float64, epsNorm float64, workers int) ([]float64, Stats, error) {
	if err := validateBatchQueries(queries, d.Dims()); err != nil {
		return nil, Stats{}, err
	}
	out := make([]float64, len(queries))
	if epsNorm > 0 && d.useDual(len(queries)) {
		var mass float64
		st, err := d.runDual(queries, workers, &mass, func(x *dualtree.Executor, chunk *vec.Matrix, base []float64, lo int) (dualtree.Stats, error) {
			return x.ApproximateAbs(chunk, normBudget(epsNorm, mass), base, out[lo:lo+chunk.Rows])
		})
		return out, st, err
	}
	st, err := d.sequential(len(queries), workers, func(i int) (st Stats, err error) {
		out[i], st, err = d.ApproximateNormStats(queries[i], epsNorm)
		return st, err
	})
	return out, st, err
}

// BatchAggregate computes the exact aggregate for every query.
func (d *Engine) BatchAggregate(queries [][]float64, workers int) ([]float64, error) {
	out, _, err := d.BatchAggregateStats(queries, workers)
	return out, err
}

// BatchAggregateStats is BatchAggregate plus the summed work statistics of
// the whole batch (every query scans all points, so PointsScanned is
// len(queries)·Len for a successful batch). Exact aggregation scans every
// point whatever the grouping, so it always goes query by query.
func (d *Engine) BatchAggregateStats(queries [][]float64, workers int) ([]float64, Stats, error) {
	if err := validateBatchQueries(queries, d.Dims()); err != nil {
		return nil, Stats{}, err
	}
	out := make([]float64, len(queries))
	st, err := d.sequential(len(queries), workers, func(i int) (st Stats, err error) {
		out[i], st, err = d.AggregateStats(queries[i])
		return st, err
	})
	return out, st, err
}

// sequential answers n queries one by one, one(i) answering query i on d:
// every query takes its own view, so no query scratch is ever shared.
func (d *Engine) sequential(n, workers int, one func(i int) (Stats, error)) (Stats, error) {
	d.sh.dualCtr.noteSequential(n)
	st, err := fanOut(n, workers, 1, func() (chunkFunc, error) {
		return func(i, _ int) (dualtree.Stats, error) { // chunks of one query
			st, err := one(i)
			if err != nil {
				err = fmt.Errorf("karl: batch query %d: %w", i, err)
			}
			return dualtree.Stats{Iterations: st.Iterations, NodesExpanded: st.NodesExpanded, PointsScanned: st.PointsScanned}, err
		}, nil
	})
	return workStats(st), err
}

// chunkFunc answers the batch's queries [lo,hi).
type chunkFunc func(lo, hi int) (dualtree.Stats, error)

// fanOut answers queries [0,n) on at most workers goroutines, the
// caller's among them, on no more than GOMAXPROCS of them (workers ≤ 0
// selects GOMAXPROCS; a larger count, which a /v1/batch client chooses,
// would only queue goroutines behind the processors) and on no more than
// n/minChunk. Workers claim contiguous chunks: one query at a time when
// minChunk is 1, so uneven queries balance, else one chunk per worker, so
// each worker's executor amortizes its setup over its whole share. Each
// worker answers every chunk it claims through its own chunkFunc, made by
// open when it starts. A worker stops at its first error and the others at
// their next claim; the first error wins. Each worker's statistics fold
// into the total once, when it stops.
func fanOut(n, workers, minChunk int, open func() (chunkFunc, error)) (dualtree.Stats, error) {
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 {
		workers = procs
	}
	workers = max(1, min(workers, procs, n/minChunk))
	chunk := 1
	if minChunk > 1 {
		chunk = (n + workers - 1) / workers
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    dualtree.Stats
		firstErr error
	)
	work := func() {
		var st dualtree.Stats
		serve, err := open()
		for err == nil && !failed.Load() {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				break
			}
			var cst dualtree.Stats
			cst, err = serve(lo, min(lo+chunk, n))
			st.Add(cst)
		}
		if err != nil {
			failed.Store(true)
		}
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
		total.Add(st)
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return total, firstErr
}

// workStats folds batch work into the public Stats shape. The LB/UB fields
// are meaningless summed across queries and are left zero.
func workStats(st dualtree.Stats) Stats {
	return Stats{Iterations: st.Iterations, NodesExpanded: st.NodesExpanded, PointsScanned: st.PointsScanned}
}
