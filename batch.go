package karl

import (
	"fmt"
	"runtime"
	"sync"
)

// BatchThreshold answers the TKAQ for every query. workers > 1 evaluates
// in parallel over engine clones (workers ≤ 0 selects GOMAXPROCS). The
// result slice is index-aligned with queries; the first error aborts the
// batch.
func (d *Engine) BatchThreshold(queries [][]float64, tau float64, workers int) ([]bool, error) {
	out, _, err := d.BatchThresholdStats(queries, tau, workers)
	return out, err
}

// BatchThresholdStats is BatchThreshold plus the summed work statistics of
// the whole batch (Iterations, NodesExpanded and PointsScanned accumulate
// across queries; the LB/UB fields are per-query quantities and stay zero).
func (d *Engine) BatchThresholdStats(queries [][]float64, tau float64, workers int) ([]bool, Stats, error) {
	if err := validateBatchQueries(queries, d.Dims()); err != nil {
		return nil, Stats{}, err
	}
	if d.useDual(len(queries)) {
		return d.dualThreshold(queries, tau, workers)
	}
	d.sh.dualCtr.noteSequential(len(queries))
	out := make([]bool, len(queries))
	per := make([]Stats, len(queries))
	err := d.batch(queries, workers, func(eng *Engine, i int) error {
		v, st, err := eng.ThresholdStats(queries[i], tau)
		out[i], per[i] = v, st
		return err
	})
	return out, sumStats(per), err
}

// BatchApproximate answers the eKAQ for every query, index-aligned.
func (d *Engine) BatchApproximate(queries [][]float64, eps float64, workers int) ([]float64, error) {
	out, _, err := d.BatchApproximateStats(queries, eps, workers)
	return out, err
}

// BatchApproximateStats is BatchApproximate plus the summed work
// statistics of the whole batch.
func (d *Engine) BatchApproximateStats(queries [][]float64, eps float64, workers int) ([]float64, Stats, error) {
	if err := validateBatchQueries(queries, d.Dims()); err != nil {
		return nil, Stats{}, err
	}
	// eps ≤ 0 keeps the sequential path so its validation error surfaces
	// with the historical per-query shape.
	if eps > 0 && d.useDual(len(queries)) {
		return d.dualApproximate(queries, eps, workers)
	}
	d.sh.dualCtr.noteSequential(len(queries))
	out := make([]float64, len(queries))
	per := make([]Stats, len(queries))
	err := d.batch(queries, workers, func(eng *Engine, i int) error {
		v, st, err := eng.ApproximateStats(queries[i], eps)
		out[i], per[i] = v, st
		return err
	})
	return out, sumStats(per), err
}

// BatchAggregate computes the exact aggregate for every query.
func (d *Engine) BatchAggregate(queries [][]float64, workers int) ([]float64, error) {
	out, _, err := d.BatchAggregateStats(queries, workers)
	return out, err
}

// BatchAggregateStats is BatchAggregate plus the summed work statistics of
// the whole batch (every query scans all points, so PointsScanned is
// len(queries)·Len for a successful batch).
func (d *Engine) BatchAggregateStats(queries [][]float64, workers int) ([]float64, Stats, error) {
	if err := validateBatchQueries(queries, d.Dims()); err != nil {
		return nil, Stats{}, err
	}
	// Exact aggregation scans every point per query regardless of grouping,
	// so the dual path runs only when explicitly forced (where it matches
	// the sequential results bitwise).
	if d.sh.batchExec == BatchDualTree && len(queries) > 0 && d.Len() > 0 {
		return d.dualAggregate(queries, workers)
	}
	d.sh.dualCtr.noteSequential(len(queries))
	out := make([]float64, len(queries))
	per := make([]Stats, len(queries))
	err := d.batch(queries, workers, func(eng *Engine, i int) error {
		v, st, err := eng.AggregateStats(queries[i])
		out[i], per[i] = v, st
		return err
	})
	return out, sumStats(per), err
}

// sumStats folds per-query statistics into batch totals. The LB/UB fields
// are meaningless summed across queries and are left zero.
func sumStats(per []Stats) Stats {
	var total Stats
	for _, st := range per {
		total.Iterations += st.Iterations
		total.NodesExpanded += st.NodesExpanded
		total.PointsScanned += st.PointsScanned
	}
	return total
}

// batch fans n queries across worker clones: items are claimed one at a
// time by workers that each query through their own clone, so no query
// scratch is ever shared. The first error aborts the batch.
func (d *Engine) batch(queries [][]float64, workers int, fn func(eng *Engine, i int) error) error {
	n := len(queries)
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(d, i); err != nil {
				return fmt.Errorf("karl: batch query %d: %w", i, err)
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return -1
		}
		i := next
		next++
		return i
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = fmt.Errorf("karl: batch query %d: %w", i, err)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := d.Clone()
			for {
				i := claim()
				if i < 0 {
					return
				}
				if err := fn(eng, i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
