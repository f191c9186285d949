package karl

import (
	"fmt"
	"math"
	"sync/atomic"

	"karl/internal/dualtree"
	"karl/internal/index"
	"karl/internal/kernel"
	"karl/internal/vec"
)

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
	if n > 0 {
		c.seqBatches.Add(1)
	}
}

func (c *dualCounters) noteDual(st dualtree.Stats) {
	c.dualBatches.Add(1)
	c.queries.Add(int64(st.Queries))
	c.nodePairs.Add(int64(st.NodePairs))
	c.groupCertified.Add(int64(st.GroupCertified))
	c.fallbacks.Add(int64(st.Fallbacks))
}

func (c *dualCounters) snapshot() DualTreeStats {
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

// dualBlock is what a dual-tree batch runs over: the walk's segment trees,
// the kernel they are refined with, and every run of rows the base term
// scans copied into one block with signed, pre-decayed weights (tombstones
// negative), cut at ends into the runs a single query scans one evaluator
// call each. Each query's exact base term is then computed outside the
// lock and matches the single query's bit for bit.
type dualBlock struct {
	cfg    dualtree.Config
	trees  []*index.Tree
	scales []float64
	rows   kernel.RowsFunc
	pts    vec.Matrix
	norms  []float64
	ws     []float64
	ends   []int
}

// batchSnapshot walks the engine once for a batch of n queries, copying
// each run into the block. Decay is evaluated once for the whole batch, as
// a single query evaluates it once for all segments, and the scales are
// this view's scratch, which stays put until its next query.
func (d *Engine) batchSnapshot(dims, n int) (*dualBlock, error) {
	sh := d.sh
	b := &dualBlock{pts: vec.Matrix{Cols: dims}}
	man, err := d.walk(dims, n, func(m *vec.Matrix, norms, w []float64, sign float64) {
		if b.ws == nil {
			// The first run sizes the block once, so the copy under the
			// walk's lock never grows it.
			k := sh.mem.len() + sh.sealing.len() + sh.tombstonesLocked()
			b.pts.Data = make([]float64, 0, k*dims)
			b.norms = make([]float64, 0, k)
			b.ws = make([]float64, 0, k)
		}
		b.pts.Data = append(b.pts.Data, m.Data[:len(norms)*dims]...)
		b.norms = append(b.norms, norms...)
		for _, wi := range w {
			b.ws = append(b.ws, sign*wi)
		}
		b.ends = append(b.ends, len(b.ws))
	})
	if err != nil {
		return nil, err
	}
	b.pts.Rows = len(b.ws)
	b.cfg = dualtree.Config{Kernel: d.f.Kernel(), Method: d.f.Method()}
	b.trees, b.rows = man.Trees(), d.rows
	if len(d.scales) > 0 {
		b.scales = d.scales
	}
	return b, nil
}

// bases computes the exact per-query base terms of the block for one chunk
// (nil when the block is empty).
func (b *dualBlock) bases(chunk *vec.Matrix) []float64 {
	if len(b.ws) == 0 {
		return nil
	}
	base := make([]float64, chunk.Rows)
	for i := range base {
		q := chunk.Row(i)
		qNorm2 := vec.Norm2(q)
		lo := 0
		for _, hi := range b.ends {
			base[i] += b.rows(q, qNorm2, &b.pts, b.norms, b.ws, lo, hi)
			lo = hi
		}
	}
	return base
}

// useDual is the batch cutover: batches of at least dualTreeMinBatch
// queries over at least dualTreeMinPoints points take the dual-tree
// executor, everything else goes query by query. An empty engine stays on
// the sequential path, which reports it empty.
func (d *Engine) useDual(n int) bool {
	return n >= dualTreeMinBatch && d.Len() >= dualTreeMinPoints
}

// runDual answers the (already validated) batch through dual-tree
// executors over one batch snapshot: every worker builds its own executor
// and claims one contiguous chunk of at least dualTreeMinChunk queries, so
// each query tree amortizes its setup.
func (d *Engine) runDual(queries [][]float64, workers int,
	serve func(x *dualtree.Executor, chunk *vec.Matrix, base []float64, lo int) (dualtree.Stats, error)) (Stats, error) {
	n := len(queries)
	b, err := d.batchSnapshot(len(queries[0]), n)
	if err != nil {
		return Stats{}, err
	}
	m := vec.FromRows(queries)
	st, err := fanOut(n, workers, dualTreeMinChunk, func(int) (chunkFunc, error) {
		x, err := dualtree.New(b.cfg, b.trees)
		if err == nil {
			err = x.SetScales(b.scales)
		}
		return func(lo, hi int) (dualtree.Stats, error) {
			chunk := &vec.Matrix{Data: m.Data[lo*m.Cols : hi*m.Cols], Rows: hi - lo, Cols: m.Cols}
			st, err := serve(x, chunk, b.bases(chunk), lo)
			// The block scan is real per-query work, mirrored into the
			// same counter the single query's snapshot charges it to.
			st.PointsScanned += chunk.Rows * len(b.ws)
			return st, err
		}, err
	})
	if err != nil {
		return Stats{}, fmt.Errorf("karl: dual-tree batch: %w", err)
	}
	d.sh.dualCtr.noteDual(st)
	return workStats(st), nil
}
