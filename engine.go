package karl

import "io"

// QueryEngine is the read surface every serving layer shares: an Engine,
// the per-request clones inside internal/server's pool, and the shard
// engines behind the cluster coordinator all present exactly this
// interface, so the layers above (HTTP server, clone pool, scatter-gather
// coordinator) are written against one abstraction and tests can put a
// decorated engine behind them.
//
// A QueryEngine value is not safe for concurrent queries — it owns
// per-query refinement scratch. CloneQuery returns a view sharing the
// (possibly mutable) dataset with independent scratch; clone once per
// goroutine.
type QueryEngine interface {
	// Len is the number of live points; Dims the dataset dimensionality
	// (0 while the engine is still empty).
	Len() int
	Dims() int
	Kernel() Kernel
	// WeightMass reports pos = Σ w_i over w_i ≥ 0 and neg = Σ |w_i| over
	// w_i < 0 — the masses ε-budget allocation and degraded-mode coverage
	// accounting are stated against.
	WeightMass() (pos, neg float64)

	// The three query families of the paper, with work statistics.
	AggregateStats(q []float64) (float64, Stats, error)
	ThresholdStats(q []float64, tau float64) (bool, Stats, error)
	ApproximateStats(q []float64, eps float64) (float64, Stats, error)

	// Batch forms fan out over internal clones (workers ≤ 0 selects
	// GOMAXPROCS). Threshold and approximate batches of at least 64
	// queries over at least 256 points take the dual-tree executor
	// instead; BatchAggregateStats always goes query by query.
	BatchAggregateStats(queries [][]float64, workers int) ([]float64, Stats, error)
	BatchThresholdStats(queries [][]float64, tau float64, workers int) ([]bool, Stats, error)
	BatchApproximateStats(queries [][]float64, eps float64, workers int) ([]float64, Stats, error)

	// DualTreeStats reports the shared batch-executor telemetry.
	DualTreeStats() DualTreeStats

	// CloneQuery returns a view over the same dataset with independent
	// query scratch, for use from another goroutine.
	CloneQuery() QueryEngine
}

// MutableEngine extends QueryEngine with the engine's write path. Epoch increases with every seal and compaction; Split and
// WriteTo together are the segment-shipping surface the cluster layer's
// shard splitting is built on (the moved half travels as a standard
// persistence stream of sealed segments).
type MutableEngine interface {
	QueryEngine
	// InsertID adds one weighted point and returns its engine-local id
	// (ids start at 1 and never recycle).
	InsertID(p []float64, w float64) (uint64, error)
	// InsertBulk adds many points (nil weights = unit) in one lock
	// acquisition with all-or-nothing validation.
	InsertBulk(points [][]float64, weights []float64) ([]uint64, error)
	// Delete removes the point with the given id, returning
	// ErrPointNotFound when no live point has it.
	Delete(id uint64) error
	// Epoch returns the current manifest epoch.
	Epoch() uint64
	// NextSeq returns the id the next insert will be assigned — the
	// fence below which ids may refer to inherited (pre-split) points.
	NextSeq() uint64
	// SplitPlane proposes a balanced axis cut over the live points (the
	// median of the widest dimension), for callers that want the engine to
	// choose its own kd split rule. It fails when no axis cut can separate
	// the data (empty, single point, or all points identical).
	SplitPlane() (dim int, cut float64, err error)
	// Split extracts every live point for which pred is true into a new
	// engine with the same kernel and build configuration, removing those
	// points from the receiver. Sequence numbers, insert times and decay
	// state travel with the moved points, so ids stay valid on the other
	// side.
	Split(pred func(p []float64) bool) (MutableEngine, error)
	// WriteTo serializes the engine in the versioned persistence format.
	WriteTo(w io.Writer) (int64, error)
}

// DynamicEngine is Engine under the name it had while built and streamed
// engines were two types. The benchmark harness (bench/, which no PR but a
// benchmark one may edit) pins the name; nothing else should use it.
type DynamicEngine = Engine

// CloneQuery implements QueryEngine.
func (d *Engine) CloneQuery() QueryEngine { return d.Clone() }

var _ MutableEngine = (*Engine)(nil)
