package karl

import "io"

// QueryEngine is the read surface internal/server serves from: an Engine
// presents exactly this interface, so the front door is written against one
// abstraction and a test or the benchmark harness can put a decorated
// engine behind it. A cluster coordinator never holds one: its shards are
// servers it reaches over HTTP (cluster.HTTPShard).
//
// An implementation is safe for concurrent use: the server calls one value
// from every request's goroutine.
type QueryEngine interface {
	// Len is the number of live points; Dims the dataset dimensionality
	// (0 while the engine is still empty).
	Len() int
	Dims() int
	Kernel() Kernel
	// WeightMass reports pos = Σ w_i over w_i ≥ 0 and neg = Σ |w_i| over
	// w_i < 0 — the masses ε-budget allocation and degraded-mode coverage
	// accounting and the normalized error budget are stated against.
	WeightMass() (pos, neg float64)

	// The three query families of the paper, with work statistics.
	AggregateStats(q []float64) (float64, Stats, error)
	ThresholdStats(q []float64, tau float64) (bool, Stats, error)
	ApproximateStats(q []float64, eps float64) (float64, Stats, error)
	// ApproximateNormStats answers within epsNorm·W, W = pos + neg.
	ApproximateNormStats(q []float64, epsNorm float64) (float64, Stats, error)

	// Batch forms fan out over at most workers goroutines, and never more
	// than GOMAXPROCS (workers ≤ 0 selects GOMAXPROCS). Threshold and approximate batches of at least 64
	// queries over at least 256 points take the dual-tree executor
	// instead; BatchAggregateStats always goes query by query.
	BatchAggregateStats(queries [][]float64, workers int) ([]float64, Stats, error)
	BatchThresholdStats(queries [][]float64, tau float64, workers int) ([]bool, Stats, error)
	BatchApproximateStats(queries [][]float64, eps float64, workers int) ([]float64, Stats, error)
	BatchApproximateNormStats(queries [][]float64, epsNorm float64, workers int) ([]float64, Stats, error)

	// DualTreeStats reports the batch-executor telemetry.
	DualTreeStats() DualTreeStats
}

// MutableEngine extends QueryEngine with the engine's write path, its
// status and its persistence. Split and WriteTo together are the
// segment-shipping surface the cluster layer's shard splitting is built on:
// the moved half travels as a standard persistence stream of sealed
// segments.
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
	// Status reads the engine's state at one instant.
	Status() EngineStatus
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
	// WriteSnapshot is WriteTo minus the segments a follower holds: the
	// leader side of replication.
	WriteSnapshot(w io.Writer, have ReplicaHave) (int64, error)
}

// DynamicEngine is Engine under the name it had while built and streamed
// engines were two types. The benchmark harness (bench/, which no PR but a
// benchmark one may edit) pins the name; nothing else should use it.
type DynamicEngine = Engine

var _ MutableEngine = (*Engine)(nil)
