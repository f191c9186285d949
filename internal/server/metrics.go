package server

import (
	"sync/atomic"

	"karl"
)

// endpointMetrics accumulates per-endpoint counters with atomics, so the
// lock-free request path never serializes on a stats mutex.
type endpointMetrics struct {
	requests      atomic.Int64
	errors        atomic.Int64
	partials      atomic.Int64 // answers flagged partial (never the local engine's)
	queries       atomic.Int64 // individual queries (a batch counts each)
	iterations    atomic.Int64
	nodesExpanded atomic.Int64
	pointsScanned atomic.Int64
	// thresholdStopped and epsStopped split /v1/bounds calls by stopping
	// rule (the rest were exact); zero on every other endpoint.
	thresholdStopped atomic.Int64
	epsStopped       atomic.Int64
}

// record folds one query's work statistics into the endpoint totals.
func (m *endpointMetrics) record(n int, st karl.Stats) {
	m.queries.Add(int64(n))
	m.iterations.Add(int64(st.Iterations))
	m.nodesExpanded.Add(int64(st.NodesExpanded))
	m.pointsScanned.Add(int64(st.PointsScanned))
}

// snapshot returns a consistent-enough copy for /v1/stats (individual
// counters are read atomically; cross-counter skew under load is fine for
// monitoring).
func (m *endpointMetrics) snapshot() EndpointStats {
	return EndpointStats{
		Requests:      m.requests.Load(),
		Errors:        m.errors.Load(),
		Partials:      m.partials.Load(),
		Queries:       m.queries.Load(),
		Iterations:    m.iterations.Load(),
		NodesExpanded: m.nodesExpanded.Load(),
		PointsScanned: m.pointsScanned.Load(),

		ThresholdStopped: m.thresholdStopped.Load(),
		EpsStopped:       m.epsStopped.Load(),
	}
}

// metrics holds one counter block per endpoint.
type metrics struct {
	aggregate   endpointMetrics
	threshold   endpointMetrics
	approximate endpointMetrics
	bounds      endpointMetrics
	batch       endpointMetrics
	insert      endpointMetrics
	del         endpointMetrics
	split       endpointMetrics
}

// EndpointStats is the JSON form of one endpoint's counters.
type EndpointStats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Partials counts answers that covered only part of the dataset — a
	// coordinator's degraded mode; a single node never reports any.
	Partials      int64 `json:"partials,omitempty"`
	Queries       int64 `json:"queries"`
	Iterations    int64 `json:"iterations"`
	NodesExpanded int64 `json:"nodes_expanded"`
	PointsScanned int64 `json:"points_scanned"`
	// ThresholdStopped and EpsStopped are reported by the "bounds" block
	// only: how many of its queries refined against a threshold and how
	// many against an ε budget. The remainder were exact rounds.
	ThresholdStopped int64 `json:"threshold_stopped,omitempty"`
	EpsStopped       int64 `json:"eps_stopped,omitempty"`
}

// PoolStats describes the engine-clone pool.
type PoolStats struct {
	// Idle is the number of clones currently parked in the pool.
	Idle int `json:"idle"`
	// Capacity is the maximum number of parked clones.
	Capacity int `json:"capacity"`
	// Clones is the cumulative number of engine clones ever created.
	Clones int64 `json:"clones"`
}

// TierStats reports sketch-tier routing when WithSketchTier is enabled.
// Only normalized-budget (eps_norm) approximate queries are tier-eligible
// and counted; relative-eps traffic always uses the full index and shows
// up solely in the endpoint counters.
type TierStats struct {
	// SketchHits counts normalized-budget queries served by the coreset
	// engine.
	SketchHits int64 `json:"sketch_hits"`
	// FullServes counts normalized-budget queries whose eps_norm was
	// tighter than the sketch bound and fell through to the full index.
	FullServes int64 `json:"full_serves"`
	// SketchPoints is the coreset cardinality.
	SketchPoints int `json:"sketch_points"`
	// SketchEps is the sketch's advertised normalized error bound.
	SketchEps float64 `json:"sketch_eps"`
	// Pool describes the sketch-engine clone pool.
	Pool PoolStats `json:"pool"`
}

// MutableStats reports the segmented engine state behind a mutable
// server: manifest shape, background maintenance counters, and how the
// clone pool tracks the advancing manifest.
type MutableStats struct {
	// Epoch is the current manifest epoch (advances on seal/compaction).
	Epoch uint64 `json:"epoch"`
	// ServedEpoch is the highest epoch any pooled clone has queried — when
	// it trails Epoch, idle clones will re-arm on their next query.
	ServedEpoch uint64 `json:"served_epoch"`
	// Segments is the number of immutable segments in the manifest;
	// SegmentDetail lists them oldest first with their dead-row counts.
	Segments      int            `json:"segments"`
	SegmentDetail []SegmentStats `json:"segment_detail"`
	// MemtableLen is the number of buffered (unsealed) points.
	MemtableLen int `json:"memtable_len"`
	// Seals and Compactions count completed maintenance operations;
	// Compactions covers every segment rebuild, of which DeadRewrites were
	// single-segment rewrites of dead rows, triggered by either rule: a
	// 1/Fanout dead share, or reads that paid the rewrite's cost
	// evaluating them (a segment's dead_evals reaching its rent).
	// DeadDrops counts fully dead segments removed without a rebuild.
	Seals        int `json:"seals"`
	Compactions  int `json:"compactions"`
	DeadRewrites int `json:"dead_rewrites"`
	DeadDrops    int `json:"dead_drops"`
	// Points is the total dataset size.
	Points int `json:"points"`
	// Tombstones is the number of pending deletes not yet compacted away;
	// Deletes counts all deletions over the engine's lifetime.
	Tombstones int `json:"tombstones"`
	Deletes    int `json:"deletes"`
}

// SegmentStats is one manifest segment in /v1/stats: its stored rows, how
// many of them are deleted, awaiting physical removal, and the dead-row
// kernel evaluations reads have paid on those since its first tombstone
// (the segment is rewritten once they reach karl's rewrite cost for it).
type SegmentStats struct {
	ID        uint64 `json:"id"`
	Len       int    `json:"len"`
	Dead      int    `json:"dead"`
	DeadEvals int64  `json:"dead_evals"`
}

// DualTreeBatchStats reports how the engines behind /v1/batch executed
// their batches: a hit is a batch served by the dual-tree executor (one
// shared node-pair traversal for the whole batch), a miss one served by the
// sequential clone fan-out. The traversal counters cover hits only.
type DualTreeBatchStats struct {
	// Hits and Misses count non-empty batches by executor.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Queries counts queries inside dual-tree batches.
	Queries int64 `json:"queries"`
	// NodePairs counts (query node × reference node) group-bound
	// computations.
	NodePairs int64 `json:"node_pairs"`
	// GroupCertified counts queries answered purely by group certificates;
	// Fallbacks counts queries handed back to the sequential engine.
	GroupCertified int64 `json:"group_certified"`
	Fallbacks      int64 `json:"fallbacks"`
}

// StatsResponse is the GET /v1/stats body. Tier is present only when the
// sketch tier is enabled; Mutable only for dynamic serving.
type StatsResponse struct {
	Pool      PoolStats                `json:"pool"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
	DualTree  *DualTreeBatchStats      `json:"dual_tree,omitempty"`
	Tier      *TierStats               `json:"tier,omitempty"`
	Mutable   *MutableStats            `json:"mutable,omitempty"`
}
