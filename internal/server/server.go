// Package server exposes a KARL engine over HTTP/JSON, so a trained model
// (e.g. an SVM's support vectors, or a KDE point set) can serve threshold
// and approximate kernel aggregation queries as a network service — the
// deployment mode of the paper's motivating applications (network
// intrusion detection, online classification).
//
// Concurrency model: engines are per-request. Each request acquires an
// engine clone from a bounded pool (clones share the indexed data but own
// their refinement scratch state), so N in-flight requests refine on N
// independent engines with no global lock anywhere on the query path.
//
// Two dataset modes share the same endpoints. New serves a static
// *karl.Engine over an immutable index. NewMutable serves a
// *karl.DynamicEngine — its segmented LSM manifest grows through POST
// /v1/insert while queries keep flowing: pooled clones re-arm themselves
// against the latest manifest epoch on their next query (an atomic
// snapshot, never a lock held across refinement), and /v1/stats reports
// how the pool tracks the advancing epoch.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"karl"
	"karl/internal/replica"
	"karl/internal/shard"
)

// lsmStats is the optional deep-introspection surface a segmented engine
// exposes beyond karl.MutableEngine: manifest shape and maintenance
// counters for /v1/info and /v1/stats. *karl.DynamicEngine provides it;
// a mutable engine without it simply reports zeros there.
type lsmStats interface {
	Segments() []karl.SegmentInfo
	MemtableLen() int
	Seals() int
	Compactions() int
	DeadRewrites() int
	DeadDrops() int
	Tombstones() int
	Deletes() int
	TTL() time.Duration
	DecayHalfLife() time.Duration
}

// Server wraps an engine with an HTTP handler. All endpoints accept and
// return JSON.
type Server struct {
	pool    *enginePool
	mux     *http.ServeMux
	met     metrics
	dims    int
	maxBody int64

	// dyn is set by NewMutable: the engine the write endpoints feed. lsm
	// is its optional introspection surface (nil when the engine lacks
	// it). Both nil for static serving.
	dyn karl.MutableEngine
	lsm lsmStats

	// rsrc is the engine's replication export surface (nil when the
	// engine is not a *karl.DynamicEngine); applier is set by
	// WithReplicaApplier when this server fronts a replication follower,
	// and gates the write endpoints until promotion.
	rsrc    replicaSource
	applier *replica.Applier

	// Sketch tier (nil pools when disabled): a coreset engine with
	// normalized error bound sketchEps serves /v1/approximate requests
	// that opt into the normalized error model (eps_norm) with a budget
	// covering the bound; everything else — tighter normalized budgets and
	// all relative-eps traffic — falls through to the full index.
	sketch    *enginePool
	sketchEps float64
	sketchLen int
}

// Option configures New.
type Option func(*config)

type config struct {
	poolSize  int
	sketchEps float64
	maxBody   int64
	applier   *replica.Applier
}

// defaultMaxBody bounds POST request bodies when WithMaxBodyBytes is not
// given: generous enough for large bulk inserts and batches, small enough
// that one oversized body cannot exhaust memory.
const defaultMaxBody int64 = 32 << 20

// WithPoolSize bounds the number of idle engine clones kept for reuse
// (default 2·GOMAXPROCS). Bursts beyond the bound still get a fresh clone
// each — the pool caps retained memory, never concurrency.
func WithPoolSize(n int) Option { return func(c *config) { c.poolSize = n } }

// WithMaxBodyBytes bounds every POST request body (default 32 MiB).
// Oversized bodies are rejected with 413 before they can exhaust memory.
func WithMaxBodyBytes(n int64) Option { return func(c *config) { c.maxBody = n } }

// WithSketchTier enables tiered serving: at construction the engine is
// sketched down to a coreset (karl.Engine.Sketch) with normalized error
// bound eps, and /v1/approximate queries that opt into the normalized
// error model (the "eps_norm" request field) with a budget at or above
// that bound are answered from the small coreset engine — the leftover
// budget eps_norm−eps drives its refinement, so the combined normalized
// error stays within the request. Tighter normalized budgets fall through
// to the full index, and relative-error ("eps") traffic never touches the
// sketch: the coreset bound is on the normalized scale and implies no
// useful relative bound for queries where F_P(q) ≪ W. Routing of
// normalized-budget queries is reported by GET /v1/stats.
func WithSketchTier(eps float64) Option { return func(c *config) { c.sketchEps = eps } }

// New builds a server around a static engine. The engine itself is never
// queried: it is the template the clone pool grows from, so the caller
// may keep using it from one other goroutine.
func New(eng *karl.Engine, opts ...Option) (*Server, error) {
	if eng == nil {
		return nil, errors.New("server: nil engine")
	}
	cfg := config{poolSize: 2 * runtime.GOMAXPROCS(0), maxBody: defaultMaxBody}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.poolSize < 1 {
		return nil, fmt.Errorf("server: pool size %d out of range", cfg.poolSize)
	}
	if cfg.maxBody < 1 {
		return nil, fmt.Errorf("server: max body bytes %d out of range", cfg.maxBody)
	}
	s := &Server{
		pool:    newEnginePool(eng, cfg.poolSize),
		mux:     http.NewServeMux(),
		dims:    eng.Dims(),
		maxBody: cfg.maxBody,
	}
	if cfg.sketchEps != 0 {
		if !isFinite(cfg.sketchEps) || cfg.sketchEps <= 0 || cfg.sketchEps >= 1 {
			return nil, fmt.Errorf("server: sketch tier eps must be in (0,1), got %v", cfg.sketchEps)
		}
		skEng, err := eng.Sketch(cfg.sketchEps)
		if err != nil {
			return nil, fmt.Errorf("server: sketch tier: %w", err)
		}
		info, _ := skEng.SketchInfo()
		s.sketch = newEnginePool(skEng, cfg.poolSize)
		s.sketchEps = info.Eps
		s.sketchLen = skEng.Len()
	}
	s.routes()
	s.warm()
	return s, nil
}

// NewMutable builds a server around a mutable (segmented) engine: the
// query endpoints of New plus POST /v1/insert, DELETE /v1/point and POST
// /v1/split, with segment and manifest epoch introspection in /v1/info
// and /v1/stats when the engine exposes it. The sketch tier is not
// supported — a static coreset cannot track a growing dataset.
func NewMutable(d karl.MutableEngine, opts ...Option) (*Server, error) {
	if d == nil {
		return nil, errors.New("server: nil engine")
	}
	cfg := config{poolSize: 2 * runtime.GOMAXPROCS(0), maxBody: defaultMaxBody}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.poolSize < 1 {
		return nil, fmt.Errorf("server: pool size %d out of range", cfg.poolSize)
	}
	if cfg.maxBody < 1 {
		return nil, fmt.Errorf("server: max body bytes %d out of range", cfg.maxBody)
	}
	if cfg.sketchEps != 0 {
		return nil, errors.New("server: sketch tier requires a static engine")
	}
	s := &Server{
		pool:    newEnginePool(d, cfg.poolSize),
		mux:     http.NewServeMux(),
		dims:    d.Dims(),
		dyn:     d,
		maxBody: cfg.maxBody,
	}
	s.lsm, _ = d.(lsmStats)
	s.applier = cfg.applier
	s.rsrc, _ = d.(replicaSource)
	if s.applier != nil && s.rsrc == nil {
		return nil, errors.New("server: replica applier requires a replicating engine")
	}
	s.routes()
	s.mux.HandleFunc("POST /v1/insert", s.handleInsert)
	s.mux.HandleFunc("DELETE /v1/point", s.handleDelete)
	s.mux.HandleFunc("POST /v1/split", s.handleSplit)
	if s.rsrc != nil {
		s.replicateRoutes()
	}
	s.warm()
	return s, nil
}

// warm seeds the clone pools with one ready clone each, so the first
// request never pays the clone cost and GET /v1/readyz reflects a pool
// that can actually serve.
func (s *Server) warm() {
	s.pool.release(s.pool.acquire())
	if s.sketch != nil {
		s.sketch.release(s.sketch.acquire())
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/info", s.handleInfo)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /v1/aggregate", s.handleAggregate)
	s.mux.HandleFunc("POST /v1/threshold", s.handleThreshold)
	s.mux.HandleFunc("POST /v1/approximate", s.handleApproximate)
	s.mux.HandleFunc("POST /v1/bounds", s.handleBounds)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// enginePool recycles engine clones over a shared dataset. Acquire never
// blocks: an empty pool clones the template, a full pool drops the
// returned clone for the GC. The channel doubles as the free list and the
// bound. For mutable engines the pool additionally tracks the highest
// manifest epoch any released clone had armed — how current the pool's
// executors are relative to the advancing dataset.
type enginePool struct {
	template    karl.QueryEngine
	idle        chan karl.QueryEngine
	clones      atomic.Int64
	servedEpoch atomic.Uint64
}

func newEnginePool(template karl.QueryEngine, size int) *enginePool {
	return &enginePool{template: template, idle: make(chan karl.QueryEngine, size)}
}

func (p *enginePool) acquire() karl.QueryEngine {
	select {
	case e := <-p.idle:
		return e
	default:
		p.clones.Add(1)
		return p.template.CloneQuery()
	}
}

func (p *enginePool) release(e karl.QueryEngine) {
	if d, ok := e.(interface{ ArmedEpoch() (uint64, bool) }); ok {
		if epoch, armed := d.ArmedEpoch(); armed {
			for {
				cur := p.servedEpoch.Load()
				if epoch <= cur || p.servedEpoch.CompareAndSwap(cur, epoch) {
					break
				}
			}
		}
	}
	select {
	case p.idle <- e:
	default:
	}
}

func (p *enginePool) stats() PoolStats {
	return PoolStats{Idle: len(p.idle), Capacity: cap(p.idle), Clones: p.clones.Load()}
}

// InfoResponse describes the served model. SketchPoints/SketchEps are set
// only when the sketch tier is enabled; Mutable/Segments only for dynamic
// serving.
type InfoResponse struct {
	Points int     `json:"points"`
	Dims   int     `json:"dims"`
	Kernel string  `json:"kernel"`
	Gamma  float64 `json:"gamma"`
	// WeightPos and WeightNeg are the dataset's per-sign weight masses
	// (Σ w_i over w_i ≥ 0 and Σ |w_i| over w_i < 0). Their sum W is the
	// shard's mass W_S that a cluster coordinator uses for ε-budget
	// allocation and degraded-mode accounting.
	WeightPos    float64 `json:"weight_pos"`
	WeightNeg    float64 `json:"weight_neg,omitempty"`
	SketchPoints int     `json:"sketch_points,omitempty"`
	SketchEps    float64 `json:"sketch_eps,omitempty"`
	Mutable      bool    `json:"mutable,omitempty"`
	Segments     int     `json:"segments,omitempty"`
	// WindowSeconds is the sliding-window TTL (0 = points never expire) and
	// HalfLifeSeconds the exponential weight-decay half-life (0 = no decay);
	// both only for dynamic serving. Tombstones is the number of pending
	// (not yet compacted-away) deletes.
	WindowSeconds   float64 `json:"window_seconds,omitempty"`
	HalfLifeSeconds float64 `json:"halflife_seconds,omitempty"`
	Tombstones      int     `json:"tombstones,omitempty"`
}

// InsertRequest is the POST /v1/insert body: either one point ("p" with
// optional weight "w", default 1) or a bulk load ("points" with optional
// parallel "weights", default all 1). Exactly one form is required.
type InsertRequest struct {
	P       []float64   `json:"p,omitempty"`
	W       *float64    `json:"w,omitempty"`
	Points  [][]float64 `json:"points,omitempty"`
	Weights []float64   `json:"weights,omitempty"`
}

// MassResponse is the engine's cardinality and per-sign weight masses as
// of a write reply — the /v1/info fields of the same names. A cluster
// coordinator installs them as the shard's mass W_S straight from the
// reply, so a routed write costs no extra /v1/info round trip.
type MassResponse struct {
	Points    int     `json:"points"`
	WeightPos float64 `json:"weight_pos"`
	WeightNeg float64 `json:"weight_neg,omitempty"`
}

// mass reads the mutable engine's current cardinality and weight masses.
func (s *Server) mass() MassResponse {
	wpos, wneg := s.dyn.WeightMass()
	return MassResponse{Points: s.dyn.Len(), WeightPos: wpos, WeightNeg: wneg}
}

// InsertResponse reports a successful insert: the assigned point IDs (in
// input order, usable with DELETE /v1/point), the dataset size and weight
// masses afterwards, and the manifest epoch (which advances when the
// insert triggered a seal or compaction). Inserts are all-or-nothing: a
// rejected request lands no points.
type InsertResponse struct {
	Inserted int      `json:"inserted"`
	IDs      []uint64 `json:"ids"`
	Len      int      `json:"len"`
	Epoch    uint64   `json:"epoch"`
	MassResponse
}

// DeleteRequest is the DELETE /v1/point body: either one point ID ("id")
// or a bulk form ("ids"). Exactly one form is required. IDs are the
// sequence numbers InsertResponse returned.
type DeleteRequest struct {
	ID  uint64   `json:"id,omitempty"`
	IDs []uint64 `json:"ids,omitempty"`
}

// DeleteResponse reports how many points were removed, the live dataset
// size and weight masses afterwards, and how many tombstones are pending
// compaction.
type DeleteResponse struct {
	Deleted    int    `json:"deleted"`
	Len        int    `json:"len"`
	Tombstones int    `json:"tombstones"`
	Epoch      uint64 `json:"epoch"`
	MassResponse
}

// DeleteErrorResponse is the body of a failed DELETE /v1/point. Bulk
// deletes are sequential, not transactional: FailedID is the id the
// request stopped at and Deleted how many ids were removed before it —
// with the masses after those removals — so a caller can resume past the
// failure without parsing the message.
type DeleteErrorResponse struct {
	Error    string `json:"error"`
	Deleted  int    `json:"deleted"`
	FailedID uint64 `json:"failed_id"`
	MassResponse
}

// QueryRequest is the shared request body; Tau is used by /threshold, Eps
// / EpsNorm by /approximate and /bounds, and Threshold by /bounds alone (a
// pointer, because there presence selects the stopping rule and τ = 0 is
// a threshold like any other).
//
// /v1/approximate supports two distinct error models, selected by which
// budget field is set (exactly one is required):
//
//   - "eps" — relative error: the response v satisfies
//     |v − F_P(q)| ≤ eps·F_P(q). Always served by the full index; the
//     sketch tier is never used for relative budgets, because the
//     coreset's bound is on the normalized scale and implies no useful
//     relative bound for queries where F_P(q) ≪ W.
//   - "eps_norm" — normalized absolute error: the response v satisfies
//     |v − F_P(q)| ≤ eps_norm·W, where W is the total weight. Must lie in
//     (0,1). When the sketch tier is enabled and eps_norm covers the
//     sketch's bound, the query is served from the coreset with the
//     leftover budget; otherwise the full index serves it at relative
//     ε = eps_norm, which is conservative since F_P(q) ≤ W.
type QueryRequest struct {
	Q       []float64 `json:"q"`
	Tau     float64   `json:"tau"`
	Eps     float64   `json:"eps"`
	EpsNorm float64   `json:"eps_norm"`
	// Threshold, on /v1/bounds only, refines with the TKAQ rule against
	// this value instead of an ε budget.
	Threshold *float64 `json:"threshold,omitempty"`
}

// BatchRequest is the POST /v1/batch body. Kind selects the query type
// ("aggregate", "threshold" or "approximate"); Tau and Eps/EpsNorm apply
// to the whole batch (see QueryRequest for the two approximate error
// models); Workers bounds the fan-out (≤ 0 selects GOMAXPROCS).
type BatchRequest struct {
	Kind    string      `json:"kind"`
	Queries [][]float64 `json:"queries"`
	Tau     float64     `json:"tau"`
	Eps     float64     `json:"eps"`
	EpsNorm float64     `json:"eps_norm"`
	Workers int         `json:"workers"`
}

// BatchResponse carries index-aligned batch results: Values for
// aggregate/approximate, Over for threshold.
type BatchResponse struct {
	Values []float64 `json:"values,omitempty"`
	Over   []bool    `json:"over,omitempty"`
}

// ValueResponse carries a numeric result.
type ValueResponse struct {
	Value float64 `json:"value"`
}

// BoolResponse carries a decision result.
type BoolResponse struct {
	Over bool `json:"over"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	k := s.pool.template.Kernel()
	wpos, wneg := s.pool.template.WeightMass()
	resp := InfoResponse{
		Points:    s.pool.template.Len(),
		Dims:      s.curDims(),
		Kernel:    k.Kind.String(),
		Gamma:     k.Gamma,
		WeightPos: wpos,
		WeightNeg: wneg,
	}
	if s.sketch != nil {
		resp.SketchPoints = s.sketchLen
		resp.SketchEps = s.sketchEps
	}
	if s.dyn != nil {
		resp.Mutable = true
		if s.lsm != nil {
			resp.Segments = len(s.lsm.Segments())
			resp.WindowSeconds = s.lsm.TTL().Seconds()
			resp.HalfLifeSeconds = s.lsm.DecayHalfLife().Seconds()
			resp.Tombstones = s.lsm.Tombstones()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		Pool: s.pool.stats(),
		Endpoints: map[string]EndpointStats{
			"aggregate":   s.met.aggregate.snapshot(),
			"threshold":   s.met.threshold.snapshot(),
			"approximate": s.met.approximate.snapshot(),
			"bounds":      s.met.bounds.snapshot(),
			"batch":       s.met.batch.snapshot(),
		},
		DualTree: s.dualTreeStats(),
	}
	if s.sketch != nil {
		resp.Tier = &TierStats{
			SketchHits:   s.met.tierHits.Load(),
			FullServes:   s.met.tierMisses.Load(),
			SketchPoints: s.sketchLen,
			SketchEps:    s.sketchEps,
			Pool:         s.sketch.stats(),
		}
	}
	if s.dyn != nil {
		resp.Endpoints["insert"] = s.met.insert.snapshot()
		resp.Endpoints["delete"] = s.met.del.snapshot()
		resp.Endpoints["split"] = s.met.split.snapshot()
		ms := &MutableStats{
			Epoch:       s.dyn.Epoch(),
			ServedEpoch: s.pool.servedEpoch.Load(),
			Points:      s.dyn.Len(),
		}
		if s.lsm != nil {
			segs := s.lsm.Segments()
			ms.Segments = len(segs)
			ms.SegmentDetail = make([]SegmentStats, len(segs))
			for i, sg := range segs {
				ms.SegmentDetail[i] = SegmentStats{ID: sg.ID, Len: sg.Len, Dead: sg.Dead}
			}
			ms.MemtableLen = s.lsm.MemtableLen()
			ms.Seals = s.lsm.Seals()
			ms.Compactions = s.lsm.Compactions()
			ms.DeadRewrites = s.lsm.DeadRewrites()
			ms.DeadDrops = s.lsm.DeadDrops()
			ms.Tombstones = s.lsm.Tombstones()
			ms.Deletes = s.lsm.Deletes()
		}
		resp.Mutable = ms
	}
	writeJSON(w, http.StatusOK, resp)
}

// dualTreeStats folds the engines' batch-executor telemetry into the
// /v1/stats block: the serving pool's counters (shared by every clone, so
// the template reads the whole pool's history) plus, when the sketch tier
// is enabled, the coreset engine's — its batches route independently.
func (s *Server) dualTreeStats() *DualTreeBatchStats {
	st := s.pool.template.DualTreeStats()
	if s.sketch != nil {
		sk := s.sketch.template.DualTreeStats()
		st.DualBatches += sk.DualBatches
		st.SequentialBatches += sk.SequentialBatches
		st.Queries += sk.Queries
		st.NodePairs += sk.NodePairs
		st.GroupCertified += sk.GroupCertified
		st.Fallbacks += sk.Fallbacks
	}
	return &DualTreeBatchStats{
		Hits:           int64(st.DualBatches),
		Misses:         int64(st.SequentialBatches),
		Queries:        int64(st.Queries),
		NodePairs:      int64(st.NodePairs),
		GroupCertified: int64(st.GroupCertified),
		Fallbacks:      int64(st.Fallbacks),
	}
}

// HealthResponse is the GET /v1/healthz body: pure liveness.
type HealthResponse struct {
	OK bool `json:"ok"`
}

// ReadyResponse is the GET /v1/readyz body: the index is loaded and the
// clone pool holds at least one warmed executor.
type ReadyResponse struct {
	Ready  bool `json:"ready"`
	Points int  `json:"points"`
	// Warm reports whether an idle clone is parked right now. Construction
	// warms the pool, so false only means every clone is currently serving
	// a request — the server is still ready.
	Warm bool `json:"warm"`
}

// handleHealthz is the liveness probe: the process is up and the handler
// chain works. It never touches an engine.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{OK: true})
}

// handleReadyz is the readiness probe the cluster coordinator (and any
// load balancer) polls before routing traffic: construction has loaded the
// index and warmed the clone pool, so a 200 here means queries will be
// served, not queued behind a build.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ReadyResponse{
		Ready:  true,
		Points: s.pool.template.Len(),
		Warm:   len(s.pool.idle) > 0 || s.pool.clones.Load() > 0,
	})
}

// BoundsResponse is the POST /v1/bounds body: the answer together with the
// final refinement bounds it terminated at. This is the bound-exchange
// wire unit of the cluster coordinator — per-shard [lb,ub] intervals sum
// to a global interval because F_P(q) = Σ_S F_S(q).
type BoundsResponse struct {
	Value float64 `json:"value"`
	LB    float64 `json:"lb"`
	UB    float64 `json:"ub"`
}

// handleBounds serves one query's value plus its lower/upper bounds. The
// budget semantics extend /v1/approximate: "eps" (relative) or "eps_norm"
// (normalized) drives refinement, and a request with NEITHER budget asks
// for the exact value (lb = ub = value) — the coordinator's final
// bound-exchange round. "threshold" instead refines with the TKAQ rule —
// stop the moment lb > threshold or ub ≤ threshold — and returns the
// certified interval it stopped at with its midpoint as the value: the
// coordinator hands each shard its own share of a cluster-wide τ.
func (s *Server) handleBounds(w http.ResponseWriter, r *http.Request) {
	m := &s.met.bounds
	m.requests.Add(1)
	var req QueryRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		fail(w, m, err)
		return
	}
	if err := s.validateBounds(req); err != nil {
		fail(w, m, err)
		return
	}
	eng := s.pool.acquire()
	var v float64
	var st karl.Stats
	var err error
	var stopped *atomic.Int64 // the stopping rule's counter; nil for exact
	budget := relativeBudget(req.Eps, req.EpsNorm)
	switch {
	case req.Threshold != nil:
		stopped = &m.thresholdStopped
		_, st, err = eng.ThresholdStats(req.Q, *req.Threshold)
		v = (st.LB + st.UB) / 2
	case budget > 0:
		stopped = &m.epsStopped
		v, st, err = eng.ApproximateStats(req.Q, budget)
	default:
		v, st, err = eng.AggregateStats(req.Q)
	}
	s.pool.release(eng)
	if err != nil {
		fail(w, m, err)
		return
	}
	m.record(1, st)
	if stopped != nil {
		stopped.Add(1)
	}
	writeJSON(w, http.StatusOK, BoundsResponse{Value: v, LB: st.LB, UB: st.UB})
}

// validateBounds checks a /v1/bounds request: like an approximate budget,
// except that omitting both budgets is allowed and means exact, and a
// threshold replaces the budget altogether.
func (s *Server) validateBounds(req QueryRequest) error {
	if err := s.checkQuery(req.Q); err != nil {
		return err
	}
	if req.Threshold != nil {
		if req.Eps != 0 || req.EpsNorm != 0 {
			return errors.New("threshold and eps/eps_norm are mutually exclusive: pick one stopping rule")
		}
		if !isFinite(*req.Threshold) {
			return fmt.Errorf("threshold must be finite, got %v", *req.Threshold)
		}
		return nil
	}
	if req.Eps == 0 && req.EpsNorm == 0 {
		return nil // exact round
	}
	return validateBudget(req.Eps, req.EpsNorm)
}

// handleInsert feeds points into the dynamic engine. Seals and compactions
// triggered by an insert happen off the query path; concurrent queries on
// pooled clones keep serving from their manifest snapshot.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	m := &s.met.insert
	m.requests.Add(1)
	if !s.writeAllowed(w) {
		m.errors.Add(1)
		return
	}
	var req InsertRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		fail(w, m, err)
		return
	}
	var points [][]float64
	var weights []float64
	switch {
	case req.P != nil && req.Points != nil:
		fail(w, m, errors.New(`"p" and "points" are mutually exclusive`))
		return
	case req.P != nil:
		if req.Weights != nil {
			fail(w, m, errors.New(`"weights" belongs to the bulk form; use "w" with "p"`))
			return
		}
		wt := 1.0
		if req.W != nil {
			wt = *req.W
		}
		points, weights = [][]float64{req.P}, []float64{wt}
	case req.Points != nil:
		if req.W != nil {
			fail(w, m, errors.New(`"w" belongs to the single form; use "weights" with "points"`))
			return
		}
		if req.Weights != nil && len(req.Weights) != len(req.Points) {
			fail(w, m, fmt.Errorf("%d weights for %d points", len(req.Weights), len(req.Points)))
			return
		}
		points, weights = req.Points, req.Weights
	default:
		fail(w, m, errors.New(`provide "p" (single point) or "points" (bulk)`))
		return
	}
	// InsertBulk validates the whole batch before touching the engine, so a
	// rejected request lands no points — no partial-batch state to report.
	ids, err := s.dyn.InsertBulk(points, weights)
	if err != nil {
		fail(w, m, err)
		return
	}
	m.record(len(ids), karl.Stats{})
	writeJSON(w, http.StatusOK, InsertResponse{
		Inserted:     len(ids),
		IDs:          ids,
		Len:          s.dyn.Len(),
		Epoch:        s.dyn.Epoch(),
		MassResponse: s.mass(),
	})
}

// handleDelete removes points by ID. Memtable points vanish physically;
// sealed points become tombstones that queries subtract exactly until a
// compaction drops the dead rows. An unknown, already-deleted, or
// coreset-compressed ID is a 404.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	m := &s.met.del
	m.requests.Add(1)
	if !s.writeAllowed(w) {
		m.errors.Add(1)
		return
	}
	var req DeleteRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		fail(w, m, err)
		return
	}
	var ids []uint64
	switch {
	case req.ID != 0 && req.IDs != nil:
		fail(w, m, errors.New(`"id" and "ids" are mutually exclusive`))
		return
	case req.ID != 0:
		ids = []uint64{req.ID}
	case len(req.IDs) != 0:
		ids = req.IDs
	default:
		fail(w, m, errors.New(`provide "id" (single) or "ids" (bulk)`))
		return
	}
	for i, id := range ids {
		if err := s.dyn.Delete(id); err != nil {
			m.errors.Add(1)
			status := errStatus(err)
			if errors.Is(err, karl.ErrPointNotFound) {
				status = http.StatusNotFound
			}
			// IDs before i are already gone; report the partial landing.
			writeJSON(w, status, DeleteErrorResponse{
				Error:        fmt.Sprintf("id %d: %v (%d of %d deleted)", id, err, i, len(ids)),
				Deleted:      i,
				FailedID:     id,
				MassResponse: s.mass(),
			})
			return
		}
	}
	m.record(len(ids), karl.Stats{})
	resp := DeleteResponse{
		Deleted:      len(ids),
		Len:          s.dyn.Len(),
		Epoch:        s.dyn.Epoch(),
		MassResponse: s.mass(),
	}
	if s.lsm != nil {
		resp.Tombstones = s.lsm.Tombstones()
	}
	writeJSON(w, http.StatusOK, resp)
}

// SplitRequest is the POST /v1/split body: the routing rule whose
// matching half should leave this shard. Kind "hash" moves the listed
// slots of an FNV slot space ("num_slots", "slots"); kind "kd" moves the
// p[dim] ≥ cut half — give "dim" and "cut" together, or omit both to let
// the engine choose a balanced plane (the median of its widest
// dimension).
type SplitRequest struct {
	Kind     string   `json:"kind"`
	Dim      *int     `json:"dim,omitempty"`
	Cut      *float64 `json:"cut,omitempty"`
	NumSlots int      `json:"num_slots,omitempty"`
	Slots    []uint64 `json:"slots,omitempty"`
}

// SplitResponse reports a completed split: the rule actually applied
// (with an engine-chosen kd plane filled in), the moved half as a
// standard engine persistence stream (base64 in JSON — segment shipping),
// and the shard afterwards. NextSeq is the id fence at the split instant:
// ids below it may live on either side, ids the two engines assign later
// never collide.
type SplitResponse struct {
	Kind        string   `json:"kind"`
	Dim         int      `json:"dim,omitempty"`
	Cut         float64  `json:"cut,omitempty"`
	NumSlots    int      `json:"num_slots,omitempty"`
	Slots       []uint64 `json:"slots,omitempty"`
	Moved       []byte   `json:"moved"`
	MovedPoints int      `json:"moved_points"`
	MovedWPos   float64  `json:"moved_wpos"`
	MovedWNeg   float64  `json:"moved_wneg,omitempty"`
	Len         int      `json:"len"`
	NextSeq     uint64   `json:"next_seq"`
	Epoch       uint64   `json:"epoch"`
}

// handleSplit extracts the half of this shard matching the posted rule
// into a serialized engine the caller installs elsewhere — the shard side
// of a coordinator-driven split. Writes block for the duration; queries
// keep serving the pre-split snapshot and switch atomically.
func (s *Server) handleSplit(w http.ResponseWriter, r *http.Request) {
	m := &s.met.split
	m.requests.Add(1)
	if !s.writeAllowed(w) {
		m.errors.Add(1)
		return
	}
	var req SplitRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		fail(w, m, err)
		return
	}
	kind, err := shard.ParseKind(req.Kind)
	if err != nil {
		fail(w, m, err)
		return
	}
	rule := shard.SplitRule{Kind: kind}
	switch kind {
	case shard.Hash:
		if req.Dim != nil || req.Cut != nil {
			fail(w, m, errors.New(`"dim"/"cut" belong to kind "kd"`))
			return
		}
		if req.NumSlots <= 0 || len(req.Slots) == 0 {
			fail(w, m, errors.New(`kind "hash" requires "num_slots" and a non-empty "slots"`))
			return
		}
		rule.NumSlots, rule.Slots = req.NumSlots, req.Slots
	case shard.KDSplit:
		if req.NumSlots != 0 || req.Slots != nil {
			fail(w, m, errors.New(`"num_slots"/"slots" belong to kind "hash"`))
			return
		}
		switch {
		case req.Dim != nil && req.Cut != nil:
			if !isFinite(*req.Cut) {
				fail(w, m, fmt.Errorf("cut must be finite, got %v", *req.Cut))
				return
			}
			rule.Dim, rule.Cut = *req.Dim, *req.Cut
		case req.Dim == nil && req.Cut == nil:
			dim, cut, err := s.dyn.SplitPlane()
			if err != nil {
				// No separating plane exists (empty, single-point or
				// degenerate data): the shard cannot split right now.
				fail(w, m, &requestError{status: http.StatusConflict, msg: err.Error()})
				return
			}
			rule.Dim, rule.Cut = dim, cut
		default:
			fail(w, m, errors.New(`give "dim" and "cut" together, or neither`))
			return
		}
	}
	pred, err := rule.Pred()
	if err != nil {
		fail(w, m, err)
		return
	}
	moved, err := s.dyn.Split(pred)
	if err != nil {
		fail(w, m, &requestError{status: http.StatusInternalServerError, msg: err.Error()})
		return
	}
	var buf bytes.Buffer
	if _, err := moved.WriteTo(&buf); err != nil {
		fail(w, m, &requestError{status: http.StatusInternalServerError, msg: err.Error()})
		return
	}
	m.record(moved.Len(), karl.Stats{})
	wpos, wneg := moved.WeightMass()
	writeJSON(w, http.StatusOK, SplitResponse{
		Kind:        kind.String(),
		Dim:         rule.Dim,
		Cut:         rule.Cut,
		NumSlots:    rule.NumSlots,
		Slots:       rule.Slots,
		Moved:       buf.Bytes(),
		MovedPoints: moved.Len(),
		MovedWPos:   wpos,
		MovedWNeg:   wneg,
		Len:         s.dyn.Len(),
		NextSeq:     moved.NextSeq(),
		Epoch:       s.dyn.Epoch(),
	})
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	m := &s.met.aggregate
	req, ok := s.decode(w, r, m, needNothing)
	if !ok {
		return
	}
	eng := s.pool.acquire()
	v, st, err := eng.AggregateStats(req.Q)
	s.pool.release(eng)
	if err != nil {
		m.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	m.record(1, st)
	writeJSON(w, http.StatusOK, ValueResponse{v})
}

func (s *Server) handleThreshold(w http.ResponseWriter, r *http.Request) {
	m := &s.met.threshold
	req, ok := s.decode(w, r, m, needTau)
	if !ok {
		return
	}
	eng := s.pool.acquire()
	over, st, err := eng.ThresholdStats(req.Q, req.Tau)
	s.pool.release(eng)
	if err != nil {
		m.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	m.record(1, st)
	writeJSON(w, http.StatusOK, BoolResponse{over})
}

func (s *Server) handleApproximate(w http.ResponseWriter, r *http.Request) {
	m := &s.met.approximate
	req, ok := s.decode(w, r, m, needEps)
	if !ok {
		return
	}
	var v float64
	var st karl.Stats
	var err error
	sketched := s.sketchServes(req.EpsNorm)
	if sketched {
		eng := s.sketch.acquire()
		v, st, err = approximateSketch(eng, req.Q, req.EpsNorm-s.sketchEps)
		s.sketch.release(eng)
	} else {
		eng := s.pool.acquire()
		v, st, err = eng.ApproximateStats(req.Q, relativeBudget(req.Eps, req.EpsNorm))
		s.pool.release(eng)
	}
	if err != nil {
		m.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	s.countTier(req.EpsNorm, sketched, 1)
	m.record(1, st)
	writeJSON(w, http.StatusOK, ValueResponse{v})
}

// sketchServes reports whether a query is served by the sketch tier: only
// normalized-budget (eps_norm) requests are eligible, and only when the
// budget covers the sketch's own bound. Relative-eps requests never route
// to the sketch — its bound is |F_P−F_S| ≤ ε·W, which for queries with
// F_P(q) ≪ W permits unbounded relative error.
func (s *Server) sketchServes(epsNorm float64) bool {
	return s.sketch != nil && epsNorm != 0 && epsNorm >= s.sketchEps
}

// relativeBudget maps a request's budget onto the full engine's relative-ε
// contract. A normalized budget is served at relative ε = eps_norm: since
// F_P(q) ≤ W, the relative bound eps_norm·F_P ≤ eps_norm·W also meets the
// normalized one (conservatively).
func relativeBudget(eps, epsNorm float64) float64 {
	if epsNorm != 0 {
		return epsNorm
	}
	return eps
}

// countTier folds n served approximate queries into the tier routing
// counters. It runs only after a successful engine call — failed requests
// are tracked by the endpoint error counters, not here — and only for
// normalized-budget queries; relative-eps traffic is never tier-eligible.
func (s *Server) countTier(epsNorm float64, sketched bool, n int) {
	if s.sketch == nil || epsNorm == 0 {
		return
	}
	if sketched {
		s.met.tierHits.Add(int64(n))
	} else {
		s.met.tierMisses.Add(int64(n))
	}
}

// approximateSketch serves one query from the coreset engine with the
// leftover budget rem = ε_norm − ε_sketch. A zero leftover degrades to the
// exact aggregate over the coreset — still a tiny scan.
func approximateSketch(eng karl.QueryEngine, q []float64, rem float64) (float64, karl.Stats, error) {
	if rem > 0 {
		return eng.ApproximateStats(q, rem)
	}
	return eng.AggregateStats(q)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	m := &s.met.batch
	m.requests.Add(1)
	var req BatchRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		fail(w, m, err)
		return
	}
	if err := s.validateBatch(req); err != nil {
		fail(w, m, err)
		return
	}
	var resp BatchResponse
	var st karl.Stats
	var err error
	sketched := false
	switch req.Kind {
	case "aggregate":
		eng := s.pool.acquire()
		resp.Values, st, err = eng.BatchAggregateStats(req.Queries, req.Workers)
		s.pool.release(eng)
	case "threshold":
		eng := s.pool.acquire()
		resp.Over, st, err = eng.BatchThresholdStats(req.Queries, req.Tau, req.Workers)
		s.pool.release(eng)
	case "approximate":
		sketched = s.sketchServes(req.EpsNorm)
		if sketched {
			eng := s.sketch.acquire()
			if rem := req.EpsNorm - s.sketchEps; rem > 0 {
				resp.Values, st, err = eng.BatchApproximateStats(req.Queries, rem, req.Workers)
			} else {
				resp.Values, st, err = eng.BatchAggregateStats(req.Queries, req.Workers)
			}
			s.sketch.release(eng)
		} else {
			eng := s.pool.acquire()
			resp.Values, st, err = eng.BatchApproximateStats(req.Queries, relativeBudget(req.Eps, req.EpsNorm), req.Workers)
			s.pool.release(eng)
		}
	}
	if err != nil {
		m.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	if req.Kind == "approximate" {
		s.countTier(req.EpsNorm, sketched, len(req.Queries))
	}
	m.record(len(req.Queries), st)
	writeJSON(w, http.StatusOK, resp)
}

// need flags which scalar parameters an endpoint consumes, so validation
// is uniform across endpoints instead of scattered through handlers.
type need int

const (
	needNothing need = iota
	needTau
	needEps
)

// decode parses and validates a single-query request body. It counts the
// request and any validation error against m.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, m *endpointMetrics, n need) (QueryRequest, bool) {
	m.requests.Add(1)
	var req QueryRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		fail(w, m, err)
		return req, false
	}
	if err := s.validate(req, n); err != nil {
		fail(w, m, err)
		return req, false
	}
	return req, true
}

// decodeBody parses a JSON request body with the server's size bound
// applied: an oversized body fails decoding with a 413-mapped error
// instead of being buffered into memory.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &requestError{
				status: http.StatusRequestEntityTooLarge,
				msg:    fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
			}
		}
		return fmt.Errorf("bad request: %v", err)
	}
	return nil
}

// requestError carries a non-default HTTP status through the error path.
type requestError struct {
	status int
	msg    string
}

func (e *requestError) Error() string { return e.msg }

// errStatus maps a handler error to its HTTP status (400 by default).
func errStatus(err error) int {
	var re *requestError
	if errors.As(err, &re) {
		return re.status
	}
	return http.StatusBadRequest
}

// fail counts err against m and writes the JSON error envelope.
func fail(w http.ResponseWriter, m *endpointMetrics, err error) {
	m.errors.Add(1)
	writeJSON(w, errStatus(err), errorResponse{err.Error()})
}

// validate applies the uniform request checks: the query vector must match
// the model dimensionality and be finite, and whichever of Tau/Eps/EpsNorm
// the endpoint consumes must be finite and in range. NaN/Inf cannot arrive
// through standard JSON, but the server does not assume its only callers
// are JSON decoders.
func (s *Server) validate(req QueryRequest, n need) error {
	if err := s.checkQuery(req.Q); err != nil {
		return err
	}
	if req.Threshold != nil {
		return errors.New(`"threshold" belongs to /v1/bounds; /v1/threshold takes "tau"`)
	}
	switch n {
	case needTau:
		if !isFinite(req.Tau) {
			return fmt.Errorf("tau must be finite, got %v", req.Tau)
		}
	case needEps:
		return validateBudget(req.Eps, req.EpsNorm)
	}
	return nil
}

// validateBudget checks an approximate query's error budget: exactly one
// of eps (relative error) and eps_norm (normalized absolute error) must be
// supplied — they are distinct contracts, not interchangeable scales.
func validateBudget(eps, epsNorm float64) error {
	switch {
	case !isFinite(eps):
		return fmt.Errorf("eps must be finite, got %v", eps)
	case !isFinite(epsNorm):
		return fmt.Errorf("eps_norm must be finite, got %v", epsNorm)
	case eps != 0 && epsNorm != 0:
		return errors.New("eps and eps_norm are mutually exclusive: pick the relative or the normalized error model")
	case epsNorm != 0:
		if epsNorm <= 0 || epsNorm >= 1 {
			return fmt.Errorf("eps_norm must be in (0,1), got %v", epsNorm)
		}
	case eps <= 0:
		return errors.New("eps must be positive (or set eps_norm for the normalized error model)")
	}
	return nil
}

// validateBatch applies the same checks to every query of a batch plus the
// batch-specific fields.
func (s *Server) validateBatch(req BatchRequest) error {
	switch req.Kind {
	case "aggregate":
	case "threshold":
		if !isFinite(req.Tau) {
			return fmt.Errorf("tau must be finite, got %v", req.Tau)
		}
	case "approximate":
		if err := validateBudget(req.Eps, req.EpsNorm); err != nil {
			return err
		}
	default:
		return fmt.Errorf("kind must be aggregate, threshold or approximate, got %q", req.Kind)
	}
	for i, q := range req.Queries {
		if err := s.checkQuery(q); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

// curDims is the dataset dimensionality right now: fixed for a static
// engine, set by the first insert for a mutable one (0 while empty).
func (s *Server) curDims() int {
	if s.dyn != nil {
		return s.dyn.Dims()
	}
	return s.dims
}

func (s *Server) checkQuery(q []float64) error {
	// An empty mutable engine has no dimensionality yet; let the engine
	// itself report emptiness.
	if dims := s.curDims(); dims != 0 && len(q) != dims {
		return fmt.Errorf("query has %d dims, model has %d", len(q), dims)
	}
	for j, v := range q {
		if !isFinite(v) {
			return fmt.Errorf("q[%d] must be finite, got %v", j, v)
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
