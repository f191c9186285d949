package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"karl"
	"karl/internal/replica"
	"karl/internal/shard"
)

// The local backend: one engine in this process behind a clone pool.
//
// Concurrency model: engines are per-request. Each request acquires an
// engine clone from a bounded pool (clones share the indexed data but own
// their refinement scratch state), so N in-flight requests refine on N
// independent engines with no global lock anywhere on the query path.
//
// Two serving modes share the same endpoints and the same engine type. New
// mounts the read routes only, so the dataset stays what was loaded.
// NewMutable adds the write routes: the engine's segmented LSM manifest
// grows through POST /v1/insert while queries keep flowing — pooled clones
// re-arm themselves against the latest manifest epoch on their next query
// (an atomic snapshot, never a lock held across refinement), and /v1/stats
// reports how the pool tracks the advancing epoch.

// lsmStats is the optional deep-introspection surface a segmented engine
// exposes beyond karl.MutableEngine: manifest shape and maintenance
// counters for /v1/info and /v1/stats. *karl.Engine provides it; a
// mutable engine without it simply reports zeros there.
type lsmStats interface {
	Segments() []karl.SegmentInfo
	DeadEvals() map[uint64]int64
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

// local implements Backend and Writer over the pooled engine, and owns the
// state of the routes only a local engine serves (bounds, batch, split,
// replicate).
type local struct {
	pool *enginePool

	// dyn is set by NewMutable: the engine the write endpoints feed. lsm
	// is its optional introspection surface and rsrc its replication export
	// surface (nil when the engine lacks them). All nil for read-only
	// serving.
	dyn  karl.MutableEngine
	lsm  lsmStats
	rsrc replicaSource

	// Sketch tier (nil pool when disabled): a coreset engine with
	// normalized error bound sketchEps serves /v1/approximate requests
	// that opt into the normalized error model (eps_norm) with a budget
	// covering the bound; everything else — tighter normalized budgets and
	// all relative-eps traffic — falls through to the full index. Each
	// successfully served normalized-budget query counts once, as a tier
	// hit when the coreset engine served it, a miss otherwise.
	sketch     *enginePool
	sketchEps  float64
	sketchLen  int
	tierHits   atomic.Int64
	tierMisses atomic.Int64
}

// Option configures New and NewMutable.
type Option func(*config)

type config struct {
	poolSize  int
	sketchEps float64
	maxBody   int64
	applier   *replica.Applier
}

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

func newConfig(opts []Option) (config, error) {
	cfg := config{poolSize: 2 * runtime.GOMAXPROCS(0), maxBody: defaultMaxBody}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.poolSize < 1 {
		return cfg, fmt.Errorf("server: pool size %d out of range", cfg.poolSize)
	}
	if cfg.maxBody < 1 {
		return cfg, fmt.Errorf("server: max body bytes %d out of range", cfg.maxBody)
	}
	return cfg, nil
}

// New builds a read-only server around an engine: no write route is
// mounted. The engine itself is never queried: it is the template the
// clone pool grows from, so the caller may keep using it from one other
// goroutine.
func New(eng *karl.Engine, opts ...Option) (*Server, error) {
	if eng == nil {
		return nil, errors.New("server: nil engine")
	}
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	l := &local{pool: newEnginePool(eng, cfg.poolSize)}
	if cfg.sketchEps != 0 {
		if !isFinite(cfg.sketchEps) || cfg.sketchEps <= 0 || cfg.sketchEps >= 1 {
			return nil, fmt.Errorf("server: sketch tier eps must be in (0,1), got %v", cfg.sketchEps)
		}
		skEng, err := eng.Sketch(cfg.sketchEps)
		if err != nil {
			return nil, fmt.Errorf("server: sketch tier: %w", err)
		}
		info, _ := skEng.SketchInfo()
		l.sketch = newEnginePool(skEng, cfg.poolSize)
		l.sketchEps = info.Eps
		l.sketchLen = skEng.Len()
	}
	return l.serve(cfg), nil
}

// NewMutable builds a server that also accepts writes: the query endpoints
// of New plus POST /v1/insert, DELETE /v1/point and POST /v1/split, with
// segment and manifest epoch introspection in /v1/info and /v1/stats when
// the engine exposes it. The sketch tier is not supported — a coreset taken
// at construction cannot track a growing dataset.
func NewMutable(d karl.MutableEngine, opts ...Option) (*Server, error) {
	if d == nil {
		return nil, errors.New("server: nil engine")
	}
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if cfg.sketchEps != 0 {
		return nil, errors.New("server: sketch tier requires a read-only server")
	}
	l := &local{pool: newEnginePool(d, cfg.poolSize), dyn: d}
	l.lsm, _ = d.(lsmStats)
	l.rsrc, _ = d.(replicaSource)
	if cfg.applier != nil && l.rsrc == nil {
		return nil, errors.New("server: replica applier requires a replicating engine")
	}
	return l.serve(cfg), nil
}

// serve mounts the local engine on the shared handler set, adds the routes
// only a local engine has, and seeds the clone pools with one ready clone
// each, so the first request never pays the clone cost and GET /v1/readyz
// reflects a pool that can actually serve.
func (l *local) serve(cfg config) *Server {
	var wr Writer
	if l.dyn != nil {
		wr = l
	}
	s := NewFront(l, wr)
	s.loc, s.maxBody = l, cfg.maxBody
	s.mux.HandleFunc("POST /v1/bounds", s.handleBounds)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	if l.dyn != nil {
		s.applier = cfg.applier
		s.mux.HandleFunc("POST /v1/split", s.handleSplit)
		if l.rsrc != nil {
			s.replicateRoutes()
		}
	}
	l.pool.release(l.pool.acquire())
	if l.sketch != nil {
		l.sketch.release(l.sketch.acquire())
	}
	return s
}

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

// Dims implements Backend: set by the first insert into an engine that
// started empty (0 until then).
func (l *local) Dims() int { return l.pool.template.Dims() }

// Kernel implements Backend.
func (l *local) Kernel() string { return l.pool.template.Kernel().Kind.String() }

// whole wraps one engine answer as a Result: a local engine always covers
// its whole dataset.
func whole(v float64, over bool, st karl.Stats, err error) (Result, error) {
	return Result{Value: v, LB: st.LB, UB: st.UB, Over: over, Covered: 1, Work: st}, err
}

// Aggregate implements Backend.
func (l *local) Aggregate(_ context.Context, q []float64) (Result, error) {
	eng := l.pool.acquire()
	v, st, err := eng.AggregateStats(q)
	l.pool.release(eng)
	return whole(v, false, st, err)
}

// Threshold implements Backend.
func (l *local) Threshold(_ context.Context, q []float64, tau float64) (Result, error) {
	eng := l.pool.acquire()
	over, st, err := eng.ThresholdStats(q, tau)
	l.pool.release(eng)
	return whole(0, over, st, err)
}

// Approximate implements Backend.
func (l *local) Approximate(_ context.Context, q []float64, eps, epsNorm float64) (Result, error) {
	pool, budget, sketched := l.tier(eps, epsNorm)
	eng := pool.acquire()
	var v float64
	var st karl.Stats
	var err error
	if budget > 0 {
		v, st, err = eng.ApproximateStats(q, budget)
	} else {
		v, st, err = eng.AggregateStats(q)
	}
	pool.release(eng)
	if err == nil {
		l.countTier(epsNorm, sketched, 1)
	}
	return whole(v, false, st, err)
}

// tier picks the engines and the relative budget that serve an approximate
// request. The sketch tier takes it only when it carries a normalized
// budget (eps_norm) that covers the sketch's own bound, and refines with the
// leftover eps_norm − sketchEps; a zero leftover degrades to the exact
// aggregate over the coreset — still a tiny scan. Relative-eps requests
// never route to the sketch — its bound is |F_P−F_S| ≤ ε·W, which for
// queries with F_P(q) ≪ W permits unbounded relative error.
func (l *local) tier(eps, epsNorm float64) (pool *enginePool, budget float64, sketched bool) {
	if l.sketch != nil && epsNorm != 0 && epsNorm >= l.sketchEps {
		return l.sketch, epsNorm - l.sketchEps, true
	}
	return l.pool, eps, false
}

// countTier folds n served approximate queries into the tier routing
// counters. It runs only after a successful engine call — failed requests
// are tracked by the endpoint error counters, not here — and only for
// normalized-budget queries; relative-eps traffic is never tier-eligible.
func (l *local) countTier(epsNorm float64, sketched bool, n int) {
	if l.sketch == nil || epsNorm == 0 {
		return
	}
	if sketched {
		l.tierHits.Add(int64(n))
	} else {
		l.tierMisses.Add(int64(n))
	}
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

// Info implements Backend.
func (l *local) Info() any {
	k := l.pool.template.Kernel()
	wpos, wneg := l.pool.template.WeightMass()
	resp := InfoResponse{
		Points:    l.pool.template.Len(),
		Dims:      l.Dims(),
		Kernel:    k.Kind.String(),
		Gamma:     k.Gamma,
		WeightPos: wpos,
		WeightNeg: wneg,
	}
	if l.sketch != nil {
		resp.SketchPoints = l.sketchLen
		resp.SketchEps = l.sketchEps
	}
	if l.dyn != nil {
		resp.Mutable = true
		if l.lsm != nil {
			resp.Segments = len(l.lsm.Segments())
			resp.WindowSeconds = l.lsm.TTL().Seconds()
			resp.HalfLifeSeconds = l.lsm.DecayHalfLife().Seconds()
			resp.Tombstones = l.lsm.Tombstones()
		}
	}
	return resp
}

// ReadyResponse is the local GET /v1/readyz body: the index is loaded and
// the clone pool holds at least one warmed executor.
type ReadyResponse struct {
	Ready  bool `json:"ready"`
	Points int  `json:"points"`
	// Warm reports whether an idle clone is parked right now. Construction
	// warms the pool, so false only means every clone is currently serving
	// a request — the server is still ready.
	Warm bool `json:"warm"`
}

// Ready implements Backend: construction has loaded the index and warmed
// the clone pool, so queries will be served, not queued behind a build.
func (l *local) Ready(context.Context) (any, bool) {
	return ReadyResponse{
		Ready:  true,
		Points: l.pool.template.Len(),
		Warm:   len(l.pool.idle) > 0,
	}, true
}

// Stats implements Backend.
func (l *local) Stats(_ context.Context, endpoints map[string]EndpointStats) any {
	resp := StatsResponse{Pool: l.pool.stats(), Endpoints: endpoints, DualTree: l.dualTreeStats()}
	if l.sketch != nil {
		resp.Tier = &TierStats{
			SketchHits:   l.tierHits.Load(),
			FullServes:   l.tierMisses.Load(),
			SketchPoints: l.sketchLen,
			SketchEps:    l.sketchEps,
			Pool:         l.sketch.stats(),
		}
	}
	if l.dyn != nil {
		ms := &MutableStats{
			Epoch:       l.dyn.Epoch(),
			ServedEpoch: l.pool.servedEpoch.Load(),
			Points:      l.dyn.Len(),
		}
		if l.lsm != nil {
			segs, evals := l.lsm.Segments(), l.lsm.DeadEvals()
			ms.Segments = len(segs)
			ms.SegmentDetail = make([]SegmentStats, len(segs))
			for i, sg := range segs {
				ms.SegmentDetail[i] = SegmentStats{ID: sg.ID, Len: sg.Len, Dead: sg.Dead, DeadEvals: evals[sg.ID]}
			}
			ms.MemtableLen = l.lsm.MemtableLen()
			ms.Seals = l.lsm.Seals()
			ms.Compactions = l.lsm.Compactions()
			ms.DeadRewrites = l.lsm.DeadRewrites()
			ms.DeadDrops = l.lsm.DeadDrops()
			ms.Tombstones = l.lsm.Tombstones()
			ms.Deletes = l.lsm.Deletes()
		}
		resp.Mutable = ms
	}
	return resp
}

// dualTreeStats folds the engines' batch-executor telemetry into the
// /v1/stats block: the serving pool's counters (shared by every clone, so
// the template reads the whole pool's history) plus, when the sketch tier
// is enabled, the coreset engine's — its batches route independently.
func (l *local) dualTreeStats() *DualTreeBatchStats {
	st := l.pool.template.DualTreeStats()
	if l.sketch != nil {
		sk := l.sketch.template.DualTreeStats()
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
func (l *local) mass() MassResponse {
	wpos, wneg := l.dyn.WeightMass()
	return MassResponse{Points: l.dyn.Len(), WeightPos: wpos, WeightNeg: wneg}
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

// Insert implements Writer. Seals and compactions triggered by an insert
// happen off the query path; concurrent queries on pooled clones keep
// serving from their manifest snapshot. InsertBulk validates the whole
// batch before touching the engine, so a rejected request lands no points
// — no partial-batch state to report.
func (l *local) Insert(_ context.Context, points [][]float64, weights []float64) (any, error) {
	ids, err := l.dyn.InsertBulk(points, weights)
	if err != nil {
		return nil, err
	}
	return InsertResponse{
		Inserted:     len(ids),
		IDs:          ids,
		Len:          l.dyn.Len(),
		Epoch:        l.dyn.Epoch(),
		MassResponse: l.mass(),
	}, nil
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

// Delete implements Writer. Memtable points vanish physically; sealed
// points become tombstones that queries subtract exactly until a
// compaction drops the dead rows.
func (l *local) Delete(_ context.Context, ids []uint64) (any, error) {
	for i, id := range ids {
		if err := l.dyn.Delete(id); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, karl.ErrPointNotFound) {
				status = http.StatusNotFound
			}
			// IDs before i are already gone; report the partial landing.
			return nil, &Error{Status: status, Err: err, Body: DeleteErrorResponse{
				Error:        fmt.Sprintf("id %d: %v (%d of %d deleted)", id, err, i, len(ids)),
				Deleted:      i,
				FailedID:     id,
				MassResponse: l.mass(),
			}}
		}
	}
	resp := DeleteResponse{
		Deleted:      len(ids),
		Len:          l.dyn.Len(),
		Epoch:        l.dyn.Epoch(),
		MassResponse: l.mass(),
	}
	if l.lsm != nil {
		resp.Tombstones = l.lsm.Tombstones()
	}
	return resp, nil
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
	var res Result
	var err error
	var stopped *atomic.Int64 // the stopping rule's counter; nil for exact
	budget := relativeBudget(req.Eps, req.EpsNorm)
	switch {
	case req.Threshold != nil:
		stopped = &m.thresholdStopped
		res, err = s.loc.Threshold(r.Context(), req.Q, *req.Threshold)
		res.Value = (res.LB + res.UB) / 2
	case budget > 0:
		// Bounds are the coordinator's exchange unit: always the full index.
		stopped = &m.epsStopped
		res, err = s.loc.Approximate(r.Context(), req.Q, budget, 0)
	default:
		res, err = s.loc.Aggregate(r.Context(), req.Q)
	}
	if err == nil && !isFinite(res.Value, res.LB, res.UB) {
		err = errNotFinite
	}
	if err != nil {
		fail(w, m, err)
		return
	}
	m.record(1, res.Work)
	if stopped != nil {
		stopped.Add(1)
	}
	writeJSON(w, http.StatusOK, &BoundsResponse{Value: res.Value, LB: res.LB, UB: res.UB})
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
	return s.validateBudget(req.Eps, req.EpsNorm)
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

// rule validates the request into the split rule to apply, letting the
// engine choose a kd plane the request left open.
func (r SplitRequest) rule(dyn karl.MutableEngine) (shard.SplitRule, error) {
	kind, err := shard.ParseKind(r.Kind)
	if err != nil {
		return shard.SplitRule{}, err
	}
	rule := shard.SplitRule{Kind: kind}
	switch kind {
	case shard.Hash:
		if r.Dim != nil || r.Cut != nil {
			return rule, errors.New(`"dim"/"cut" belong to kind "kd"`)
		}
		if r.NumSlots <= 0 || len(r.Slots) == 0 {
			return rule, errors.New(`kind "hash" requires "num_slots" and a non-empty "slots"`)
		}
		rule.NumSlots, rule.Slots = r.NumSlots, r.Slots
	case shard.KDSplit:
		if r.NumSlots != 0 || r.Slots != nil {
			return rule, errors.New(`"num_slots"/"slots" belong to kind "hash"`)
		}
		switch {
		case r.Dim != nil && r.Cut != nil:
			if !isFinite(*r.Cut) {
				return rule, fmt.Errorf("cut must be finite, got %v", *r.Cut)
			}
			rule.Dim, rule.Cut = *r.Dim, *r.Cut
		case r.Dim == nil && r.Cut == nil:
			// No separating plane exists for empty, single-point or
			// degenerate data: the shard cannot split right now.
			if rule.Dim, rule.Cut, err = dyn.SplitPlane(); err != nil {
				return rule, &Error{Status: http.StatusConflict, Err: err}
			}
		default:
			return rule, errors.New(`give "dim" and "cut" together, or neither`)
		}
	}
	return rule, nil
}

// handleSplit extracts the half of this shard matching the posted rule
// into a serialized engine the caller installs elsewhere — the shard side
// of a coordinator-driven split. Writes block for the duration; queries
// keep serving the pre-split snapshot and switch atomically.
func (s *Server) handleSplit(w http.ResponseWriter, r *http.Request) {
	var req SplitRequest
	s.write(w, r, &s.met.split, &req, func() (int, any, error) {
		dyn := s.loc.dyn
		rule, err := req.rule(dyn)
		if err != nil {
			return 0, nil, err
		}
		pred, err := rule.Pred()
		if err != nil {
			return 0, nil, err
		}
		moved, err := dyn.Split(pred)
		var buf bytes.Buffer
		if err == nil {
			_, err = moved.WriteTo(&buf)
		}
		if err != nil {
			return 0, nil, &Error{Status: http.StatusInternalServerError, Err: err}
		}
		wpos, wneg := moved.WeightMass()
		return moved.Len(), SplitResponse{
			Kind:        rule.Kind.String(),
			Dim:         rule.Dim,
			Cut:         rule.Cut,
			NumSlots:    rule.NumSlots,
			Slots:       rule.Slots,
			Moved:       buf.Bytes(),
			MovedPoints: moved.Len(),
			MovedWPos:   wpos,
			MovedWNeg:   wneg,
			Len:         dyn.Len(),
			NextSeq:     moved.NextSeq(),
			Epoch:       dyn.Epoch(),
		}, nil
	})
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
	l := s.loc
	// Only an approximate batch has a budget, and with it a tier to pick.
	pool, budget, sketched := l.pool, 0.0, false
	if req.Kind == "approximate" {
		pool, budget, sketched = l.tier(relativeBudget(req.Eps, req.EpsNorm), req.EpsNorm)
	}
	var resp BatchResponse
	var st karl.Stats
	var err error
	eng := pool.acquire()
	switch {
	case req.Kind == "threshold":
		resp.Over, st, err = eng.BatchThresholdStats(req.Queries, req.Tau, req.Workers)
	case budget > 0:
		resp.Values, st, err = eng.BatchApproximateStats(req.Queries, budget, req.Workers)
	default:
		resp.Values, st, err = eng.BatchAggregateStats(req.Queries, req.Workers)
	}
	pool.release(eng)
	if err == nil && !isFinite(resp.Values...) {
		err = errNotFinite
	}
	if err != nil {
		fail(w, m, err)
		return
	}
	if req.Kind == "approximate" {
		l.countTier(req.EpsNorm, sketched, len(req.Queries))
	}
	m.record(len(req.Queries), st)
	writeJSON(w, http.StatusOK, &resp)
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
		if err := s.validateBudget(req.Eps, req.EpsNorm); err != nil {
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
