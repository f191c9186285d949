package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"karl"
	"karl/internal/replica"
	"karl/internal/shard"
)

// The local backend: one engine in this process.
//
// Concurrency model: every request queries the one engine value. A query
// only reads the shared index and takes its refinement scratch from the
// engine for the call, so N in-flight requests refine independently with
// no lock held across refinement.
//
// Two serving modes share the same endpoints and the same engine type. New
// mounts the read routes only, so the dataset stays what was loaded.
// NewMutable adds the write routes: the engine's segmented LSM manifest
// grows through POST /v1/insert while queries keep flowing — each query
// refines over the manifest it snapshots when it starts (an atomic
// snapshot, never a lock held across refinement).

// local implements Backend and Writer over the engine, and owns the state
// of the routes only a local engine serves (bounds, batch, split,
// replicate).
type local struct {
	eng karl.QueryEngine

	// dyn is set by NewMutable: the engine the write endpoints feed and
	// the replication routes export; nil for read-only serving.
	dyn karl.MutableEngine
}

// Option configures New and NewMutable.
type Option func(*config)

type config struct {
	maxBody int64
	applier *replica.Applier
}

// WithMaxBodyBytes bounds every POST request body (default 32 MiB).
// Oversized bodies are rejected with 413 before they can exhaust memory.
func WithMaxBodyBytes(n int64) Option { return func(c *config) { c.maxBody = n } }

func newConfig(opts []Option) (config, error) {
	cfg := config{maxBody: defaultMaxBody}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.maxBody < 1 {
		return cfg, fmt.Errorf("server: max body bytes %d out of range", cfg.maxBody)
	}
	return cfg, nil
}

// New builds a read-only server around an engine: no write route is
// mounted. The caller may keep querying the engine beside the server.
func New(eng *karl.Engine, opts ...Option) (*Server, error) {
	if eng == nil {
		return nil, errors.New("server: nil engine")
	}
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	l := &local{eng: eng}
	return l.serve(cfg), nil
}

// NewMutable builds a server that also accepts writes: the query endpoints
// of New plus POST /v1/insert, DELETE /v1/point, POST /v1/split and the
// /v1/replicate routes, with the engine's status in /v1/info and
// /v1/stats.
func NewMutable(d karl.MutableEngine, opts ...Option) (*Server, error) {
	if d == nil {
		return nil, errors.New("server: nil engine")
	}
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	l := &local{eng: d, dyn: d}
	return l.serve(cfg), nil
}

// serve mounts the local engine on the shared handler set and adds the
// routes only a local engine has.
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
		// The replication export side (status, tail) is served by leaders
		// and followers alike: a promoted follower feeds the next
		// generation, and a chained pull from an unpromoted one mirrors a
		// mirror.
		s.mux.HandleFunc("GET /v1/replicate/status", s.handleReplicateStatus)
		s.mux.HandleFunc("GET /v1/replicate/tail", s.handleReplicateTail)
		s.mux.HandleFunc("POST /v1/replicate/promote", s.handleReplicatePromote)
	}
	return s
}

// Dims implements Backend: set by the first insert into an engine that
// started empty (0 until then).
func (l *local) Dims() int { return l.eng.Dims() }

// Kernel implements Backend.
func (l *local) Kernel() string { return l.eng.Kernel().Kind.String() }

// whole wraps one engine answer as a Result: a local engine always covers
// its whole dataset.
func whole(v float64, over bool, st karl.Stats, err error) (Result, error) {
	return Result{Value: v, LB: st.LB, UB: st.UB, Over: over, Covered: 1, Work: st}, err
}

// Aggregate implements Backend.
func (l *local) Aggregate(_ context.Context, q []float64) (Result, error) {
	v, st, err := l.eng.AggregateStats(q)
	return whole(v, false, st, err)
}

// Threshold implements Backend.
func (l *local) Threshold(_ context.Context, q []float64, tau float64) (Result, error) {
	over, st, err := l.eng.ThresholdStats(q, tau)
	return whole(0, over, st, err)
}

// Approximate implements Backend.
func (l *local) Approximate(_ context.Context, q []float64, eps, epsNorm float64) (Result, error) {
	var v float64
	var st karl.Stats
	var err error
	if epsNorm != 0 {
		v, st, err = l.eng.ApproximateNormStats(q, epsNorm)
	} else {
		v, st, err = l.eng.ApproximateStats(q, eps)
	}
	return whole(v, false, st, err)
}

// InfoResponse describes the served model. Mutable/Segments are set only
// for dynamic serving.
type InfoResponse struct {
	Points int     `json:"points"`
	Dims   int     `json:"dims"`
	Kernel string  `json:"kernel"`
	Gamma  float64 `json:"gamma"`
	// WeightPos and WeightNeg are the dataset's per-sign weight masses
	// (Σ w_i over w_i ≥ 0 and Σ |w_i| over w_i < 0). Their sum W is the
	// shard's mass W_S that a cluster coordinator uses for ε-budget
	// allocation and degraded-mode accounting.
	WeightPos float64 `json:"weight_pos"`
	WeightNeg float64 `json:"weight_neg,omitempty"`
	Mutable   bool    `json:"mutable,omitempty"`
	Segments  int     `json:"segments,omitempty"`
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
	k := l.eng.Kernel()
	resp := InfoResponse{Dims: l.Dims(), Kernel: k.Kind.String(), Gamma: k.Gamma}
	if l.dyn == nil {
		resp.Points = l.eng.Len()
		resp.WeightPos, resp.WeightNeg = l.eng.WeightMass()
		return resp
	}
	st := l.dyn.Status()
	resp.Points, resp.WeightPos, resp.WeightNeg = st.Points, st.WeightPos, st.WeightNeg
	resp.Mutable, resp.Segments, resp.Tombstones = true, len(st.Segments), st.Tombstones
	resp.WindowSeconds, resp.HalfLifeSeconds = st.TTL.Seconds(), st.DecayHalfLife.Seconds()
	return resp
}

// ReadyResponse is the local GET /v1/readyz body: the index is loaded.
type ReadyResponse struct {
	Ready  bool `json:"ready"`
	Points int  `json:"points"`
}

// Ready implements Backend: construction has loaded the index, so queries
// will be served, not queued behind a build.
func (l *local) Ready(context.Context) (any, bool) {
	return ReadyResponse{Ready: true, Points: l.eng.Len()}, true
}

// Stats implements Backend.
func (l *local) Stats(_ context.Context, endpoints map[string]EndpointStats) any {
	resp := StatsResponse{Endpoints: endpoints, DualTree: l.dualTreeStats()}
	if l.dyn != nil {
		st := l.dyn.Status()
		ms := &MutableStats{
			Epoch:         st.Epoch,
			Points:        st.Points,
			Segments:      len(st.Segments),
			SegmentDetail: make([]SegmentStats, len(st.Segments)),
			MemtableLen:   st.MemtableLen,
			Seals:         st.Seals,
			Compactions:   st.Compactions,
			DeadRewrites:  st.DeadRewrites,
			DeadDrops:     st.DeadDrops,
			Tombstones:    st.Tombstones,
			Deletes:       st.Deletes,
		}
		for i, sg := range st.Segments {
			ms.SegmentDetail[i] = SegmentStats{ID: sg.ID, Len: sg.Len, Dead: sg.Dead, DeadEvals: st.DeadEvals[i]}
		}
		resp.Mutable = ms
	}
	return resp
}

// dualTreeStats is the engine's batch-executor telemetry as the /v1/stats
// block.
func (l *local) dualTreeStats() *DualTreeBatchStats {
	st := l.eng.DualTreeStats()
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

// massOf is the cardinality and weight masses of one status reading.
func massOf(st karl.EngineStatus) MassResponse {
	return MassResponse{Points: st.Points, WeightPos: st.WeightPos, WeightNeg: st.WeightNeg}
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
// happen off the query path; concurrent queries keep serving from their
// manifest snapshot. InsertBulk validates the whole
// batch before touching the engine, so a rejected request lands no points
// — no partial-batch state to report.
func (l *local) Insert(_ context.Context, points [][]float64, weights []float64) (any, error) {
	ids, err := l.dyn.InsertBulk(points, weights)
	if err != nil {
		return nil, err
	}
	st := l.dyn.Status()
	return &InsertResponse{
		Inserted:     len(ids),
		IDs:          ids,
		Len:          st.Points,
		Epoch:        st.Epoch,
		MassResponse: massOf(st),
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
				MassResponse: massOf(l.dyn.Status()),
			}}
		}
	}
	st := l.dyn.Status()
	return DeleteResponse{
		Deleted:      len(ids),
		Len:          st.Points,
		Tombstones:   st.Tombstones,
		Epoch:        st.Epoch,
		MassResponse: massOf(st),
	}, nil
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
	if err := s.decodeBody(r, &req); err != nil {
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
	switch {
	case req.Threshold != nil:
		stopped = &m.thresholdStopped
		res, err = s.loc.Threshold(r.Context(), req.Q, *req.Threshold)
		res.Value = (res.LB + res.UB) / 2
	case req.Eps != 0 || req.EpsNorm != 0:
		stopped = &m.epsStopped
		res, err = s.loc.Approximate(r.Context(), req.Q, req.Eps, req.EpsNorm)
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
		ms, st := moved.Status(), dyn.Status()
		return ms.Points, SplitResponse{
			Kind:        rule.Kind.String(),
			Dim:         rule.Dim,
			Cut:         rule.Cut,
			NumSlots:    rule.NumSlots,
			Slots:       rule.Slots,
			Moved:       buf.Bytes(),
			MovedPoints: ms.Points,
			MovedWPos:   ms.WeightPos,
			MovedWNeg:   ms.WeightNeg,
			Len:         st.Points,
			NextSeq:     ms.NextSeq,
			Epoch:       st.Epoch,
		}, nil
	})
}

// BatchRequest is the POST /v1/batch body. Kind selects the query type
// ("aggregate", "threshold" or "approximate"); Tau and Eps/EpsNorm apply
// to the whole batch (see QueryRequest for the two approximate error
// models); Workers bounds the fan-out, which never exceeds GOMAXPROCS
// (≤ 0 selects GOMAXPROCS).
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
	if err := s.decodeBody(r, &req); err != nil {
		fail(w, m, err)
		return
	}
	if err := s.validateBatch(req); err != nil {
		fail(w, m, err)
		return
	}
	eng := s.loc.eng
	var resp BatchResponse
	var st karl.Stats
	var err error
	switch {
	case req.Kind == "threshold":
		resp.Over, st, err = eng.BatchThresholdStats(req.Queries, req.Tau, req.Workers)
	case req.Kind == "aggregate":
		resp.Values, st, err = eng.BatchAggregateStats(req.Queries, req.Workers)
	case req.EpsNorm != 0:
		resp.Values, st, err = eng.BatchApproximateNormStats(req.Queries, req.EpsNorm, req.Workers)
	default:
		resp.Values, st, err = eng.BatchApproximateStats(req.Queries, req.Eps, req.Workers)
	}
	if err == nil && !isFinite(resp.Values...) {
		err = errNotFinite
	}
	if err != nil {
		fail(w, m, err)
		return
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
