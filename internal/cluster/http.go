package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"

	"karl"
	"karl/internal/server"
)

// QueryCoordinator is the read surface the HTTP facade serves. Both the
// fixed-membership Coordinator and the WritableCoordinator implement it,
// so one facade covers static and writable clusters.
type QueryCoordinator interface {
	Dims() int
	Points() int
	KernelName() string
	Gamma() float64
	NumShards() int
	Stats() []ShardStats
	Exchange() ExchangeStats
	Health(ctx context.Context) []ShardHealth
	Aggregate(ctx context.Context, q []float64) (Result, error)
	Threshold(ctx context.Context, q []float64, tau float64) (ThresholdResult, error)
	Approximate(ctx context.Context, q []float64, eps float64) (Result, error)
}

// HTTPServer exposes a coordinator over the same /v1/* JSON surface as a
// single-node karl-serve, so clients scale from one box to a cluster
// without changing their request shapes. Degraded-mode answers carry the
// partial contract ("partial": true plus the covered-weight fraction); an
// indeterminate threshold verdict is a 503, not a guess.
type HTTPServer struct {
	co      QueryCoordinator
	wco     *WritableCoordinator // non-nil for writable clusters
	mux     *http.ServeMux
	maxBody int64

	requests atomic.Int64
	errors   atomic.Int64
	partials atomic.Int64
}

const defaultMaxBody = 32 << 20

// NewHTTPServer wraps a coordinator in an HTTP handler.
func NewHTTPServer(co QueryCoordinator) *HTTPServer {
	s := &HTTPServer{co: co, mux: http.NewServeMux(), maxBody: defaultMaxBody}
	s.mux.HandleFunc("GET /v1/info", s.handleInfo)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /v1/aggregate", s.handleAggregate)
	s.mux.HandleFunc("POST /v1/threshold", s.handleThreshold)
	s.mux.HandleFunc("POST /v1/approximate", s.handleApproximate)
	return s
}

// NewWritableHTTPServer wraps a writable coordinator: the read surface of
// NewHTTPServer plus POST /v1/insert and DELETE /v1/point, both routed
// through the cluster manifest to the owning member.
func NewWritableHTTPServer(co *WritableCoordinator) *HTTPServer {
	s := NewHTTPServer(co)
	s.wco = co
	s.mux.HandleFunc("POST /v1/insert", s.handleInsert)
	s.mux.HandleFunc("DELETE /v1/point", s.handleDelete)
	return s
}

// ServeHTTP implements http.Handler.
func (s *HTTPServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ClusterInfoResponse is the coordinator's GET /v1/info body. Writable,
// Epoch and Splits are set only for writable clusters.
type ClusterInfoResponse struct {
	Points   int     `json:"points"`
	Dims     int     `json:"dims"`
	Kernel   string  `json:"kernel"`
	Gamma    float64 `json:"gamma"`
	Shards   int     `json:"shards"`
	Writable bool    `json:"writable,omitempty"`
	Epoch    uint64  `json:"epoch,omitempty"`
	Splits   int64   `json:"splits,omitempty"`
}

// ClusterStatsResponse is the coordinator's GET /v1/stats body:
// coordinator-level request counters plus per-shard latency/error/
// retry/hedge counters. Epoch, Splits and Rescatters are reported only
// for writable clusters.
type ClusterStatsResponse struct {
	Requests   int64        `json:"requests"`
	Errors     int64        `json:"errors"`
	Partials   int64        `json:"partials"`
	Shards     []ShardStats `json:"shards"`
	Epoch      uint64       `json:"epoch,omitempty"`
	Splits     int64        `json:"splits,omitempty"`
	Rescatters int64        `json:"rescatters,omitempty"`
	// ExchangeStats counts Threshold/Approximate queries and their scatter
	// rounds since the process started.
	ExchangeStats
	// Cluster is the writable coordinator's membership/replication block:
	// per-member role, quarantine state and per-follower replication lag,
	// plus promotion and failover counters.
	Cluster *ClusterStatus `json:"cluster,omitempty"`
}

// ClusterInsertResponse reports a routed insert: cluster-global point ids
// in input order and the manifest epoch the insert landed under.
type ClusterInsertResponse struct {
	Inserted int      `json:"inserted"`
	IDs      []uint64 `json:"ids"`
	Epoch    uint64   `json:"epoch"`
}

// ClusterInsertErrorResponse reports an insert that failed mid-batch: the
// cross-member request is not transactional, so some points may already
// have landed. IDs is index-aligned with the request points; a non-zero
// entry is the cluster-global id of a point that DID land (0 is never a
// valid id), so the caller can delete the orphans or skip them on retry
// instead of duplicating them.
type ClusterInsertErrorResponse struct {
	Error    string   `json:"error"`
	Inserted int      `json:"inserted"`
	IDs      []uint64 `json:"ids"`
}

// ClusterDeleteResponse reports a routed delete.
type ClusterDeleteResponse struct {
	Deleted int    `json:"deleted"`
	Epoch   uint64 `json:"epoch"`
}

// ClusterDeleteErrorResponse reports a routed delete that stopped early,
// in the single-node server's shape: FailedID is the cluster-global id the
// request stopped at and Deleted how many points were removed — ids are
// deleted member by member, so those are not a prefix of the request.
type ClusterDeleteErrorResponse struct {
	Error    string `json:"error"`
	Deleted  int    `json:"deleted"`
	FailedID uint64 `json:"failed_id"`
}

// ClusterValueResponse is a value answer plus the degradation contract.
type ClusterValueResponse struct {
	Value   float64  `json:"value"`
	LB      float64  `json:"lb"`
	UB      float64  `json:"ub"`
	Partial bool     `json:"partial,omitempty"`
	Covered float64  `json:"covered"`
	Failed  []string `json:"failed,omitempty"`
}

// ClusterBoolResponse is a threshold verdict plus the degradation
// contract.
type ClusterBoolResponse struct {
	Over    bool     `json:"over"`
	Partial bool     `json:"partial,omitempty"`
	Covered float64  `json:"covered"`
	Failed  []string `json:"failed,omitempty"`
}

// ClusterReadyResponse is the coordinator's GET /v1/readyz body.
type ClusterReadyResponse struct {
	Ready  bool          `json:"ready"`
	Shards []ShardHealth `json:"shards"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *HTTPServer) fail(w http.ResponseWriter, status int, err error) {
	s.errors.Add(1)
	writeJSON(w, status, errorResponse{err.Error()})
}

// decode parses a JSON body under the size cap.
func (s *HTTPServer) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return fmt.Errorf("request body exceeds %d bytes", s.maxBody)
		}
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

func (s *HTTPServer) handleInfo(w http.ResponseWriter, _ *http.Request) {
	s.requests.Add(1)
	resp := ClusterInfoResponse{
		Points: s.co.Points(),
		Dims:   s.co.Dims(),
		Kernel: s.co.KernelName(),
		Gamma:  s.co.Gamma(),
		Shards: s.co.NumShards(),
	}
	if s.wco != nil {
		resp.Writable = true
		resp.Epoch = s.wco.Epoch()
		resp.Splits = s.wco.Splits()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *HTTPServer) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := ClusterStatsResponse{
		Requests:      s.requests.Load(),
		Errors:        s.errors.Load(),
		Partials:      s.partials.Load(),
		Shards:        s.co.Stats(),
		ExchangeStats: s.co.Exchange(),
	}
	if s.wco != nil {
		resp.Epoch = s.wco.Epoch()
		resp.Splits = s.wco.Splits()
		resp.Rescatters = s.wco.Rescatters()
		cs := s.wco.ClusterStatus(r.Context())
		resp.Cluster = &cs
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleInsert routes points through the manifest to their owning
// members. The request body is the single-node InsertRequest (one point
// or bulk); the returned ids are cluster-global.
func (s *HTTPServer) handleInsert(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req server.InsertRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var points [][]float64
	var weights []float64
	switch {
	case req.P != nil && req.Points != nil:
		s.fail(w, http.StatusBadRequest, errors.New(`"p" and "points" are mutually exclusive`))
		return
	case req.P != nil:
		wt := 1.0
		if req.W != nil {
			wt = *req.W
		}
		points, weights = [][]float64{req.P}, []float64{wt}
	case req.Points != nil:
		if req.Weights != nil && len(req.Weights) != len(req.Points) {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("%d weights for %d points", len(req.Weights), len(req.Points)))
			return
		}
		points, weights = req.Points, req.Weights
	default:
		s.fail(w, http.StatusBadRequest, errors.New(`provide "p" (single point) or "points" (bulk)`))
		return
	}
	ids, err := s.wco.Insert(r.Context(), points, weights)
	if err != nil {
		if len(ids) > 0 {
			// Mid-batch failure with points already landed: report their
			// ids so the caller can roll back or dedup a retry.
			landed := 0
			for _, id := range ids {
				if id != 0 {
					landed++
				}
			}
			s.errors.Add(1)
			writeJSON(w, s.queryStatus(err), ClusterInsertErrorResponse{
				Error: err.Error(), Inserted: landed, IDs: ids,
			})
			return
		}
		s.fail(w, s.queryStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ClusterInsertResponse{
		Inserted: len(ids),
		IDs:      ids,
		Epoch:    s.wco.Epoch(),
	})
}

// handleDelete routes deletes by cluster-global id — one shard call per
// owning member — chasing split lineage when a member no longer holds a
// point.
func (s *HTTPServer) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req server.DeleteRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var ids []uint64
	switch {
	case req.ID != 0 && req.IDs != nil:
		s.fail(w, http.StatusBadRequest, errors.New(`"id" and "ids" are mutually exclusive`))
		return
	case req.ID != 0:
		ids = []uint64{req.ID}
	case len(req.IDs) != 0:
		ids = req.IDs
	default:
		s.fail(w, http.StatusBadRequest, errors.New(`provide "id" (single) or "ids" (bulk)`))
		return
	}
	if n, err := s.wco.DeleteMany(r.Context(), ids); err != nil {
		status := s.queryStatus(err)
		if errors.Is(err, karl.ErrPointNotFound) {
			status = http.StatusNotFound
		}
		resp := ClusterDeleteErrorResponse{
			Error:   fmt.Sprintf("%v (%d of %d deleted)", err, n, len(ids)),
			Deleted: n,
		}
		var de *DeleteError
		if errors.As(err, &de) {
			resp.FailedID = de.ID
		}
		s.errors.Add(1)
		writeJSON(w, status, resp)
		return
	}
	writeJSON(w, http.StatusOK, ClusterDeleteResponse{Deleted: len(ids), Epoch: s.wco.Epoch()})
}

func (s *HTTPServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, server.HealthResponse{OK: true})
}

// handleReadyz probes every shard; the coordinator is ready when all
// shards (or a replica of each) answer their readiness probe. A degraded
// cluster still serves — readiness signals full coverage to load
// balancers.
func (s *HTTPServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	shards := s.co.Health(r.Context())
	ready := true
	for _, sh := range shards {
		ready = ready && sh.OK
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, ClusterReadyResponse{Ready: ready, Shards: shards})
}

func (s *HTTPServer) handleAggregate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req server.QueryRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.co.Aggregate(r.Context(), req.Q)
	if err != nil {
		s.fail(w, s.queryStatus(err), err)
		return
	}
	s.respond(w, res)
}

func (s *HTTPServer) handleThreshold(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req server.QueryRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.co.Threshold(r.Context(), req.Q, req.Tau)
	if err != nil {
		s.fail(w, s.queryStatus(err), err)
		return
	}
	if res.Partial {
		s.partials.Add(1)
	}
	writeJSON(w, http.StatusOK, ClusterBoolResponse{
		Over:    res.Over,
		Partial: res.Partial,
		Covered: res.Covered,
		Failed:  res.Failed,
	})
}

func (s *HTTPServer) handleApproximate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req server.QueryRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := validateBudget(req.Eps, req.EpsNorm); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	// A normalized budget maps conservatively onto the relative contract,
	// mirroring the single-node server: F_P ≤ W makes relative ε at
	// eps_norm at least as tight as the normalized bound.
	budget := req.Eps
	if req.EpsNorm != 0 {
		budget = req.EpsNorm
	}
	res, err := s.co.Approximate(r.Context(), req.Q, budget)
	if err != nil {
		s.fail(w, s.queryStatus(err), err)
		return
	}
	s.respond(w, res)
}

func (s *HTTPServer) respond(w http.ResponseWriter, res Result) {
	if res.Partial {
		s.partials.Add(1)
	}
	writeJSON(w, http.StatusOK, ClusterValueResponse{
		Value:   res.Value,
		LB:      res.LB,
		UB:      res.UB,
		Partial: res.Partial,
		Covered: res.Covered,
		Failed:  res.Failed,
	})
}

// queryStatus maps coordinator errors to HTTP statuses: indeterminate
// verdicts, total shard loss, and queries that kept straddling membership
// changes are upstream availability problems (503), everything else is a
// bad request.
func (s *HTTPServer) queryStatus(err error) int {
	if errors.Is(err, ErrIndeterminate) || errors.Is(err, ErrUnavailable) || errors.Is(err, ErrEpochChanged) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// validateBudget mirrors the single-node server's approximate-budget
// rules: exactly one of the two error models, in range.
func validateBudget(eps, epsNorm float64) error {
	switch {
	case math.IsNaN(eps) || math.IsInf(eps, 0):
		return fmt.Errorf("eps must be finite, got %v", eps)
	case math.IsNaN(epsNorm) || math.IsInf(epsNorm, 0):
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
