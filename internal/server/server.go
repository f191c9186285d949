// Package server exposes KARL over HTTP/JSON, so a trained model (e.g. an
// SVM's support vectors, or a KDE point set) can serve threshold and
// approximate kernel aggregation queries as a network service — the
// deployment mode of the paper's motivating applications (network
// intrusion detection, online classification).
//
// The package is the one front door of every deployment. Server registers
// the routes, caps and decodes request bodies, validates q/tau/eps/eps_norm,
// parses the insert and delete forms, writes the error envelope and counts
// requests and errors per endpoint; what answers is a Backend. Two exist:
// the pooled local engine in this package (New, NewMutable — local.go) and
// the cluster coordinator's adapter (internal/cluster), so a single node
// and a coordinator refuse the same malformed request with the same status
// and the same words. /v1/bounds, /v1/batch, /v1/split and /v1/replicate/*
// are served by the local engine only.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"

	"karl"
	"karl/internal/kernel"
	"karl/internal/replica"
)

// Result is the one answer shape of a query backend. Aggregate and
// Approximate set Value with the certified interval [LB, UB] refinement
// terminated at; Threshold sets Over. A backend that can lose part of the
// dataset reports it instead of answering silently short: Partial is set,
// Covered is the fraction of total weight mass behind the answer and Failed
// names the members that did not contribute. A whole answer has Covered 1.
type Result struct {
	Value   float64
	LB, UB  float64
	Over    bool
	Partial bool
	Covered float64
	Failed  []string
	// Work is the refinement effort behind the answer, folded into the
	// endpoint counters of /v1/stats.
	Work karl.Stats
}

// Backend answers the requests the front door has decoded and validated.
// Implementations must be safe for concurrent use.
//
// A query vector q is allocated for its request and never reused, so a
// backend may keep reading it after the call has returned: a coordinator's
// hedged shard call that lost the race is still encoding q when the handler
// is long done. (The request body it was parsed from is pooled; nothing
// handed to a backend points into it.)
type Backend interface {
	// Dims is the dataset dimensionality right now (0 while it holds no
	// point): the length every query vector is checked against.
	Dims() int
	// Kernel is the kernel family as /v1/info names it: the normalized error
	// model is refused on one that is not bounded by 1.
	Kernel() string
	Aggregate(ctx context.Context, q []float64) (Result, error)
	Threshold(ctx context.Context, q []float64, tau float64) (Result, error)
	// Approximate answers within relative error eps. epsNorm is non-zero
	// when the request chose the normalized error model (eps then already
	// carries its conservative relative equivalent), which lets a backend
	// with a sketch tier serve the query from it.
	Approximate(ctx context.Context, q []float64, eps, epsNorm float64) (Result, error)
	// Info, Ready and Stats return the GET /v1/info, /v1/readyz and
	// /v1/stats bodies. Ready also says whether to answer 200 or 503; Stats
	// receives the front door's per-endpoint counters to include.
	Info() any
	Ready(ctx context.Context) (body any, ready bool)
	Stats(ctx context.Context, endpoints map[string]EndpointStats) any
}

// Writer is the write half of a backend. Insert receives the points of
// either request form with their weights (nil = all 1), Delete the ids of
// either form; both return the reply body.
type Writer interface {
	Insert(ctx context.Context, points [][]float64, weights []float64) (any, error)
	Delete(ctx context.Context, ids []uint64) (any, error)
}

// Error is a failure that answers with something other than 400 and the
// bare envelope: Status replaces the code and Body, when set, the envelope
// (it carries an "error" field of its own next to the fields that let a
// caller resume).
type Error struct {
	Status int
	Err    error
	Body   any
}

func (e *Error) Error() string { return e.Err.Error() }

// Server is the HTTP handler set over one backend. All endpoints accept and
// return JSON.
type Server struct {
	be      Backend
	wr      Writer // nil: no write routes
	loc     *local // the backend when it is this package's engine, else nil
	mux     *http.ServeMux
	met     metrics
	maxBody int64

	// applier is set by WithReplicaApplier when this server fronts a
	// replication follower, and gates the write endpoints until promotion.
	applier *replica.Applier
}

// defaultMaxBody bounds request bodies when WithMaxBodyBytes is not given:
// generous enough for large bulk inserts and batches, small enough that
// one oversized body cannot exhaust memory.
const defaultMaxBody int64 = 32 << 20

// NewFront serves a backend that is not this package's local engine — the
// cluster coordinator — through the shared handler set. A nil Writer
// leaves the write routes unregistered.
func NewFront(be Backend, wr Writer) *Server {
	s := &Server{be: be, wr: wr, mux: http.NewServeMux(), maxBody: defaultMaxBody}
	s.mux.HandleFunc("GET /v1/info", s.handleInfo)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /v1/aggregate", s.handleAggregate)
	s.mux.HandleFunc("POST /v1/threshold", s.handleThreshold)
	s.mux.HandleFunc("POST /v1/approximate", s.handleApproximate)
	if wr != nil {
		s.mux.HandleFunc("POST /v1/insert", s.handleInsert)
		s.mux.HandleFunc("DELETE /v1/point", s.handleDelete)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// InsertRequest is the POST /v1/insert body: either one point ("p" with
// optional weight "w", default 1) or a bulk load ("points" with optional
// parallel "weights", default all 1). Exactly one form is required.
type InsertRequest struct {
	P       []float64   `json:"p,omitempty"`
	W       *float64    `json:"w,omitempty"`
	Points  [][]float64 `json:"points,omitempty"`
	Weights []float64   `json:"weights,omitempty"`
}

// DeleteRequest is the DELETE /v1/point body: either one point ID ("id")
// or a bulk form ("ids"). Exactly one form is required. IDs are the ones
// the insert reply returned.
type DeleteRequest struct {
	ID  uint64   `json:"id,omitempty"`
	IDs []uint64 `json:"ids,omitempty"`
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
//     ε = eps_norm, which is conservative since |F_P(q)| ≤ W for a kernel
//     bounded by 1. The polynomial kernel is not, and is refused (400).
type QueryRequest struct {
	Q       []float64 `json:"q"`
	Tau     float64   `json:"tau"`
	Eps     float64   `json:"eps"`
	EpsNorm float64   `json:"eps_norm"`
	// Threshold, on /v1/bounds only, refines with the TKAQ rule against
	// this value instead of an ε budget.
	Threshold *float64 `json:"threshold,omitempty"`
}

// ValueResponse carries a numeric result.
type ValueResponse struct {
	Value float64 `json:"value"`
}

// BoolResponse carries a decision result.
type BoolResponse struct {
	Over bool `json:"over"`
}

// Coverage is the degradation contract on the wire of a backend that
// scatters over members: Partial plus the covered weight fraction and the
// members that did not answer.
type Coverage struct {
	Partial bool     `json:"partial,omitempty"`
	Covered float64  `json:"covered"`
	Failed  []string `json:"failed,omitempty"`
}

// CoveredValueResponse is a value answer with its certified interval and
// the degradation contract.
type CoveredValueResponse struct {
	Value float64 `json:"value"`
	LB    float64 `json:"lb"`
	UB    float64 `json:"ub"`
	Coverage
}

// CoveredBoolResponse is a threshold verdict with the degradation contract.
type CoveredBoolResponse struct {
	Over bool `json:"over"`
	Coverage
}

// HealthResponse is the GET /v1/healthz body: pure liveness.
type HealthResponse struct {
	OK bool `json:"ok"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.be.Info())
}

// handleStats reports the backend's statistics around the front door's own
// per-endpoint counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	endpoints := map[string]EndpointStats{
		"aggregate":   s.met.aggregate.snapshot(),
		"threshold":   s.met.threshold.snapshot(),
		"approximate": s.met.approximate.snapshot(),
	}
	if s.loc != nil {
		endpoints["bounds"] = s.met.bounds.snapshot()
		endpoints["batch"] = s.met.batch.snapshot()
	}
	if s.wr != nil {
		endpoints["insert"] = s.met.insert.snapshot()
		endpoints["delete"] = s.met.del.snapshot()
	}
	if s.loc != nil && s.loc.dyn != nil {
		endpoints["split"] = s.met.split.snapshot()
	}
	writeJSON(w, http.StatusOK, s.be.Stats(r.Context(), endpoints))
}

// handleHealthz is the liveness probe: the process is up and the handler
// chain works. It never touches the backend.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{OK: true})
}

// handleReadyz is the readiness probe load balancers (and a coordinator
// over this node) poll before routing traffic: 200 means queries will be
// served in full, 503 that the backend is up but part of it is not.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body, ready := s.be.Ready(r.Context())
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	m := &s.met.aggregate
	req, ok := s.decode(w, r, m, needNothing)
	if !ok {
		return
	}
	res, err := s.be.Aggregate(r.Context(), req.Q)
	s.answer(w, m, res, err, false)
}

func (s *Server) handleThreshold(w http.ResponseWriter, r *http.Request) {
	m := &s.met.threshold
	req, ok := s.decode(w, r, m, needTau)
	if !ok {
		return
	}
	res, err := s.be.Threshold(r.Context(), req.Q, req.Tau)
	s.answer(w, m, res, err, true)
}

func (s *Server) handleApproximate(w http.ResponseWriter, r *http.Request) {
	m := &s.met.approximate
	req, ok := s.decode(w, r, m, needEps)
	if !ok {
		return
	}
	res, err := s.be.Approximate(r.Context(), req.Q, relativeBudget(req.Eps, req.EpsNorm), req.EpsNorm)
	s.answer(w, m, res, err, false)
}

// answer counts one query's outcome against m and writes it. The local
// engine's answer is always whole, so its wire carries the value or the
// verdict alone; any other backend adds the certified interval and the
// coverage contract.
func (s *Server) answer(w http.ResponseWriter, m *endpointMetrics, res Result, err error, verdict bool) {
	// The local wire carries the value alone; any other also the interval.
	if err == nil && !verdict && !(isFinite(res.Value) && (s.loc != nil || isFinite(res.LB, res.UB))) {
		err = errNotFinite
	}
	if err != nil {
		fail(w, m, err)
		return
	}
	m.record(1, res.Work)
	if res.Partial {
		m.partials.Add(1)
	}
	cov := Coverage{Partial: res.Partial, Covered: res.Covered, Failed: res.Failed}
	switch {
	case s.loc != nil && verdict:
		writeJSON(w, http.StatusOK, &BoolResponse{res.Over})
	case s.loc != nil:
		writeJSON(w, http.StatusOK, &ValueResponse{res.Value})
	case verdict:
		writeJSON(w, http.StatusOK, &CoveredBoolResponse{res.Over, cov})
	default:
		writeJSON(w, http.StatusOK, &CoveredValueResponse{res.Value, res.LB, res.UB, cov})
	}
}

// errNotFinite answers a query whose aggregate overflowed (a polynomial
// kernel far from the data): JSON has no number for it, and the status line
// must say so before a body that cannot be written.
var errNotFinite = &Error{
	Status: http.StatusUnprocessableEntity,
	Err:    errors.New("aggregate is not finite at this query"),
}

// relativeBudget maps a request's budget onto the relative-ε contract. A
// normalized budget is served at relative ε = eps_norm: for a kernel with
// |K| ≤ 1 (every family but the polynomial, which validateBudget refuses)
// |F_P(q)| ≤ W, so the relative bound eps_norm·|F_P| ≤ eps_norm·W also meets
// the normalized one (conservatively).
func relativeBudget(eps, epsNorm float64) float64 {
	if epsNorm != 0 {
		return epsNorm
	}
	return eps
}

// rows returns the points of whichever form the request uses, with their
// weights (nil = all 1). An empty "points" is no form at all, exactly like
// an empty "ids" on the delete side, so no backend ever sees one.
func (r InsertRequest) rows() ([][]float64, []float64, error) {
	switch {
	case r.P != nil && r.Points != nil:
		return nil, nil, errors.New(`"p" and "points" are mutually exclusive`)
	case r.P != nil:
		if r.Weights != nil {
			return nil, nil, errors.New(`"weights" belongs to the bulk form; use "w" with "p"`)
		}
		wt := 1.0
		if r.W != nil {
			wt = *r.W
		}
		return [][]float64{r.P}, []float64{wt}, nil
	case len(r.Points) != 0:
		if r.W != nil {
			return nil, nil, errors.New(`"w" belongs to the single form; use "weights" with "points"`)
		}
		if r.Weights != nil && len(r.Weights) != len(r.Points) {
			return nil, nil, fmt.Errorf("%d weights for %d points", len(r.Weights), len(r.Points))
		}
		return r.Points, r.Weights, nil
	}
	return nil, nil, errors.New(`provide "p" (single point) or "points" (bulk)`)
}

// ids returns the ids of whichever form the request uses.
func (r DeleteRequest) ids() ([]uint64, error) {
	switch {
	case r.ID != 0 && r.IDs != nil:
		return nil, errors.New(`"id" and "ids" are mutually exclusive`)
	case r.ID != 0:
		return []uint64{r.ID}, nil
	case len(r.IDs) != 0:
		return r.IDs, nil
	}
	return nil, errors.New(`provide "id" (single) or "ids" (bulk)`)
}

// handleInsert hands the points of either insert form to the backend's
// writer.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	s.write(w, r, &s.met.insert, &req, func() (int, any, error) {
		points, weights, err := req.rows()
		if err != nil {
			return 0, nil, err
		}
		body, err := s.wr.Insert(r.Context(), points, weights)
		return len(points), body, err
	})
}

// handleDelete hands the ids of either delete form to the backend's writer.
// An unknown or already-deleted id is a 404.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	s.write(w, r, &s.met.del, &req, func() (int, any, error) {
		ids, err := req.ids()
		if err != nil {
			return 0, nil, err
		}
		body, err := s.wr.Delete(r.Context(), ids)
		return len(ids), body, err
	})
}

// write is the skeleton of a write endpoint: count the request against m,
// refuse it on an unpromoted follower, decode the body into req, apply —
// which reports how many rows it wrote and the reply — and answer.
func (s *Server) write(w http.ResponseWriter, r *http.Request, m *endpointMetrics, req any, apply func() (int, any, error)) {
	m.requests.Add(1)
	if !s.writeAllowed(w) {
		m.errors.Add(1)
		return
	}
	if err := s.decodeBody(w, r, req); err != nil {
		fail(w, m, err)
		return
	}
	n, body, err := apply()
	if err != nil {
		fail(w, m, err)
		return
	}
	m.record(n, karl.Stats{})
	writeJSON(w, http.StatusOK, body)
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

// buffers holds the bytes of request bodies being read and of replies being
// appended. A buffer that grew past maxPooledBuffer for one large bulk body
// is dropped instead of pinning that memory.
var buffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuffer = 64 << 10

func putBuffer(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuffer {
		buf.Reset()
		buffers.Put(buf)
	}
}

// decodeBody reads the request body whole, with the server's size bound
// applied, and parses it into dst: with the wire reader when it takes the
// body, else with encoding/json. Nothing in dst points into the body.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	buf := buffers.Get().(*bytes.Buffer)
	defer putBuffer(buf)
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody))
	if readErr == nil && ReadJSON(buf.Bytes(), dst) {
		return nil
	}
	return decodeJSON(buf.Bytes(), readErr, dst)
}

// failingReader fails every Read with err.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }

// decodeJSON parses a body the wire reader did not take, and is where every
// malformed body gets its status and its words. body is what could be read
// and readErr what ended the reading early, if anything did: the decoder
// sees those bytes and then that error, so a body over the size bound fails
// with a 413-mapped error unless its syntax fails first.
func decodeJSON(body []byte, readErr error, dst any) error {
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, failingReader{readErr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		// Decode stops at the end of the first value. What follows it is
		// part of the body too.
		err = readErr
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &Error{
				Status: http.StatusRequestEntityTooLarge,
				Err:    fmt.Errorf("request body exceeds %d bytes", mbe.Limit),
			}
		}
		return fmt.Errorf("bad request: %v", err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) != 0 {
		return errors.New("bad request: unexpected data after the JSON body")
	}
	return nullNumber(body)
}

// nullNumber finds a JSON null standing where the request types hold a
// plain number: an element of a vector, a matrix row or an id list, or the
// value of one of the scalar fields below. encoding/json skips such a null,
// which would answer for 0 in its place. A null for a whole array or for an
// optional field (w, threshold, dim, cut) still means absent.
func nullNumber(body []byte) error {
	if !bytes.Contains(body, []byte("null")) {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var field string // the top-level key being walked
	var index []int  // the element position at each array depth under it
	is := func(names ...string) bool {
		return slices.ContainsFunc(names, func(n string) bool { return strings.EqualFold(field, n) })
	}
	key := false // the next top-level string is a key, not a value
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil // the end: the body has already decoded once
		}
		switch tok {
		case json.Delim('{'):
			key = true
			continue
		case json.Delim('['):
			index = append(index, 0)
			continue
		case json.Delim(']'):
			index = index[:len(index)-1]
		case nil:
			if len(index) == 2 || len(index) == 1 && !is("queries", "points") ||
				len(index) == 0 && is("tau", "eps", "eps_norm", "workers", "id", "num_slots") {
				for _, i := range index {
					field += fmt.Sprintf("[%d]", i)
				}
				return fmt.Errorf("%s must be a number, got null", field)
			}
		}
		if len(index) > 0 {
			index[len(index)-1]++
		} else if name, ok := tok.(string); ok && key {
			field, key = name, false
		} else {
			key = true
		}
	}
}

// fail counts err against m and writes its reply: 400 and the JSON error
// envelope unless the error is an *Error saying otherwise.
func fail(w http.ResponseWriter, m *endpointMetrics, err error) {
	m.errors.Add(1)
	status, body := http.StatusBadRequest, any(errorResponse{err.Error()})
	var e *Error
	if errors.As(err, &e) {
		status = e.Status
		if e.Body != nil {
			body = e.Body
		}
	}
	writeJSON(w, status, body)
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
		return s.validateBudget(req.Eps, req.EpsNorm)
	}
	return nil
}

// validateBudget checks an approximate query's error budget: exactly one
// of eps (relative error) and eps_norm (normalized absolute error) must be
// supplied — they are distinct contracts, not interchangeable scales — and
// the normalized one only exists for a kernel bounded by 1 (relativeBudget).
func (s *Server) validateBudget(eps, epsNorm float64) error {
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
		if s.be.Kernel() == kernel.Polynomial.String() {
			return errors.New("eps_norm needs a kernel bounded by 1; use eps")
		}
	case eps <= 0:
		return errors.New("eps must be positive (or set eps_norm for the normalized error model)")
	}
	return nil
}

func (s *Server) checkQuery(q []float64) error {
	// A backend that holds no point yet has no dimensionality; let it
	// report emptiness itself.
	if dims := s.be.Dims(); dims != 0 && len(q) != dims {
		return fmt.Errorf("query has %d dims, model has %d", len(q), dims)
	}
	for j, v := range q {
		if !isFinite(v) {
			return fmt.Errorf("q[%d] must be finite, got %v", j, v)
		}
	}
	return nil
}

func isFinite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// writeJSON writes a reply: with the wire writer when body is a pointer to
// one of its types (the caller has then checked that every number in it is
// finite), else with encoding/json.
func writeJSON(w http.ResponseWriter, status int, body any) {
	buf := buffers.Get().(*bytes.Buffer)
	defer putBuffer(buf)
	if b, ok := AppendJSON(buf.AvailableBuffer(), body); ok {
		buf.Write(append(b, '\n'))
	} else {
		_ = json.NewEncoder(buf).Encode(body)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}
