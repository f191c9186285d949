package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"karl"
	"karl/internal/server"
)

// The coordinator's HTTP surface is internal/server's handler set: routes,
// body cap, decoding, validation, the insert and delete forms, the error
// envelope and the per-endpoint counters live there, so a coordinator
// refuses a malformed request exactly as a single node does. This file is
// the backend that handler set serves: a thin adapter over Coordinator plus
// the bodies only a coordinator has.

// front implements server.Backend and server.Writer over a coordinator;
// which of the two a server mounts is the constructor's choice.
type front struct {
	writable bool // the write routes are mounted: /v1/info says so
	co       *Coordinator
}

// NewHTTPServer serves a coordinator read-only over the same /v1/* JSON
// surface as a single-node karl-serve, so clients scale from one box to a
// cluster without changing their request shapes. Degraded-mode answers carry
// the partial contract ("partial": true plus the covered-weight fraction); an
// indeterminate threshold verdict is a 503, not a guess. POST /v1/insert and
// DELETE /v1/point are not routed, exactly as on karl-serve -model.
func NewHTTPServer(co *Coordinator) *server.Server {
	return server.NewFront(&front{writable: false, co: co}, nil)
}

// NewWritableHTTPServer serves the read surface of NewHTTPServer plus POST
// /v1/insert and DELETE /v1/point, both routed through the cluster manifest
// to the owning member.
func NewWritableHTTPServer(co *Coordinator) *server.Server {
	f := &front{writable: true, co: co}
	return server.NewFront(f, f)
}

// ClusterInfoResponse is the coordinator's GET /v1/info body. Writable says
// whether the write routes are mounted.
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

// ClusterStatsResponse is the coordinator's GET /v1/stats body: the front
// door's request counters (Requests, Errors and Partials are their sums
// over Endpoints) and one Status — a row per member, with its mass,
// latency/error/retry/hedge counters and followers, and the epoch and
// membership-change counters those rows were read at.
type ClusterStatsResponse struct {
	Requests    int64                           `json:"requests"`
	Errors      int64                           `json:"errors"`
	Partials    int64                           `json:"partials"`
	Endpoints   map[string]server.EndpointStats `json:"endpoints"`
	Shards      []MemberStatus                  `json:"shards"`
	Epoch       uint64                          `json:"epoch,omitempty"`
	Splits      int64                           `json:"splits,omitempty"`
	Promotions  int64                           `json:"promotions,omitempty"`
	Quarantines int64                           `json:"quarantines,omitempty"`
	Rescatters  int64                           `json:"rescatters,omitempty"`
	// ExchangeStats counts Threshold/Approximate queries and their scatter
	// rounds since the process started.
	ExchangeStats
}

// ClusterInsertResponse reports a routed insert: cluster-global point ids
// in input order and the manifest epoch after the write (an insert whose
// split probe split a member reports the new epoch).
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

// ClusterDeleteResponse reports a routed delete and the manifest epoch
// after the write.
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

// ClusterReadyResponse is the coordinator's GET /v1/readyz body.
type ClusterReadyResponse struct {
	Ready  bool          `json:"ready"`
	Shards []ShardHealth `json:"shards"`
}

// Dims implements server.Backend with one atomic epoch load: it runs on
// every query.
func (f *front) Dims() int { return f.co.ep.Load().dims }

// Kernel implements server.Backend, as Dims does.
func (f *front) Kernel() string { return f.co.ep.Load().kernel }

// Info implements server.Backend from one epoch's status, without probing
// the followers.
func (f *front) Info() any {
	st := f.co.ep.Load().status()
	return ClusterInfoResponse{
		Points:   st.Points,
		Dims:     st.Dims,
		Kernel:   st.Kernel,
		Gamma:    st.Gamma,
		Shards:   len(st.Members),
		Writable: f.writable,
		Epoch:    st.Epoch,
		Splits:   st.Splits,
	}
}

// Stats implements server.Backend from one Status.
func (f *front) Stats(ctx context.Context, endpoints map[string]server.EndpointStats) any {
	st := f.co.Status(ctx)
	resp := ClusterStatsResponse{
		Endpoints: endpoints, Shards: st.Members, ExchangeStats: st.Exchange,
		Epoch: st.Epoch, Splits: st.Splits, Promotions: st.Promotions,
		Quarantines: st.Quarantines, Rescatters: st.Rescatters,
	}
	for _, ep := range endpoints {
		resp.Requests += ep.Requests
		resp.Errors += ep.Errors
		resp.Partials += ep.Partials
	}
	return resp
}

// Ready implements server.Backend by probing every shard: the coordinator
// is ready when all shards (or a replica of each) answer their readiness
// probe. A degraded cluster still serves — readiness signals full coverage
// to load balancers.
func (f *front) Ready(ctx context.Context) (any, bool) {
	shards := f.co.Health(ctx)
	ready := true
	for _, sh := range shards {
		ready = ready && sh.OK
	}
	return ClusterReadyResponse{Ready: ready, Shards: shards}, ready
}

// Aggregate implements server.Backend.
func (f *front) Aggregate(ctx context.Context, q []float64) (server.Result, error) {
	res, err := f.co.Aggregate(ctx, q)
	return res, upstream(err, nil)
}

// Threshold implements server.Backend.
func (f *front) Threshold(ctx context.Context, q []float64, tau float64) (server.Result, error) {
	res, err := f.co.Threshold(ctx, q, tau)
	return res, upstream(err, nil)
}

// Approximate implements server.Backend. A normalized budget is served at
// relative ε = eps_norm: the kernel is bounded by 1, so |F| ≤ W.
func (f *front) Approximate(ctx context.Context, q []float64, eps, epsNorm float64) (server.Result, error) {
	if epsNorm != 0 {
		eps = epsNorm
	}
	res, err := f.co.Approximate(ctx, q, eps)
	return res, upstream(err, nil)
}

// Insert implements server.Writer: points travel through the manifest to
// their owning members and the returned ids are cluster-global.
func (f *front) Insert(ctx context.Context, points [][]float64, weights []float64) (any, error) {
	ids, err := f.co.Insert(ctx, points, weights)
	if err != nil {
		if len(ids) == 0 {
			return nil, upstream(err, nil)
		}
		// Mid-batch failure with points already landed: report their ids
		// so the caller can roll back or dedup a retry.
		landed := 0
		for _, id := range ids {
			if id != 0 {
				landed++
			}
		}
		return nil, upstream(err, ClusterInsertErrorResponse{Error: err.Error(), Inserted: landed, IDs: ids})
	}
	return ClusterInsertResponse{Inserted: len(ids), IDs: ids, Epoch: f.co.ep.Load().man.Epoch}, nil
}

// Delete implements server.Writer by cluster-global id — one shard call per
// owning member — chasing split lineage when a member no longer holds a
// point.
func (f *front) Delete(ctx context.Context, ids []uint64) (any, error) {
	n, err := f.co.DeleteMany(ctx, ids)
	if err != nil {
		resp := ClusterDeleteErrorResponse{
			Error:   fmt.Sprintf("%v (%d of %d deleted)", err, n, len(ids)),
			Deleted: n,
		}
		var de *DeleteError
		if errors.As(err, &de) {
			resp.FailedID = de.ID
		}
		return nil, upstream(err, resp)
	}
	return ClusterDeleteResponse{Deleted: len(ids), Epoch: f.co.ep.Load().man.Epoch}, nil
}

// upstream gives a coordinator error its HTTP status and, when body is
// non-nil, its reply body: indeterminate verdicts, total shard loss and
// queries that kept straddling membership changes are upstream
// availability problems (503), a point no member holds is a 404, an
// aggregate that overflowed on a shard a 422, everything else is a bad request.
func upstream(err error, body any) error {
	status := http.StatusBadRequest
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrIndeterminate), errors.Is(err, ErrUnavailable), errors.Is(err, ErrEpochChanged):
		status = http.StatusServiceUnavailable
	case errors.Is(err, karl.ErrPointNotFound):
		status = http.StatusNotFound
	case errors.Is(err, errNotFinite):
		status = http.StatusUnprocessableEntity
	}
	return &server.Error{Status: status, Err: err, Body: body}
}
