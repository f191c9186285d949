// Package cluster is the horizontal-scaling layer: a coordinator that
// answers kernel aggregation queries by scatter-gather over N shard
// engines, each holding one slice of a partitioned dataset
// (internal/shard, karl shard).
//
// The layer leans on the paper's structure instead of treating shards as
// black boxes. Kernel aggregation is additively decomposable,
// F_P(q) = Σ_S F_S(q), and KARL's refinement produces certified per-shard
// intervals [lb_S, ub_S] ∋ F_S(q) — so per-shard intervals SUM to a
// certified global interval, exactly as core.Forest composes segment
// bounds inside one process. The coordinator therefore runs the paper's
// termination tests on Σ lb_S and Σ ub_S: a threshold query stops the
// moment Σ lb > τ or Σ ub ≤ τ (cancelling outstanding shard work), and an
// approximate query refines adaptively, allocating the global ε-budget
// across shards proportional to their weight mass W_S and leaving already
// tight shards alone.
//
// A shard is a karl-serve front door (internal/server) and HTTPShard is the
// one ShardClient that reaches it: JSON over the /v1/* endpoints (POST
// /v1/bounds is the bound-exchange unit), each call driven from the calling
// goroutine over a pooled connection (syncTransport). The client interfaces
// exist for decorators — fault injection, counting, tracing — around it.
// Robustness is first-class: per-shard timeouts, one retry with backoff,
// hedged requests to a replica after a latency percentile, and a degraded
// mode that serves explicit partial results when a shard is down.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"karl"
	"karl/internal/server"
	"karl/internal/shard"
)

// ShardInfo describes one shard's slice of the dataset: cardinality,
// dimensionality, kernel identity, and the per-sign weight masses the
// coordinator's ε-budget allocation and degraded-mode accounting need.
type ShardInfo struct {
	Points int     `json:"points"`
	Dims   int     `json:"dims"`
	Kernel string  `json:"kernel"`
	Gamma  float64 `json:"gamma"`
	WPos   float64 `json:"weight_pos"`
	WNeg   float64 `json:"weight_neg"`
}

// Weight returns the shard's total weight mass W_S = W⁺ + W⁻.
func (i ShardInfo) Weight() float64 { return i.WPos + i.WNeg }

// Bounds is one bound-exchange answer: the shard's current estimate of
// F_S(q) together with the certified interval refinement terminated at —
// the POST /v1/bounds body itself.
type Bounds = server.BoundsResponse

// ShardClient is the transport interface the coordinator fans out over.
// Implementations must be safe for concurrent use — the coordinator issues
// hedged and parallel calls against one client — and every method must
// return promptly once its ctx ends: a hedge that wins, a verdict reached
// early or an attempt timeout ends a call by cancelling its ctx, and the
// coordinator waits for a primary call on its own goroutine. HTTPShard
// does, through syncTransport's connection deadline.
type ShardClient interface {
	// Name identifies the shard in stats and error messages.
	Name() string
	// Info describes the shard's dataset.
	Info(ctx context.Context) (ShardInfo, error)
	// Aggregate computes the shard's exact contribution F_S(q).
	Aggregate(ctx context.Context, q []float64) (float64, error)
	// Bounds refines F_S(q) to the given relative budget and returns the
	// value with its certified interval; eps <= 0 requests the exact value
	// (lb = ub = value).
	Bounds(ctx context.Context, q []float64, eps float64) (Bounds, error)
	// ThresholdBounds refines F_S(q) with the paper's TKAQ rule against tau
	// — stop the moment lb > tau or ub ≤ tau — and returns the certified
	// interval it stopped at, with the midpoint as the value. tau is the
	// shard's own share of a cluster-wide threshold (Coordinator.Threshold).
	ThresholdBounds(ctx context.Context, q []float64, tau float64) (Bounds, error)
	// Healthy probes shard readiness (GET /v1/readyz for remote shards).
	Healthy(ctx context.Context) error
}

// SplitResult is one completed shard split as seen by the coordinator:
// the rule actually applied (with any shard-chosen kd plane filled in),
// the moved half as an engine persistence stream ready to install
// elsewhere, and the id fence at the split instant — the new member's
// BaseSeq, below which ids may refer to inherited points.
type SplitResult struct {
	Rule   shard.SplitRule
	Moved  []byte
	Fence  uint64
	Points int
	// WPos/WNeg are the moved half's weight masses — the new member's
	// advisory mass for coverage accounting when it cannot be spawned.
	WPos, WNeg float64
}

// MutableShardClient extends ShardClient with the write path of a
// writable shard: routed inserts, deletes by engine-local id, and the
// shard side of a split (segment shipping).
type MutableShardClient interface {
	ShardClient
	// Insert adds points (nil weights = unit) and returns their
	// engine-local ids, in input order.
	Insert(ctx context.Context, points [][]float64, weights []float64) ([]uint64, error)
	// Delete removes the point with the given engine-local id. A missing
	// id reports karl.ErrPointNotFound (wrapped), which the coordinator's
	// lineage fallback relies on.
	Delete(ctx context.Context, id uint64) error
	// DeleteMany removes the given engine-local ids in order and stops at
	// the first failure. It returns how many were removed, so on an error
	// ids[n] is the id that failed (karl.ErrPointNotFound, wrapped, when the
	// shard does not hold it). A failure that carries no reply from the
	// shard reports n = 0: how many ids landed is then unknown.
	DeleteMany(ctx context.Context, ids []uint64) (int, error)
	// WriteMass returns the shard's mass as carried by the reply to the
	// latest write through this client (Insert, Delete, DeleteMany), and
	// false while there has been none. The writable coordinator serializes
	// its writes, so right after one returns this is that write's reply and
	// refreshing the member's mass costs no Info round trip.
	WriteMass() (server.MassResponse, bool)
	// SplitOut extracts the half matching the rule into a serialized
	// engine. A kd shard chooses its own balanced plane; the returned Rule
	// is always the one actually applied.
	SplitOut(ctx context.Context, rule shard.SplitRule) (SplitResult, error)
}

// HTTPShard speaks to a remote karl-serve instance over its JSON /v1/*
// endpoints, reusing the server's request types on the wire.
type HTTPShard struct {
	base string
	hc   *http.Client
	// mass is the shard's mass from the latest write reply (WriteMass).
	mass atomic.Pointer[server.MassResponse]
}

// NewHTTPShard builds a client for a karl-serve base URL (e.g.
// "http://host:8080") over its own syncTransport: connections stay alive
// across the coordinator's scatter-gather rounds and every call runs on
// the goroutine that made it.
func NewHTTPShard(baseURL string) *HTTPShard {
	return NewHTTPShardClient(baseURL, &http.Client{Transport: &syncTransport{}})
}

// NewHTTPShardClient builds a client with a caller-supplied http.Client
// (custom transports, test instrumentation).
func NewHTTPShardClient(baseURL string, hc *http.Client) *HTTPShard {
	return &HTTPShard{base: baseURL, hc: hc}
}

// Name implements ShardClient: the base URL identifies the shard.
func (s *HTTPShard) Name() string { return s.base }

// Info implements ShardClient via GET /v1/info: ShardInfo's tags pick the
// fields it needs out of that body.
func (s *HTTPShard) Info(ctx context.Context) (ShardInfo, error) {
	var info ShardInfo
	err := s.get(ctx, "/v1/info", &info)
	return info, err
}

// Healthy implements ShardClient via GET /v1/readyz.
func (s *HTTPShard) Healthy(ctx context.Context) error {
	var resp server.ReadyResponse
	if err := s.get(ctx, "/v1/readyz", &resp); err != nil {
		return err
	}
	if !resp.Ready {
		return fmt.Errorf("cluster: shard %s not ready", s.base)
	}
	return nil
}

// Aggregate implements ShardClient via POST /v1/aggregate.
func (s *HTTPShard) Aggregate(ctx context.Context, q []float64) (float64, error) {
	var resp server.ValueResponse
	if err := s.post(ctx, "/v1/aggregate", &server.QueryRequest{Q: q}, &resp); err != nil {
		return 0, err
	}
	return resp.Value, nil
}

// Bounds implements ShardClient via POST /v1/bounds; eps <= 0 sends no
// budget, which the server answers exactly.
func (s *HTTPShard) Bounds(ctx context.Context, q []float64, eps float64) (Bounds, error) {
	req := server.QueryRequest{Q: q}
	if eps > 0 {
		req.Eps = eps
	}
	var resp Bounds
	err := s.post(ctx, "/v1/bounds", &req, &resp)
	return resp, err
}

// ThresholdBounds implements ShardClient via POST /v1/bounds with a
// "threshold" in place of a budget.
func (s *HTTPShard) ThresholdBounds(ctx context.Context, q []float64, tau float64) (Bounds, error) {
	var resp Bounds
	err := s.post(ctx, "/v1/bounds", &server.QueryRequest{Q: q, Threshold: &tau}, &resp)
	return resp, err
}

// Insert implements MutableShardClient via POST /v1/insert.
func (s *HTTPShard) Insert(ctx context.Context, points [][]float64, weights []float64) ([]uint64, error) {
	var resp server.InsertResponse
	if err := s.post(ctx, "/v1/insert", &server.InsertRequest{Points: points, Weights: weights}, &resp); err != nil {
		return nil, err
	}
	s.mass.Store(&resp.MassResponse)
	return resp.IDs, nil
}

// Delete implements MutableShardClient: a one-id DeleteMany.
func (s *HTTPShard) Delete(ctx context.Context, id uint64) error {
	_, err := s.DeleteMany(ctx, []uint64{id})
	return err
}

// DeleteMany implements MutableShardClient via DELETE /v1/point. A 404
// maps to karl.ErrPointNotFound so the coordinator's lineage fallback can
// chase split-moved points; the count removed before the failing id comes
// from the reply's structured fields.
func (s *HTTPShard) DeleteMany(ctx context.Context, ids []uint64) (int, error) {
	var resp server.DeleteResponse
	var failed server.DeleteErrorResponse
	if err := s.call(ctx, http.MethodDelete, "/v1/point", &server.DeleteRequest{IDs: ids}, &resp, &failed); err != nil {
		// A reply that names the failing id is the shard handler's own
		// account; anything else (transport failure, a foreign 4xx) leaves
		// the landed count unknown.
		if n := failed.Deleted; n >= 0 && n < len(ids) && failed.FailedID == ids[n] {
			s.mass.Store(&failed.MassResponse)
			return failed.Deleted, err
		}
		return 0, err
	}
	s.mass.Store(&resp.MassResponse)
	return resp.Deleted, nil
}

// WriteMass implements MutableShardClient.
func (s *HTTPShard) WriteMass() (server.MassResponse, bool) {
	if m := s.mass.Load(); m != nil {
		return *m, true
	}
	return server.MassResponse{}, false
}

// SplitOut implements MutableShardClient via POST /v1/split. A kd rule
// travels without its plane, so the shard chooses its own (the applied rule
// comes back in the response).
func (s *HTTPShard) SplitOut(ctx context.Context, rule shard.SplitRule) (SplitResult, error) {
	req := server.SplitRequest{Kind: rule.Kind.String()}
	if rule.Kind == shard.Hash {
		req.NumSlots, req.Slots = rule.NumSlots, rule.Slots
	}
	var resp server.SplitResponse
	if err := s.post(ctx, "/v1/split", req, &resp); err != nil {
		return SplitResult{}, err
	}
	kind, err := shard.ParseKind(resp.Kind)
	if err != nil {
		return SplitResult{}, fmt.Errorf("cluster: shard %s: %w", s.base, err)
	}
	return SplitResult{
		Rule: shard.SplitRule{
			Kind: kind, Dim: resp.Dim, Cut: resp.Cut,
			NumSlots: resp.NumSlots, Slots: resp.Slots,
		},
		Moved:  resp.Moved,
		Fence:  resp.NextSeq,
		Points: resp.MovedPoints,
		WPos:   resp.MovedWPos,
		WNeg:   resp.MovedWNeg,
	}, nil
}

func (s *HTTPShard) get(ctx context.Context, path string, dst any) error {
	return s.call(ctx, http.MethodGet, path, nil, dst, nil)
}

func (s *HTTPShard) post(ctx context.Context, path string, body, dst any) error {
	return s.call(ctx, http.MethodPost, path, body, dst, nil)
}

// call sends one request (in, when non-nil, as its JSON body) and decodes
// the JSON response into dst, surfacing the server's error envelope on
// non-2xx statuses; a non-nil failed also receives that error body, for
// replies whose failure carries fields. Bodies of the front door's wire
// codec (server.AppendJSON, server.ReadJSON: pointers to query, insert and
// delete requests out, bounds and value replies back) go through it from
// this side; everything else, and any reply the reader declines, through
// encoding/json.
func (s *HTTPShard) call(ctx context.Context, method, path string, in, dst, failed any) error {
	var payload io.Reader
	if in != nil {
		raw, ok := server.AppendJSON(nil, in)
		if !ok {
			var err error
			if raw, err = json.Marshal(in); err != nil {
				return err
			}
		}
		payload = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, payload)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: shard %s: %w", s.base, err)
	}
	defer resp.Body.Close()
	// A 200 is read whole: the peer is a configured member, and the replies
	// that grow with its data — the moved half of a split, the ids of a bulk
	// insert — are lost for good if cut. Only an error envelope is capped.
	var rd io.Reader = resp.Body
	if resp.StatusCode != http.StatusOK {
		rd = io.LimitReader(rd, 1<<20)
	}
	body, err := io.ReadAll(rd)
	if err != nil {
		return fmt.Errorf("cluster: shard %s: read response: %w", s.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		var envelope struct {
			Error string `json:"error"`
		}
		structured := json.Unmarshal(body, &envelope) == nil && envelope.Error != ""
		if structured && failed != nil {
			_ = json.Unmarshal(body, failed) // same bytes just parsed above
		}
		msg := fmt.Sprintf("HTTP %d", resp.StatusCode)
		if structured {
			msg = fmt.Sprintf("%s (HTTP %d)", envelope.Error, resp.StatusCode)
		}
		// Only a status carrying the server's structured error envelope is
		// a verdict FROM the karl-serve handler. A bare 404/405 comes from
		// the route mux (a shard not running -mutable, a wrong base URL) or
		// an intermediary — mapping it to ErrPointNotFound would let the
		// coordinator's lineage chase swallow a misconfigured shard as
		// "point not found", and treating it as a clean pre-side-effect
		// refusal would be a guess about a server we evidently don't know.
		if structured {
			if resp.StatusCode == http.StatusNotFound {
				// The server 404s unknown point ids; surface the sentinel so
				// delete routing can distinguish "not here" from "shard broken".
				return fmt.Errorf("cluster: shard %s: %s: %w: %w", s.base, msg, errRejected, karl.ErrPointNotFound)
			}
			if resp.StatusCode == http.StatusUnprocessableEntity {
				return fmt.Errorf("cluster: shard %s: %w", s.base, errNotFinite)
			}
			if resp.StatusCode >= 400 && resp.StatusCode < 500 {
				// A 4xx means the server rejected the request before any side
				// effect — the split orchestrator relies on this to tell a clean
				// refusal from an ambiguous transport failure.
				return fmt.Errorf("cluster: shard %s: %s: %w", s.base, msg, errRejected)
			}
		}
		return fmt.Errorf("cluster: shard %s: %s", s.base, msg)
	}
	if server.ReadJSON(body, dst) {
		return nil
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return fmt.Errorf("cluster: shard %s: decode response: %w", s.base, err)
	}
	return nil
}
