package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"karl"
)

// DeletePosHeader carries the leader's delete-log position (captured
// before serialization) on the snapshot response.
const DeletePosHeader = "X-Karl-Delete-Pos"

// HTTPSource pulls replication state from a remote leader's
// /v1/replicate/* endpoints (a karl-serve -mutable process).
type HTTPSource struct {
	base string
	hc   *http.Client
}

// NewHTTPSource builds a source for a karl-serve base URL. Snapshot
// streams can be large, so the client has no overall timeout; per-call
// contexts bound each request.
func NewHTTPSource(baseURL string) *HTTPSource {
	return &HTTPSource{base: baseURL, hc: &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        8,
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     90 * time.Second,
		},
	}}
}

// Status implements Source via GET /v1/replicate/status.
func (s *HTTPSource) Status(ctx context.Context) (Status, error) {
	var st Status
	if err := s.getJSON(ctx, "/v1/replicate/status", &st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// Snapshot implements Source via GET /v1/replicate/snapshot. The caller
// must Close the returned body.
func (s *HTTPSource) Snapshot(ctx context.Context) (io.ReadCloser, uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/replicate/snapshot", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("replica: leader %s: %w", s.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, 0, s.statusError(resp)
	}
	pos, err := strconv.ParseUint(resp.Header.Get(DeletePosHeader), 10, 64)
	if err != nil {
		resp.Body.Close()
		return nil, 0, fmt.Errorf("replica: leader %s: snapshot response missing %s header", s.base, DeletePosHeader)
	}
	return resp.Body, pos, nil
}

// Pull implements Source via GET /v1/replicate/tail. The server answers
// HTTP 409 when incremental catch-up from the given position is
// impossible; that maps back to karl.ErrReplicaResync so the applier
// falls back to a snapshot.
func (s *HTTPSource) Pull(ctx context.Context, fence, delPos uint64) (*karl.ReplicaBatch, error) {
	var b karl.ReplicaBatch
	path := fmt.Sprintf("/v1/replicate/tail?fence=%d&deletes=%d", fence, delPos)
	if err := s.getJSON(ctx, path, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

func (s *HTTPSource) getJSON(ctx context.Context, path string, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return fmt.Errorf("replica: leader %s: %w", s.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s.statusError(resp)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<28))
	if err != nil {
		return fmt.Errorf("replica: leader %s: read response: %w", s.base, err)
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return fmt.Errorf("replica: leader %s: decode response: %w", s.base, err)
	}
	return nil
}

// statusError turns a non-200 response into an error, mapping the
// server's 409 resync verdict back to the karl.ErrReplicaResync
// sentinel the Applier branches on.
func (s *HTTPSource) statusError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var envelope struct {
		Error string `json:"error"`
	}
	msg := fmt.Sprintf("HTTP %d", resp.StatusCode)
	if json.Unmarshal(body, &envelope) == nil && envelope.Error != "" {
		msg = fmt.Sprintf("%s (HTTP %d)", envelope.Error, resp.StatusCode)
	}
	if resp.StatusCode == http.StatusConflict {
		return fmt.Errorf("replica: leader %s: %s: %w", s.base, msg, karl.ErrReplicaResync)
	}
	return fmt.Errorf("replica: leader %s: %s", s.base, msg)
}
