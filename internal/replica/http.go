package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"karl"
)

// HTTPSource pulls replication state from a remote leader's
// /v1/replicate/* endpoints (a karl-serve -mutable process).
type HTTPSource struct {
	base string
	hc   *http.Client
}

// NewHTTPSource builds a source for a karl-serve base URL. Replication
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

// Pull implements Source via GET /v1/replicate/tail?have=…, whose body is
// the block stream itself; 304 Not Modified is the leader saying it stands
// where have does.
func (s *HTTPSource) Pull(ctx context.Context, have karl.ReplicaHave) (io.ReadCloser, error) {
	resp, err := s.get(ctx, "/v1/replicate/tail?have="+FormatHave(have))
	if err != nil || resp.StatusCode == http.StatusNotModified {
		return nil, err
	}
	return resp.Body, nil
}

// get returns a 200 (body open) or 304 response and turns anything else into
// an error carrying the server's message.
func (s *HTTPSource) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: leader %s: %w", s.base, err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return resp, nil
	case http.StatusNotModified:
		resp.Body.Close()
		return resp, nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var envelope struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &envelope) == nil && envelope.Error != "" {
		return nil, fmt.Errorf("replica: leader %s: %s (HTTP %d)", s.base, envelope.Error, resp.StatusCode)
	}
	return nil, fmt.Errorf("replica: leader %s: HTTP %d", s.base, resp.StatusCode)
}

// FormatHave renders have as the tail endpoint's "have" parameter: decimal
// numbers joined by commas — epoch, next seq and delete counter, then an id
// and a fingerprint per segment.
func FormatHave(have karl.ReplicaHave) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d,%d,%d", have.Epoch, have.NextSeq, have.Deletes)
	for _, h := range have.Segs {
		fmt.Fprintf(&b, ",%d,%d", h.ID, h.Sum)
	}
	return b.String()
}

// ParseHave is the inverse of FormatHave.
func ParseHave(s string) (karl.ReplicaHave, error) {
	fields := strings.Split(s, ",")
	if len(fields) < 3 || len(fields)%2 != 1 {
		return karl.ReplicaHave{}, fmt.Errorf("%d numbers where epoch, next seq, deletes and an id,fingerprint pair per segment were expected", len(fields))
	}
	nums := make([]uint64, len(fields))
	for i, f := range fields {
		bits := 64
		if i >= 3 && i%2 == 0 {
			bits = 32 // a fingerprint
		}
		v, err := strconv.ParseUint(f, 10, bits)
		if err != nil {
			return karl.ReplicaHave{}, err
		}
		nums[i] = v
	}
	have := karl.ReplicaHave{Epoch: nums[0], NextSeq: nums[1], Deletes: nums[2]}
	for i := 3; i < len(nums); i += 2 {
		have.Segs = append(have.Segs, karl.SegmentSum{ID: nums[i], Sum: uint32(nums[i+1])})
	}
	return have, nil
}
