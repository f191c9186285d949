// Package span is the traced pass's recorder: spans are appended in memory
// while requests run and written as JSON lines when the benchmark ends.
// Nothing in the system under test knows about it — the harness records a
// span around each call it makes into a layer's public functions.
package span

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call. Start and End are nanoseconds since the
// recorder was created. Request is the id the client minted (0 for work no
// request caused, such as a follower's pull); Parent is the ID of the
// innermost enclosing span of the same request, 0 for a root. Shard names
// the server instance on clustered workloads, where two shards' spans of
// one request overlap in time and containment alone would be ambiguous.
type Span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request_id"`
	Shard   string `json:"shard,omitempty"`
	// Op says what the call was: the client's operation class, a handler's
	// URL path, an engine or shard-client method.
	Op string `json:"op,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s *Span) Dur() int64 { return s.End - s.Start }

// Recorder collects spans from any goroutine.
type Recorder struct {
	epoch time.Time
	cur   atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts the clock.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Now is the recorder's clock.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// Begin marks request id as the one in flight; spans recorded by layers
// that cannot see the id (an engine three calls below the handler) attach
// to it. The traced pass keeps one request in flight, so this is exact.
func (r *Recorder) Begin(id int64) { r.cur.Store(id) }

// Current is the request in flight, 0 between requests.
func (r *Recorder) Current() int64 { return r.cur.Load() }

// Add records a finished span.
func (r *Recorder) Add(s Span) {
	r.mu.Lock()
	s.ID = int64(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Finish assigns parents and returns the spans sorted by start time. A
// span's parent is the shortest span of the same request that contains it
// in time and, when both name a shard, names the same one.
func (r *Recorder) Finish() []Span {
	r.mu.Lock()
	spans := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	byReq := map[int64][]int{}
	for i := range spans {
		if spans[i].Request != 0 {
			byReq[spans[i].Request] = append(byReq[spans[i].Request], i)
		}
	}
	for _, idx := range byReq {
		for _, i := range idx {
			c := &spans[i]
			best := -1
			for _, j := range idx {
				p := &spans[j]
				if j == i || p.Start > c.Start || p.End < c.End || p.Dur() == c.Dur() && j > i {
					continue
				}
				if p.Shard != "" && c.Shard != "" && p.Shard != c.Shard {
					continue
				}
				if best < 0 || p.Dur() < spans[best].Dur() {
					best = j
				}
			}
			if best >= 0 {
				c.Parent = spans[best].ID
			}
		}
	}
	return spans
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover (children may overlap each other:
// a coordinator scatters to its shards in parallel).
func SelfTimes(spans []Span) map[int64]int64 {
	kids := map[int64][]*Span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], &spans[i])
		}
	}
	self := make(map[int64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.Dur() - covered
	}
	return self
}

// Write emits one JSON object per line.
func Write(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
