package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"karl"
)

// straggler is a seeded slow-member schedule around a shard client: each
// query call stalls for stall with probability p, drawn from its own seeded
// source, so two stragglers with one seed stall the same calls of the same
// call sequence. Every query call is counted. A stalled call returns as
// soon as its ctx ends, as ShardClient requires.
type straggler struct {
	MutableShardClient
	p     float64
	stall time.Duration
	calls atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

func newStraggler(c MutableShardClient, p float64, stall time.Duration, seed int64) *straggler {
	return &straggler{MutableShardClient: c, p: p, stall: stall, rng: rand.New(rand.NewSource(seed))}
}

func (s *straggler) wait(ctx context.Context) error {
	s.calls.Add(1)
	s.mu.Lock()
	slow := s.rng.Float64() < s.p
	s.mu.Unlock()
	if !slow {
		return nil
	}
	t := time.NewTimer(s.stall)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *straggler) Aggregate(ctx context.Context, q []float64) (float64, error) {
	if err := s.wait(ctx); err != nil {
		return 0, err
	}
	return s.MutableShardClient.Aggregate(ctx, q)
}

func (s *straggler) Bounds(ctx context.Context, q []float64, eps float64) (Bounds, error) {
	if err := s.wait(ctx); err != nil {
		return Bounds{}, err
	}
	return s.MutableShardClient.Bounds(ctx, q, eps)
}

func (s *straggler) ThresholdBounds(ctx context.Context, q []float64, tau float64) (Bounds, error) {
	if err := s.wait(ctx); err != nil {
		return Bounds{}, err
	}
	return s.MutableShardClient.ThresholdBounds(ctx, q, tau)
}

// BenchmarkHedgeTrial is the trial hedged reads stay on. Two hash shards of
// n points at d = 8 are served over loopback, and member 0's primary
// stalls 20 ms on a seeded share of its calls. The same queries, TKAQ and
// eKAQ alternating, go to two coordinators over the same servers: one whose
// member 0 has a hedge target (a second front door over its shard), one
// without. It reports each side's p99 read latency, the cut between them,
// and how many more member calls the hedged side made. Report-only: the
// numbers it read are in DESIGN §7.
func BenchmarkHedgeTrial(b *testing.B) {
	const (
		d     = 8
		stall = 20 * time.Millisecond
		eps   = 0.05
		seed  = 1
	)
	n, nq := 20000, 2000
	if testing.Short() {
		n, nq = 4000, 200
	}
	pts, _ := dataset(n, d, 61, "I")
	mono := buildEngine(b, pts, nil, karl.Gaussian(0.5), karl.KDTree)
	shards, err := mono.Shard(2, karl.HashPartition)
	if err != nil {
		b.Fatalf("Shard: %v", err)
	}
	primary := listen(b, readServer(b, shards[0])).Name()
	hedgeTarget := listen(b, readServer(b, shards[0])).Name()
	other := listen(b, readServer(b, shards[1])).Name()
	queries, _ := dataset(nq, d, 67, "I")
	var tau float64 // the mean aggregate, as the paper's TKAQ workloads pick τ
	for _, q := range queries[:32] {
		f, _ := mono.Aggregate(q)
		tau += f / 32
	}
	ctx := context.Background()

	// side founds one coordinator over fresh clients of the three servers;
	// only the hedged side hands member 0 its hedge target.
	side := func(tb testing.TB, p float64, hedge bool) (*Coordinator, []*straggler) {
		clients := []*straggler{
			newStraggler(NewHTTPShard(primary), p, stall, seed),
			newStraggler(NewHTTPShard(other), 0, 0, seed),
			newStraggler(NewHTTPShard(hedgeTarget), 0, 0, seed),
		}
		specs := []fixedShard{{Client: clients[0]}, {Client: clients[1]}}
		if hedge {
			specs[0].Replicas = []ShardClient{clients[2]}
		}
		co, err := fixed(ctx, specs, Config{})
		if err != nil {
			tb.Fatalf("fixed: %v", err)
		}
		return co, clients
	}
	read := func(tb testing.TB, co *Coordinator, i int) time.Duration {
		t0 := time.Now()
		var err error
		if i%2 == 0 {
			_, err = co.Threshold(ctx, queries[i], tau)
		} else {
			_, err = co.Approximate(ctx, queries[i], eps)
		}
		if err != nil {
			tb.Fatalf("query %d: %v", i, err)
		}
		return time.Since(t0)
	}
	p99 := func(lat []time.Duration) float64 {
		slices.Sort(lat)
		return float64(lat[len(lat)*99/100]) / float64(time.Millisecond)
	}
	calls := func(cs []*straggler) (total int64) {
		for _, c := range cs {
			total += c.calls.Load()
		}
		return total
	}

	for _, p := range []float64{0.01, 0.05} {
		b.Run(fmt.Sprintf("stall=%g%%", 100*p), func(b *testing.B) {
			var off, on []time.Duration
			var offCalls, onCalls int64
			for it := 0; it < b.N; it++ {
				coOff, cOff := side(b, p, false)
				coOn, cOn := side(b, p, true)
				off, on = make([]time.Duration, nq), make([]time.Duration, nq)
				for i := range queries {
					// Alternate which side goes first, so neither always
					// reads a warmer cache.
					if i%4 < 2 {
						off[i], on[i] = read(b, coOff, i), read(b, coOn, i)
					} else {
						on[i], off[i] = read(b, coOn, i), read(b, coOff, i)
					}
				}
				offCalls, onCalls = calls(cOff), calls(cOn)
			}
			pOff, pOn := p99(off), p99(on)
			b.ReportMetric(pOff, "p99_off_ms")
			b.ReportMetric(pOn, "p99_on_ms")
			b.ReportMetric(pOff/pOn, "p99_cut_x")
			b.ReportMetric(100*float64(onCalls-offCalls)/float64(offCalls), "extra_calls_%")
		})
	}
}
