package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"karl"
	"karl/internal/core"
	fixtures "karl/internal/dataset"
)

// TestThresholdEquivalence is the TKAQ gate of the threshold exchange: over
// hash and kd splits of 2 and 4 shards, every query type and kernel, the
// coordinator's verdict equals the monolithic engine's — with τ placed
// within 1e-6·W of the exact value on either side (where a shard-level
// stopping rule has the least room), far from it, and at τ = 0.
func TestThresholdEquivalence(t *testing.T) {
	parts := map[string]karl.PartitionKind{"hash": karl.HashPartition, "kd": karl.KDPartition}
	kernels := map[string]karl.Kernel{
		"gaussian":     karl.Gaussian(0.5),
		"epanechnikov": karl.Epanechnikov(0.2),
		"sigmoid":      karl.Sigmoid(0.05, 0.1),
	}
	ctx := context.Background()
	queries, _ := dataset(6, 3, 11, "I")
	for partName, part := range parts {
		for _, n := range []int{2, 4} {
			for _, typ := range []string{"I", "II", "III"} {
				for kernName, kern := range kernels {
					t.Run(fmt.Sprintf("%s%d/%s/%s", partName, n, typ, kernName), func(t *testing.T) {
						pts, w := dataset(400, 3, 7, typ)
						mono := buildEngine(t, pts, w, kern, karl.KDTree)
						co := shardedCoordinator(t, mono, n, part, Config{})
						wpos, wneg := mono.WeightMass()
						near := 1e-6 * (wpos + wneg)
						for qi, q := range queries {
							exact, err := mono.Aggregate(q)
							if err != nil {
								t.Fatalf("mono.Aggregate: %v", err)
							}
							for _, tau := range []float64{exact - near, exact + near, 0.5 * exact, 1.5 * exact, 0} {
								tr, err := co.Threshold(ctx, q, tau)
								if err != nil {
									t.Fatalf("q%d: Threshold(%v): %v", qi, tau, err)
								}
								if want := exact > tau; tr.Over != want {
									t.Errorf("q%d: threshold(%v) = %v, want %v (exact %v)", qi, tau, tr.Over, want, exact)
								}
								if tr.Partial {
									t.Errorf("q%d: threshold(%v) unexpectedly partial", qi, tau)
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestThresholdWorkGate is the work gate of the threshold exchange, on the
// cluster-rw benchmark's own fixture: 40 000 Type I points in 8 dimensions,
// its 400 queries, τ = the mean of F over them, split over two shards, the
// work read off each shard's own /v1/stats. The rounds repeat exactly, and so
// do the hash split's points (the kd split's vary by about 1 % with which
// calls an early verdict cancels). Under the ε-schedule this exchange
// replaced (every shard at ε = 0.5, then 0.125, …, each round from scratch)
// the hash split cost 7 459 shard points and 1.1125 rounds per TKAQ and the
// kd split 9 308 points and 1.1175 rounds, measured at the parent commit on
// this fixture; handing each shard a τ of its own must at least halve the
// points on the hash split without more rounds. The kd split is logged, not gated: mass shares are the wrong first
// guess when one shard holds the whole answer, so it trades points for
// rounds (DESIGN §7).
func TestThresholdWorkGate(t *testing.T) {
	const (
		parentHashPoints = 7459.0
		parentHashRounds = 1.1125
	)
	spec := fixtures.Spec{Name: "churn", Dim: 8, Weighting: fixtures.TypeI, Clusters: 12, Spread: 0.03}
	ds, err := fixtures.GenerateSized(spec, 40000, 400, 1)
	if err != nil {
		t.Fatalf("GenerateSized: %v", err)
	}
	rows := func(data []float64, n, d int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = data[i*d : (i+1)*d]
		}
		return out
	}
	pts := rows(ds.Points.Data, ds.Points.Rows, ds.Points.Cols)
	queries := rows(ds.Queries.Data, ds.Queries.Rows, ds.Queries.Cols)
	mono, err := karl.Build(pts, karl.Gaussian(ds.Gamma))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	exact := make([]float64, len(queries))
	var tau float64
	for i, q := range queries {
		if exact[i], err = mono.Aggregate(q); err != nil {
			t.Fatalf("mono.Aggregate: %v", err)
		}
		tau += exact[i] / float64(len(queries))
	}

	ctx := context.Background()
	measure := func(part karl.PartitionKind) (points, rounds float64) {
		co := shardedCoordinator(t, mono, 2, part, Config{})
		for i, q := range queries {
			tr, err := co.Threshold(ctx, q, tau)
			if err != nil {
				t.Fatalf("Threshold: %v", err)
			}
			if tr.Over != (exact[i] > tau) {
				t.Fatalf("query %d: over = %v, exact %v vs tau %v", i, tr.Over, exact[i], tau)
			}
		}
		ex := co.Exchange()
		if ex.ThresholdQueries != int64(len(queries)) {
			t.Fatalf("threshold_queries = %d, want %d", ex.ThresholdQueries, len(queries))
		}
		// Every call of a TKAQ is a bound exchange under the threshold rule.
		work := boundsStats(t, co)
		if work.Queries == 0 || work.ThresholdStopped != work.Queries || work.EpsStopped != 0 {
			t.Fatalf("shards report %+v: want every bounds query stopped by its threshold", work)
		}
		n := float64(len(queries))
		return float64(work.PointsScanned) / n, float64(ex.ThresholdRounds) / n
	}

	points, rounds := measure(karl.HashPartition)
	t.Logf("hash split: %.0f shard points, %.4f rounds per TKAQ (ε-schedule: %.0f, %.4f)",
		points, rounds, parentHashPoints, parentHashRounds)
	if points > parentHashPoints/2 {
		t.Errorf("hash split scans %.0f shard points per TKAQ, want at most half the ε-schedule's %.0f", points, parentHashPoints)
	}
	if rounds > parentHashRounds {
		t.Errorf("hash split takes %.4f rounds per TKAQ, want at most the ε-schedule's %.4f", rounds, parentHashRounds)
	}
	points, rounds = measure(karl.KDPartition)
	t.Logf("kd split: %.0f shard points, %.4f rounds per TKAQ (ε-schedule: 9308, 1.1175)", points, rounds)
}

// TestApproximateOneRound is the eKAQ side of the exchange under the one
// certificate: on non-negative weights every shard stops at
// ub_S ≤ (1+2ε)·lb_S, those add up to core.CondApprox over the sums, and so
// a two-shard Type I cluster answers every eKAQ in round 0 — within ε of the
// exact aggregate, with the interval it certifies in the reply.
func TestApproximateOneRound(t *testing.T) {
	pts, _ := dataset(8000, 3, 23, "I")
	mono := buildEngine(t, pts, nil, karl.Gaussian(0.5), karl.KDTree)
	queries, _ := dataset(60, 3, 29, "I")
	ctx := context.Background()
	for _, part := range []karl.PartitionKind{karl.HashPartition, karl.KDPartition} {
		co := shardedCoordinator(t, mono, 2, part, Config{})
		for _, eps := range []float64{0.05, 0.2} {
			for i, q := range queries {
				exact, err := mono.Aggregate(q)
				if err != nil {
					t.Fatalf("mono.Aggregate: %v", err)
				}
				ar, err := co.Approximate(ctx, q, eps)
				if err != nil {
					t.Fatalf("Approximate: %v", err)
				}
				if math.Abs(ar.Value-exact) > eps*exact*(1+1e-9) || !core.CondApprox(ar.LB, ar.UB, eps) {
					t.Errorf("part %v ε=%v query %d: value %v in [%v, %v], exact %v", part, eps, i, ar.Value, ar.LB, ar.UB, exact)
				}
			}
		}
		if ex := co.Exchange(); ex.ApproximateRounds != ex.ApproximateQueries {
			t.Errorf("part %v: %d rounds for %d eKAQ, want one each", part, ex.ApproximateRounds, ex.ApproximateQueries)
		}
	}
}

// dyingShard answers its first bound-exchange call with a fixed certified
// interval and fails every call after it: a shard that dies mid-exchange.
type dyingShard struct {
	MutableShardClient
	first Bounds
	calls atomic.Int64
}

func (d *dyingShard) answer() (Bounds, error) {
	if d.calls.Add(1) == 1 {
		return d.first, nil
	}
	return Bounds{}, errors.New("shard died (test)")
}

func (d *dyingShard) Bounds(context.Context, []float64, float64) (Bounds, error) {
	return d.answer()
}

func (d *dyingShard) ThresholdBounds(context.Context, []float64, float64) (Bounds, error) {
	return d.answer()
}

// TestThresholdShardDiesMidExchange kills one of four shards after its
// first answer, a certified interval of half-width a around its true
// contribution. That interval stays in the sums for the rest of the query
// — it is what bounds the dead shard, not the a-priori [0, W] — the shard
// is asked once more (the call that finds it dead) and then gets no share,
// and the query ends in a verdict where the residual 2a cannot flip it and
// in ErrIndeterminate where it can.
func TestThresholdShardDiesMidExchange(t *testing.T) {
	pts, _ := dataset(20000, 3, 19, "I")
	mono := buildEngine(t, pts, nil, karl.Gaussian(2), karl.KDTree)
	shards, err := mono.Shard(4, karl.HashPartition)
	if err != nil {
		t.Fatalf("Shard: %v", err)
	}
	ctx := context.Background()
	q := []float64{0.2, -0.1, 0.5}
	exact, _ := mono.Aggregate(q)
	const victim = 2
	deadF, _ := shards[victim].Aggregate(q)
	// Narrow enough that no verdict is within reach of the round that finds
	// the victim dead: the live shards have to close in to within a of
	// their exact sum first, so the death is always observed.
	a := 1e-6 * exact

	cluster := func() (*Coordinator, *dyingShard) {
		specs := make([]fixedShard, len(shards))
		for i, se := range shards {
			specs[i] = fixedShard{Client: listen(t, readServer(t, se))}
		}
		dying := &dyingShard{MutableShardClient: specs[victim].Client, first: Bounds{Value: deadF, LB: deadF - a, UB: deadF + a}}
		specs[victim].Client = dying
		co, err := fixed(ctx, specs, Config{Retries: -1})
		if err != nil {
			t.Fatalf("fixed: %v", err)
		}
		return co, dying
	}

	for _, tc := range []struct {
		name string
		tau  float64
		over bool
	}{
		{"below", exact - 2*a, true},
		{"above", exact + 2*a, false},
	} {
		co, dying := cluster()
		tr, err := co.Threshold(ctx, q, tc.tau)
		if err != nil {
			t.Fatalf("%s: Threshold: %v", tc.name, err)
		}
		if tr.Over != tc.over {
			t.Errorf("%s: over = %v, want %v", tc.name, tr.Over, tc.over)
		}
		ep := co.ep.Load()
		wantCovered := 1 - ep.members[victim].weight()/ep.weightTotal()
		if !tr.Partial || len(tr.Failed) != 1 || math.Abs(tr.Covered-wantCovered) > 1e-12 {
			t.Errorf("%s: result %+v, want partial with the victim failed and covered %v", tc.name, tr, wantCovered)
		}
		if calls := dying.calls.Load(); calls != 2 {
			t.Errorf("%s: victim saw %d calls, want 2 (one answered, one that found it dead, then no share)", tc.name, calls)
		}
		if rounds := co.Exchange().ThresholdRounds; rounds < 3 {
			t.Errorf("%s: decided in %d rounds; the fixture must outlive round 1, where the victim is found dead", tc.name, rounds)
		}
	}

	// τ inside the dead shard's residual interval: the live shards refine
	// to exact, nothing is left to ask, and the coordinator refuses to guess.
	co, dying := cluster()
	if _, err := co.Threshold(ctx, q, exact); !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("tau inside the dead shard's interval: err = %v, want ErrIndeterminate", err)
	}
	if calls := dying.calls.Load(); calls != 2 {
		t.Errorf("indeterminate: victim saw %d calls, want 2", calls)
	}
	if rounds := co.Exchange().ThresholdRounds; rounds < 3 {
		t.Errorf("indeterminate after %d rounds: the live shards should have been asked again after the victim died", rounds)
	}
}
