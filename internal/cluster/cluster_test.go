package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"karl"
	"karl/internal/server"
	"karl/internal/shard"
)

// dataset builds a deterministic point cloud plus weights of the given
// query type: Type I (unweighted), Type II (positive weights), Type III
// (mixed-sign weights).
func dataset(n, d int, seed int64, typ string) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		pts[i] = row
	}
	var w []float64
	switch typ {
	case "II":
		w = make([]float64, n)
		for i := range w {
			w[i] = 0.1 + 2*rng.Float64()
		}
	case "III":
		w = make([]float64, n)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
	}
	return pts, w
}

func buildEngine(t testing.TB, pts [][]float64, w []float64, kern karl.Kernel, kind karl.IndexKind) *karl.Engine {
	t.Helper()
	opts := []karl.Option{karl.WithIndex(kind, 16)}
	if w != nil {
		opts = append(opts, karl.WithWeights(w))
	}
	eng, err := karl.Build(pts, kern, opts...)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return eng
}

// listen serves h on a loopback listener that closes with the test and
// returns the production client for it: the one way a test reaches a shard,
// and the way a coordinator reaches karl-serve.
func listen(t testing.TB, h http.Handler) *HTTPShard {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return NewHTTPShard(ts.URL)
}

// readServer is the front door of a read-only shard (karl-serve -model).
func readServer(t testing.TB, eng *karl.Engine) *server.Server {
	t.Helper()
	srv, err := server.New(eng)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	return srv
}

// fixedShard is one member of a cluster whose membership never changes: its
// client and plain hedge targets (copies of the shard, not followers).
type fixedShard struct {
	Client   MutableShardClient
	Replicas []ShardClient
}

// fixed founds a coordinator over fixed clients — a hash manifest nothing is
// routed through — and hands each member its replicas as the epoch's hedge
// targets: the scatter-gather contract under test, whatever the clients are.
func fixed(ctx context.Context, specs []fixedShard, cfg Config) (*Coordinator, error) {
	founders := make([]WritableShard, len(specs))
	for i, s := range specs {
		founders[i] = WritableShard{Client: s.Client}
	}
	co, err := NewWritable(ctx, shard.Hash, founders, nil, WritableConfig{Config: cfg})
	if err != nil {
		return nil, err
	}
	for i, s := range specs {
		co.ep.Load().members[i].replicas = s.Replicas
	}
	return co, nil
}

// httpCluster serves every shard engine through its own front door behind a
// kill switch and returns the coordinator over them plus the switches.
func httpCluster(t testing.TB, shards []*karl.Engine, cfg Config) (*Coordinator, []*downableHandler) {
	t.Helper()
	specs := make([]fixedShard, len(shards))
	switches := make([]*downableHandler, len(shards))
	for i, se := range shards {
		switches[i] = &downableHandler{inner: readServer(t, se)}
		specs[i] = fixedShard{Client: listen(t, switches[i])}
	}
	co, err := fixed(context.Background(), specs, cfg)
	if err != nil {
		t.Fatalf("fixed: %v", err)
	}
	return co, switches
}

// shardedCoordinator splits an engine n ways under the given partition and
// coordinates the pieces, each behind its own front door.
func shardedCoordinator(t testing.TB, eng *karl.Engine, n int, part karl.PartitionKind, cfg Config) *Coordinator {
	t.Helper()
	shards, err := eng.Shard(n, part)
	if err != nil {
		t.Fatalf("Shard: %v", err)
	}
	co, _ := httpCluster(t, shards, cfg)
	return co
}

// boundsStats reads the bound-exchange counters of every shard of co from
// the shards' own /v1/stats and returns their sum.
func boundsStats(t testing.TB, co *Coordinator) server.EndpointStats {
	t.Helper()
	var sum server.EndpointStats
	for _, s := range co.ep.Load().members {
		var st server.StatsResponse
		if err := s.client.(*HTTPShard).get(context.Background(), "/v1/stats", &st); err != nil {
			t.Fatalf("GET /v1/stats: %v", err)
		}
		b := st.Endpoints["bounds"]
		sum.Queries += b.Queries
		sum.PointsScanned += b.PointsScanned
		sum.ThresholdStopped += b.ThresholdStopped
		sum.EpsStopped += b.EpsStopped
	}
	return sum
}

// TestCoordinatorEquivalence is the acceptance gate: across index
// structures, partitions, query types and kernels, a coordinator speaking
// JSON to four front doors must agree with the monolithic engine — exact
// aggregates within FP tolerance, threshold verdicts equal away from ties,
// approximate answers within the global ε.
func TestCoordinatorEquivalence(t *testing.T) {
	kinds := map[string]karl.IndexKind{"kd": karl.KDTree, "ball": karl.BallTree}
	// The hash split keeps the bare subtest name; the kd split adds a suffix.
	parts := map[string]karl.PartitionKind{"": karl.HashPartition, "/kd-split": karl.KDPartition}
	kernels := map[string]karl.Kernel{
		"gaussian":     karl.Gaussian(0.5),
		"epanechnikov": karl.Epanechnikov(0.2),
		"sigmoid":      karl.Sigmoid(0.05, 0.1),
	}
	const eps = 0.05
	ctx := context.Background()
	for kindName, kind := range kinds {
		for partName, part := range parts {
			for _, typ := range []string{"I", "II", "III"} {
				for kernName, kern := range kernels {
					t.Run(fmt.Sprintf("%s/%s/%s%s", kindName, typ, kernName, partName), func(t *testing.T) {
						pts, w := dataset(400, 3, 7, typ)
						mono := buildEngine(t, pts, w, kern, kind)
						co := shardedCoordinator(t, mono, 4, part, Config{})

						queries, _ := dataset(5, 3, 11, "I")
						for qi, q := range queries {
							exact, err := mono.Aggregate(q)
							if err != nil {
								t.Fatalf("mono.Aggregate: %v", err)
							}
							scale := math.Max(math.Abs(exact), 1)

							res, err := co.Aggregate(ctx, q)
							if err != nil {
								t.Fatalf("co.Aggregate: %v", err)
							}
							if res.Partial || res.Covered != 1 {
								t.Fatalf("q%d: unexpected partial result %+v", qi, res)
							}
							if diff := math.Abs(res.Value - exact); diff > 1e-9*scale {
								t.Errorf("q%d: aggregate %v, want %v (diff %g)", qi, res.Value, exact, diff)
							}

							// Thresholds placed away from the tie at the exact value.
							margin := math.Max(0.05*math.Abs(exact), 1e-3)
							for _, tau := range []float64{exact - margin, exact + margin} {
								tr, err := co.Threshold(ctx, q, tau)
								if err != nil {
									t.Fatalf("q%d: co.Threshold(%v): %v", qi, tau, err)
								}
								if want := exact > tau; tr.Over != want {
									t.Errorf("q%d: threshold(%v) = %v, want %v (exact %v)", qi, tau, tr.Over, want, exact)
								}
								if tr.Partial {
									t.Errorf("q%d: threshold unexpectedly partial", qi)
								}
							}

							ar, err := co.Approximate(ctx, q, eps)
							if err != nil {
								t.Fatalf("q%d: co.Approximate: %v", qi, err)
							}
							if tol := eps*math.Abs(exact) + 1e-9*scale; math.Abs(ar.Value-exact) > tol {
								t.Errorf("q%d: approximate %v outside ±%g of %v", qi, ar.Value, tol, exact)
							}
							if ar.LB-1e-9*scale > exact || ar.UB+1e-9*scale < exact {
								t.Errorf("q%d: exact %v outside certified [%v, %v]", qi, exact, ar.LB, ar.UB)
							}
						}
					})
				}
			}
		}
	}
}

// flakyShard wraps a shard client and can be switched off (every read
// fails) or made to fail the next k calls.
type flakyShard struct {
	MutableShardClient
	down      atomic.Bool
	failNext  atomic.Int64
	delay     time.Duration
	callCount atomic.Int64
}

// trip is the fault in front of every call. The delay honours ctx, as
// ShardClient asks: a primary beaten by its hedge is cancelled and must
// return at once.
func (f *flakyShard) trip(ctx context.Context) error {
	f.callCount.Add(1)
	if f.down.Load() {
		return errors.New("shard down (test)")
	}
	if f.failNext.Load() > 0 && f.failNext.Add(-1) >= 0 {
		return errors.New("transient failure (test)")
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (f *flakyShard) Info(ctx context.Context) (ShardInfo, error) {
	if err := f.trip(ctx); err != nil {
		return ShardInfo{}, err
	}
	return f.MutableShardClient.Info(ctx)
}

func (f *flakyShard) Aggregate(ctx context.Context, q []float64) (float64, error) {
	if err := f.trip(ctx); err != nil {
		return 0, err
	}
	return f.MutableShardClient.Aggregate(ctx, q)
}

func (f *flakyShard) Bounds(ctx context.Context, q []float64, eps float64) (Bounds, error) {
	if err := f.trip(ctx); err != nil {
		return Bounds{}, err
	}
	return f.MutableShardClient.Bounds(ctx, q, eps)
}

func (f *flakyShard) ThresholdBounds(ctx context.Context, q []float64, tau float64) (Bounds, error) {
	if err := f.trip(ctx); err != nil {
		return Bounds{}, err
	}
	return f.MutableShardClient.ThresholdBounds(ctx, q, tau)
}

func (f *flakyShard) Healthy(ctx context.Context) error {
	if err := f.trip(ctx); err != nil {
		return err
	}
	return f.MutableShardClient.Healthy(ctx)
}

// TestRetryRecoversTransientFailure exercises the retry rung: a shard
// failing exactly once per query is healed by the single retry and the
// result is complete, with the retry counted.
func TestRetryRecoversTransientFailure(t *testing.T) {
	pts, _ := dataset(200, 2, 3, "I")
	mono := buildEngine(t, pts, nil, karl.Gaussian(1), karl.KDTree)
	shards, err := mono.Shard(2, karl.HashPartition)
	if err != nil {
		t.Fatalf("Shard: %v", err)
	}
	flaky := &flakyShard{MutableShardClient: listen(t, readServer(t, shards[0]))}
	specs := []fixedShard{
		{Client: flaky},
		{Client: listen(t, readServer(t, shards[1]))},
	}
	co, err := fixed(context.Background(), specs, Config{Backoff: time.Millisecond})
	if err != nil {
		t.Fatalf("fixed: %v", err)
	}

	q := []float64{0.3, -0.2}
	exact, _ := mono.Aggregate(q)
	flaky.failNext.Store(1)
	res, err := co.Aggregate(context.Background(), q)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if res.Partial {
		t.Fatalf("retry should have healed the transient failure: %+v", res)
	}
	if math.Abs(res.Value-exact) > 1e-9 {
		t.Fatalf("value %v, want %v", res.Value, exact)
	}
	if got := co.Stats()[0].Retries; got < 1 {
		t.Fatalf("retries counter = %d, want >= 1", got)
	}
}

// TestHedgeWinsOverSlowPrimary exercises the hedge rung: once the latency
// window is warm, a slow primary triggers a hedged request to the replica,
// which wins.
func TestHedgeWinsOverSlowPrimary(t *testing.T) {
	pts, _ := dataset(200, 2, 5, "I")
	mono := buildEngine(t, pts, nil, karl.Gaussian(1), karl.KDTree)
	shards, err := mono.Shard(2, karl.HashPartition)
	if err != nil {
		t.Fatalf("Shard: %v", err)
	}
	slow := &flakyShard{MutableShardClient: listen(t, readServer(t, shards[0])), delay: 200 * time.Millisecond}
	replica := listen(t, readServer(t, shards[0]))
	specs := []fixedShard{
		{Client: slow, Replicas: []ShardClient{replica}},
		{Client: listen(t, readServer(t, shards[1]))},
	}
	co, err := fixed(context.Background(), specs, Config{HedgeMin: time.Millisecond})
	if err != nil {
		t.Fatalf("fixed: %v", err)
	}
	// Warm the latency window with fast samples so the hedge arms at ~1ms.
	for i := 0; i < warmSamples; i++ {
		co.ep.Load().members[0].lat.record(100 * time.Microsecond)
	}

	q := []float64{0.1, 0.4}
	exact, _ := mono.Aggregate(q)
	start := time.Now()
	res, err := co.Aggregate(context.Background(), q)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if math.Abs(res.Value-exact) > 1e-9 {
		t.Fatalf("value %v, want %v", res.Value, exact)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("hedge did not shortcut the slow primary (took %v)", elapsed)
	}
	if st := co.Stats()[0]; st.Hedges < 1 || st.HedgeWins < 1 {
		t.Fatalf("hedges=%d hedgeWins=%d, want >= 1 each", st.Hedges, st.HedgeWins)
	}
}

// TestHedgeWinsOverStalledHTTPPrimary is the hedge rung over the real wire:
// the primary is a front door whose handler stalls until released, the
// replica a second front door over the same shard. Once the latency window
// is warm, Threshold and Approximate answer from the replica well inside the
// stall with the monolith's answers: the winning hedge cancels the primary,
// which syncTransport turns into a dropped connection, so the next primary
// call dials afresh instead of reading a stale reply.
func TestHedgeWinsOverStalledHTTPPrimary(t *testing.T) {
	pts, _ := dataset(200, 2, 5, "I")
	mono := buildEngine(t, pts, nil, karl.Gaussian(1), karl.KDTree)
	shards, err := mono.Shard(2, karl.HashPartition)
	if err != nil {
		t.Fatalf("Shard: %v", err)
	}
	var stall atomic.Bool
	release := make(chan struct{})
	inner := readServer(t, shards[0])
	f := newTransportFixture(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stall.Load() {
			<-release
		}
		inner.ServeHTTP(w, r)
	}))
	defer close(release) // before the server's Close, which waits for the stalled handlers

	primary := NewHTTPShard(f.ts.URL)
	specs := []fixedShard{
		{Client: primary, Replicas: []ShardClient{listen(t, readServer(t, shards[0]))}},
		{Client: listen(t, readServer(t, shards[1]))},
	}
	ctx := context.Background()
	co, err := fixed(ctx, specs, Config{HedgeMin: time.Millisecond})
	if err != nil {
		t.Fatalf("fixed: %v", err)
	}
	for i := 0; i < warmSamples; i++ {
		co.ep.Load().members[0].lat.record(100 * time.Microsecond)
	}
	stall.Store(true)

	q := []float64{0.1, 0.4}
	exact, _ := mono.Aggregate(q)
	within := func(what string, start time.Time) {
		t.Helper()
		if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
			t.Fatalf("%s: the hedge did not shortcut the stalled primary (took %v)", what, elapsed)
		}
	}
	for _, tau := range []float64{0.9 * exact, 1.1 * exact} {
		start := time.Now()
		res, err := co.Threshold(ctx, q, tau)
		if err != nil {
			t.Fatalf("Threshold(%v): %v", tau, err)
		}
		within("Threshold", start)
		if res.Over != (exact > tau) || res.Partial {
			t.Fatalf("Threshold(%v) = %+v, exact %v", tau, res, exact)
		}
	}
	const eps = 0.05
	start := time.Now()
	res, err := co.Approximate(ctx, q, eps)
	if err != nil {
		t.Fatalf("Approximate: %v", err)
	}
	within("Approximate", start)
	if math.Abs(res.Value-exact) > eps*exact || res.Partial {
		t.Fatalf("Approximate = %+v, exact %v", res, exact)
	}
	if st := co.Stats()[0]; st.HedgeWins < 1 {
		t.Fatalf("hedges=%d hedge_wins=%d, want a win", st.Hedges, st.HedgeWins)
	}

	stall.Store(false)
	before := f.conns.Load()
	b, err := primary.Bounds(ctx, q, 0)
	if err != nil {
		t.Fatalf("primary after the stall: %v", err)
	}
	if n := f.conns.Load() - before; n != 1 {
		t.Fatalf("the primary's next call opened %d connections, want 1: a cancelled one was reused", n)
	}
	if want, _ := shards[0].Aggregate(q); math.Abs(b.Value-want) > 1e-9 {
		t.Fatalf("primary after the stall: %v, want %v", b.Value, want)
	}
}

// TestLatencyWindowRecordAllocs: recording a sample, including the hedge
// delay it re-derives every hedgeEvery samples, allocates nothing.
func TestLatencyWindowRecordAllocs(t *testing.T) {
	var l latencyWindow
	d := time.Duration(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < hedgeEvery; i++ {
			d = (d + 37*time.Microsecond) % time.Millisecond
			l.record(d)
		}
	})
	if allocs != 0 {
		t.Fatalf("%d samples made %.0f allocations, want 0", hedgeEvery, allocs)
	}
	if l.hedge.Load() == 0 {
		t.Fatal("the window never armed a hedge delay")
	}
}

// downableHandler wraps an HTTP handler with a kill switch, simulating a
// shard crash (connection-level refusal) without tearing down listeners.
type downableHandler struct {
	inner http.Handler
	down  atomic.Bool
}

func (d *downableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.down.Load() {
		// Hijack-and-drop where possible to look like a crashed process;
		// otherwise a bare 500 with no body.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	d.inner.ServeHTTP(w, r)
}

// TestCoordinatorChaos is the degraded-mode acceptance test: kill one
// HTTP shard mid-stream, check the partial contract on every query type,
// then revive it and check full recovery.
func TestCoordinatorChaos(t *testing.T) {
	pts, _ := dataset(400, 3, 19, "II")
	mono := buildEngine(t, pts, nil, karl.Gaussian(0.5), karl.KDTree)
	shards, err := mono.Shard(4, karl.HashPartition)
	if err != nil {
		t.Fatalf("Shard: %v", err)
	}
	// Short timeout and backoff so the dead-shard path is fast.
	co, switches := httpCluster(t, shards, Config{Timeout: 2 * time.Second, Backoff: time.Millisecond})
	ctx := context.Background()
	q := []float64{0.2, -0.1, 0.5}
	exact, _ := mono.Aggregate(q)

	// Healthy cluster: complete answers.
	res, err := co.Aggregate(ctx, q)
	if err != nil || res.Partial {
		t.Fatalf("healthy aggregate: res=%+v err=%v", res, err)
	}

	// Kill shard 2 mid-stream.
	const victim = 2
	switches[victim].down.Store(true)
	wpos, wneg := shards[victim].WeightMass()
	deadW := wpos + wneg
	var deadF float64
	{
		v, err := shards[victim].Aggregate(q)
		if err != nil {
			t.Fatalf("victim aggregate: %v", err)
		}
		deadF = v
	}

	res, err = co.Aggregate(ctx, q)
	if err != nil {
		t.Fatalf("degraded aggregate: %v", err)
	}
	if !res.Partial || len(res.Failed) != 1 {
		t.Fatalf("degraded aggregate should be partial with one failed shard: %+v", res)
	}
	wTotal := co.ep.Load().weightTotal()
	wantCovered := (wTotal - deadW) / wTotal
	if math.Abs(res.Covered-wantCovered) > 1e-9 {
		t.Fatalf("covered = %v, want %v", res.Covered, wantCovered)
	}
	if want := exact - deadF; math.Abs(res.Value-want) > 1e-9*math.Max(math.Abs(want), 1) {
		t.Fatalf("partial value %v, want remaining mass %v", res.Value, want)
	}

	// Approximate degrades the same way.
	ar, err := co.Approximate(ctx, q, 0.05)
	if err != nil {
		t.Fatalf("degraded approximate: %v", err)
	}
	if !ar.Partial {
		t.Fatalf("degraded approximate should be partial: %+v", ar)
	}
	if want := exact - deadF; math.Abs(ar.Value-want) > 0.05*math.Abs(want)+1e-9 {
		t.Fatalf("partial approximate %v, want ≈ %v", ar.Value, want)
	}

	// Threshold, verdict safe from below: the dead shard's worst case
	// (its full weight, Gaussian kernel values in [0,1]) cannot drag Σ
	// below a τ the live shards already clear. The verdict may certify
	// before the failure is even observed, so Partial is allowed either
	// way here.
	aliveF := exact - deadF
	tr, err := co.Threshold(ctx, q, aliveF/2)
	if err != nil {
		t.Fatalf("safe threshold: %v", err)
	}
	if !tr.Over {
		t.Fatalf("safe threshold should decide over: %+v", tr)
	}

	// Threshold, verdict safe from above: τ exceeds the live mass plus
	// the dead shard's entire worst-case contribution, so Over must be
	// false — and deciding it requires refining the live shards to
	// (near) exact, which always outlives the failure observation:
	// Partial is deterministic here.
	tr, err = co.Threshold(ctx, q, aliveF+1.01*deadW)
	if err != nil {
		t.Fatalf("safe-above threshold: %v", err)
	}
	if tr.Over || !tr.Partial {
		t.Fatalf("safe-above threshold should decide not-over with partial flag: %+v", tr)
	}
	if math.Abs(tr.Covered-wantCovered) > 1e-9 {
		t.Fatalf("threshold covered = %v, want %v", tr.Covered, wantCovered)
	}

	// Threshold, verdict at risk: τ sits inside the dead shard's a-priori
	// interval [aliveF, aliveF + W_dead] — answering would be a guess.
	if _, err := co.Threshold(ctx, q, aliveF+deadW/2); !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("risky threshold: got err=%v, want ErrIndeterminate", err)
	}

	// Revive: full recovery without rebuilding anything.
	switches[victim].down.Store(false)
	res, err = co.Aggregate(ctx, q)
	if err != nil || res.Partial {
		t.Fatalf("revived aggregate: res=%+v err=%v", res, err)
	}
	if math.Abs(res.Value-exact) > 1e-9*math.Max(math.Abs(exact), 1) {
		t.Fatalf("revived value %v, want %v", res.Value, exact)
	}
}

// TestCoordinatorAllShardsDown checks the no-coverage contract: value
// queries error with ErrUnavailable rather than fabricating an answer.
func TestCoordinatorAllShardsDown(t *testing.T) {
	pts, _ := dataset(200, 2, 23, "I")
	mono := buildEngine(t, pts, nil, karl.Gaussian(1), karl.KDTree)
	shards, err := mono.Shard(2, karl.HashPartition)
	if err != nil {
		t.Fatalf("Shard: %v", err)
	}
	co, switches := httpCluster(t, shards, Config{Timeout: time.Second, Backoff: time.Millisecond})
	for _, sw := range switches {
		sw.down.Store(true)
	}
	if _, err := co.Aggregate(context.Background(), []float64{0, 0}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("got err=%v, want ErrUnavailable", err)
	}
}

// TestCoordinatorValidation covers construction and query validation.
func TestCoordinatorValidation(t *testing.T) {
	pts, _ := dataset(100, 2, 29, "I")
	a := buildEngine(t, pts, nil, karl.Gaussian(1), karl.KDTree)
	b := buildEngine(t, pts, nil, karl.Gaussian(2), karl.KDTree)

	sa := listen(t, readServer(t, a))
	_, err := fixed(context.Background(), []fixedShard{
		{Client: sa},
		{Client: listen(t, readServer(t, b))},
	}, Config{})
	if err == nil {
		t.Fatal("mismatched kernels should fail construction")
	}

	co, err := fixed(context.Background(), []fixedShard{{Client: sa}}, Config{})
	if err != nil {
		t.Fatalf("fixed: %v", err)
	}
	if _, err := co.Aggregate(context.Background(), []float64{1, 2, 3}); err == nil {
		t.Fatal("wrong-dims query should fail")
	}
	if _, err := co.Approximate(context.Background(), []float64{1, 2}, 0); err == nil {
		t.Fatal("eps=0 should fail")
	}
	if _, err := co.Threshold(context.Background(), []float64{1, 2}, math.NaN()); err == nil {
		t.Fatal("NaN tau should fail")
	}
}

// TestHTTPServerSurface drives the coordinator through the shared front door.
func TestHTTPServerSurface(t *testing.T) {
	pts, _ := dataset(300, 3, 31, "II")
	mono := buildEngine(t, pts, nil, karl.Gaussian(0.5), karl.KDTree)
	co := shardedCoordinator(t, mono, 4, karl.HashPartition, Config{})
	fc := listen(t, NewHTTPServer(co))
	ctx := context.Background()

	q := []float64{0.1, 0.2, -0.3}
	exact, _ := mono.Aggregate(q)
	got, err := fc.Aggregate(ctx, q)
	if err != nil {
		t.Fatalf("front aggregate: %v", err)
	}
	if math.Abs(got-exact) > 1e-9 {
		t.Fatalf("front aggregate %v, want %v", got, exact)
	}

	info, err := fc.Info(ctx)
	if err != nil {
		t.Fatalf("front info: %v", err)
	}
	if info.Points != mono.Len() || info.Dims != 3 || info.Kernel != "gaussian" {
		t.Fatalf("front info mismatch: %+v", info)
	}
	if err := fc.Healthy(ctx); err != nil {
		t.Fatalf("front readyz: %v", err)
	}

	// Stats surface includes one entry per shard.
	resp, err := http.Get(fc.Name() + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
}

// BenchmarkCoordinatorParallel measures 4-shard scatter-gather
// approximate queries under parallel load — the CI smoke number
// contrasted with BenchmarkSingleNode.
func BenchmarkCoordinatorParallel(b *testing.B) {
	pts, _ := dataset(20000, 5, 41, "II")
	mono := buildEngine(b, pts, nil, karl.Gaussian(0.2), karl.KDTree)
	co := shardedCoordinator(b, mono, 4, karl.HashPartition, Config{})
	queries, _ := dataset(64, 5, 43, "I")
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := co.Approximate(ctx, queries[i%len(queries)], 0.05); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkSingleNode is the monolithic baseline for
// BenchmarkCoordinatorParallel.
func BenchmarkSingleNode(b *testing.B) {
	pts, _ := dataset(20000, 5, 41, "II")
	mono := buildEngine(b, pts, nil, karl.Gaussian(0.2), karl.KDTree)
	queries, _ := dataset(64, 5, 43, "I")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		eng := mono.Clone()
		i := 0
		for pb.Next() {
			if _, err := eng.Approximate(queries[i%len(queries)], 0.05); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
