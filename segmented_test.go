package karl

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"karl/internal/bound"
	"karl/internal/core"
	"karl/internal/dataset"
	"karl/internal/index"
	"karl/internal/kdtree"
	"karl/internal/kernel"
	"karl/internal/pqueue"
)

// weightsFor draws a weight vector for one of the paper's three weighting
// types: Type I (unit), Type II (positive, varied), Type III (mixed sign).
func weightsFor(rng *rand.Rand, typ string, n int) []float64 {
	switch typ {
	case "typeI":
		return nil // unit weights
	case "typeII":
		w := make([]float64, n)
		for i := range w {
			w[i] = 0.1 + rng.Float64()
		}
		return w
	case "typeIII":
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		return w
	}
	panic("unknown weight type " + typ)
}

// TestSegmentedEquivalenceGate is the PR's acceptance gate: across every
// index kind, weighting type, and kernel, a segmented engine (multiple
// sealed segments plus a live memtable) must answer like a monolithic
// build — Aggregate within floating-point reordering tolerance, Threshold
// identically away from ties, Approximate within its ε contract — and
// after a full Compact() the single merged segment must answer Aggregate
// bitwise-identically to the monolithic engine.
func TestSegmentedEquivalenceGate(t *testing.T) {
	kinds := []IndexKind{KDTree, BallTree}
	kernels := map[string]func() Kernel{
		"gaussian":     func() Kernel { return Gaussian(4) },
		"epanechnikov": func() Kernel { return Epanechnikov(2) },
		"quartic":      func() Kernel { return Quartic(2) },
	}
	weightTypes := []string{"typeI", "typeII", "typeIII"}
	const n = 600

	for _, kind := range kinds {
		for kname, mk := range kernels {
			for _, wt := range weightTypes {
				name := map[IndexKind]string{KDTree: "kd", BallTree: "ball"}[kind] +
					"/" + kname + "/" + wt
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(name))*31 + 7))
					pts := cloud(rng, n, 2)
					ws := weightsFor(rng, wt, n)

					// Small seals force a genuinely multi-segment manifest
					// with compactions along the way.
					d, err := NewDynamic(mk(), WithIndex(kind, 16),
						WithSealSize(64), WithCompactionFanout(2))
					if err != nil {
						t.Fatal(err)
					}
					for i, p := range pts {
						w := 1.0
						if ws != nil {
							w = ws[i]
						}
						if err := d.Insert(p, w); err != nil {
							t.Fatal(err)
						}
					}
					var opts []Option
					opts = append(opts, WithIndex(kind, 16))
					if ws != nil {
						opts = append(opts, WithWeights(ws))
					}
					mono, err := Build(pts, mk(), opts...)
					if err != nil {
						t.Fatal(err)
					}
					if len(d.Segments()) < 2 {
						t.Fatalf("only %d segments; gate needs a multi-segment manifest", len(d.Segments()))
					}

					queries := cloud(rng, 20, 2)
					for _, q := range queries {
						want, err := mono.Aggregate(q)
						if err != nil {
							t.Fatal(err)
						}
						got, err := d.Aggregate(q)
						if err != nil {
							t.Fatal(err)
						}
						if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
							t.Fatalf("multi-segment Aggregate %v want %v", got, want)
						}
						// Threshold, away from the tie at tau == F(q).
						for _, tau := range []float64{want - 0.01 - math.Abs(want)*0.05, want + 0.01 + math.Abs(want)*0.05} {
							wantTh, err := mono.Threshold(q, tau)
							if err != nil {
								t.Fatal(err)
							}
							gotTh, err := d.Threshold(q, tau)
							if err != nil {
								t.Fatal(err)
							}
							if gotTh != wantTh {
								t.Fatalf("Threshold(%v, %v) = %v want %v", q, tau, gotTh, wantTh)
							}
						}
						// Approximate: ε relative to |F(q)| (the mixed-sign
						// contract); skip queries where F(q) ~ 0 — the
						// dedicated cancellation test covers those.
						if math.Abs(want) > 1e-6 {
							approx, err := d.Approximate(q, 0.1)
							if err != nil {
								t.Fatal(err)
							}
							if math.Abs(approx-want) > 0.1*math.Abs(want)+1e-9 {
								t.Fatalf("Approximate %v want %v ± 10%%", approx, want)
							}
						}
					}

					// After a full compaction the merged segment restores
					// insertion order, so the tree — and therefore every
					// refinement step — is bitwise identical to the
					// monolithic build.
					if err := d.Compact(); err != nil {
						t.Fatal(err)
					}
					if segs := d.Segments(); len(segs) != 1 {
						t.Fatalf("Compact left %d segments", len(segs))
					}
					for _, q := range queries {
						want, _ := mono.Aggregate(q)
						got, err := d.Aggregate(q)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("post-Compact Aggregate %v not bitwise-equal to monolithic %v", got, want)
						}
						wantTh, _ := mono.Threshold(q, want*0.9)
						gotTh, err := d.Threshold(q, want*0.9)
						if err != nil {
							t.Fatal(err)
						}
						if gotTh != wantTh {
							t.Fatal("post-Compact Threshold disagrees")
						}
					}
				})
			}
		}
	}
}

// TestDynamicApproximateMixedSignCancellation pins the ε contract where
// it is hardest: sealed segments carry positive mass, the live memtable
// carries nearly cancelling negative mass, so the true total is tiny
// relative to either side. The answer must still land within ε·|F(q)| —
// an engine that bounded error against per-segment partial sums instead
// of the true total would fail this by orders of magnitude.
func TestDynamicApproximateMixedSignCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	d, err := NewDynamic(Gaussian(3), WithSealSize(128), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	var pts [][]float64
	var ws []float64
	// 512 positive points → four sealed segments.
	for i := 0; i < 512; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		pts, ws = append(pts, p), append(ws, 1)
		if err := d.Insert(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	if d.Seals() == 0 {
		t.Fatal("setup: no sealed segments")
	}
	// ~100 heavy negative points in the memtable nearly cancel the sealed
	// mass around the query region.
	for i := 0; i < 100; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		pts, ws = append(pts, p), append(ws, -5.05)
		if err := d.Insert(p, -5.05); err != nil {
			t.Fatal(err)
		}
	}
	mono, err := Build(pts, Gaussian(3), WithWeights(ws))
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 30; qi++ {
		q := []float64{rng.Float64(), rng.Float64()}
		exact, _ := mono.Aggregate(q)
		got, err := d.Approximate(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-exact) > 0.1*math.Abs(exact)+1e-9 {
			t.Fatalf("q %d: Approximate %v, exact %v — error %.3g exceeds 10%% of |true total| %.3g",
				qi, got, exact, math.Abs(got-exact), math.Abs(exact))
		}
	}
}

// TestDynamicInsertSteadyStateZeroAlloc: between seals an insert is an
// append into preallocated memtable storage — zero heap allocations. The
// rotating spare buffer makes this true in steady state (after the first
// seal), not just before it.
func TestDynamicInsertSteadyStateZeroAlloc(t *testing.T) {
	d, err := NewDynamic(Gaussian(2), WithSealSize(512), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{0.5, 0.5}
	// Warm past the first seal so the spare buffer exists and the
	// memtable is the recycled one.
	for i := 0; i < 520; i++ {
		if err := d.Insert(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	if d.Seals() != 1 {
		t.Fatalf("warmup sealed %d times, want 1", d.Seals())
	}
	// 100 measured inserts stay well below the next seal boundary.
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.Insert(p, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Insert allocates %v objects/op, want 0", allocs)
	}
}

// TestDynamicConcurrentInsertQueryOracle runs queries against an exact
// oracle while a writer streams inserts: with positive weights, F(q) is
// monotone in the prefix of inserted points, so every answer must land
// between the prefix sum at query start and the prefix sum just after
// query end. Runs in -short mode so CI's -race step covers it.
func TestDynamicConcurrentInsertQueryOracle(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(91))
	pts := cloud(rng, n, 2)
	q := []float64{0.5, 0.5}
	kern := Gaussian(4)

	// prefix[k] = F(q) over the first k inserted points, computed directly
	// from the Gaussian closed form.
	prefix := make([]float64, n+1)
	for i, p := range pts {
		dx, dy := p[0]-q[0], p[1]-q[1]
		prefix[i+1] = prefix[i] + math.Exp(-4*(dx*dx+dy*dy))
	}

	d, err := NewDynamic(kern, WithSealSize(64), WithCompactionFanout(2))
	if err != nil {
		t.Fatal(err)
	}
	var inserted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range pts {
			if err := d.Insert(p, 1); err != nil {
				t.Error(err)
				return
			}
			inserted.Add(1)
		}
	}()

	// Each querier gets its own clone: clones share the dataset and
	// manifest but own their refinement state, which is the concurrency
	// unit for queries (the server pool works the same way).
	const queriers = 3
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := d.Clone()
			for {
				lo := inserted.Load()
				if lo == 0 {
					continue // engine may still be empty
				}
				v, err := c.Aggregate(q)
				if err != nil {
					t.Error(err)
					return
				}
				hi := inserted.Load() + 1 // one insert may be in flight
				if hi > n {
					hi = n
				}
				tol := 1e-9 * (1 + prefix[n])
				if v < prefix[lo]-tol || v > prefix[hi]+tol {
					t.Errorf("Aggregate %v outside oracle window [%v, %v] (lo=%d hi=%d)",
						v, prefix[lo], prefix[hi], lo, hi)
					return
				}
				if lo == n {
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := d.Len(); got != n {
		t.Fatalf("Len = %d want %d", got, n)
	}
	v, err := d.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-prefix[n]) > 1e-9*(1+prefix[n]) {
		t.Fatalf("final Aggregate %v want %v", v, prefix[n])
	}
}

// TestNoStopTheWorldCompaction asserts the PR's core serving property:
// sustained inserts — with the sealing and background compaction they
// trigger — must not stall queries. Query p99 under write load stays
// within 3× the insert-free p99 (plus a small absolute noise floor for
// scheduler jitter on loaded CI machines).
func TestNoStopTheWorldCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("latency assertion is meaningless under -short/-race")
	}
	rng := rand.New(rand.NewSource(101))
	pts := cloud(rng, 10000, 3)
	d, err := NewDynamic(Gaussian(6), WithSealSize(256), WithCompactionFanout(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:6000] {
		if err := d.Insert(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	queries := cloud(rng, 800, 3)
	measure := func() time.Duration {
		lat := make([]time.Duration, 0, len(queries))
		for _, q := range queries {
			start := time.Now()
			if _, err := d.Approximate(q, 0.1); err != nil {
				t.Fatal(err)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)*99/100]
	}

	baseline := measure()

	// The writer streams the remaining 4000 points (bounded growth, so a
	// slower live p99 means stalls, not just a larger dataset), triggering
	// seals and background compactions throughout the live measurement.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range pts[6000:] {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.Insert(p, 1); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched() // interleave with the measuring goroutine
		}
	}()
	live := measure()
	close(stop)
	wg.Wait()

	limit := 3*baseline + 2*time.Millisecond
	t.Logf("query p99: baseline %v, under sustained inserts %v (limit %v)", baseline, live, limit)
	if live > limit {
		t.Fatalf("stop-the-world detected: p99 under inserts %v exceeds %v (3× baseline %v + noise floor)",
			live, limit, baseline)
	}
}

// churnHistory replays the stream-churn workload in process, without the
// wall clock: the churn spec's 6 000 points seeded in 1 024-point inserts
// into NewDynamic's default policy, then steps of 64 inserts (jittered
// copies of seeded points) and 64 deletes of the oldest live points, every
// seal and merge waited out. visit runs after every step.
func churnHistory(t testing.TB, ds *dataset.Dataset, steps int, visit func(step int, d *Engine)) *Engine {
	t.Helper()
	d, err := NewDynamic(Gaussian(ds.Gamma))
	if err != nil {
		t.Fatal(err)
	}
	rows := func(lo, hi int) [][]float64 {
		out := make([][]float64, hi-lo)
		for i := range out {
			out[i] = ds.Points.Row(lo + i)
		}
		return out
	}
	var live []uint64
	for lo := 0; lo < ds.Points.Rows; lo += 1024 {
		ids, err := d.InsertBulk(rows(lo, min(lo+1024, ds.Points.Rows)), nil)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, ids...)
		waitMaintenance(d)
	}
	rng := rand.New(rand.NewSource(6))
	for step := 0; step < steps; step++ {
		batch := make([][]float64, 64)
		for i := range batch {
			src := ds.Points.Row(rng.Intn(ds.Points.Rows))
			batch[i] = make([]float64, len(src))
			for j, v := range src {
				batch[i][j] = v + rng.NormFloat64()*0.02
			}
		}
		ids, err := d.InsertBulk(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, ids...)
		waitMaintenance(d)
		for _, id := range live[:64] {
			if err := d.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		live = live[64:]
		waitMaintenance(d)
		visit(step, d)
	}
	return d
}

// churnData is the churn spec's point set and query sample.
func churnData(t testing.TB, n, queries int) *dataset.Dataset {
	t.Helper()
	spec := dataset.Spec{Name: "churn", Dim: 8, Weighting: dataset.TypeI, Clusters: 12, Spread: 0.03}
	ds, err := dataset.GenerateSized(spec, n, queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// perSegmentPoints refines q the way the forest did before same-shaped
// segments refined as one tree: one global queue whose units are the
// segments' own trees, the exact base folded into both bounds. It returns
// the points the query scanned at leaves.
func perSegmentPoints(k kernel.Params, trees []*index.Tree, q []float64, base float64, done func(lb, ub float64) bool) int {
	type entry struct {
		t      *index.Tree
		ni     int32
		lb, ub float64
	}
	rows, qc := k.RowsEvaluator(), bound.NewQueryCtx(q)
	var queue pqueue.Queue[entry]
	points := 0
	score := func(t *index.Tree, ni int32) (float64, float64) {
		n := t.Node(ni)
		if n.IsLeaf() {
			points += n.Count()
			v := rows(q, qc.Norm2, t.Points, t.Norms, t.Weights, int(n.Start), int(n.End))
			return v, v
		}
		lb, ub := bound.NodeBounds(bound.KARL, k, qc, n)
		queue.Push(entry{t, ni, lb, ub}, ub-lb)
		return lb, ub
	}
	lb, ub := base, base
	for _, t := range trees {
		l, u := score(t, 0)
		lb, ub = lb+l, ub+u
	}
	for !done(lb, ub) {
		e, _, ok := queue.Pop()
		if !ok {
			break
		}
		l1, u1 := score(e.t, e.ni+1)
		l2, u2 := score(e.t, e.t.Node(e.ni).Right)
		lb, ub = lb+l1+l2-e.lb, ub+u1+u2-e.ub
	}
	return points
}

// TestSkeletonGroupWorkGate: on the stream-churn history, segments cut on
// one kd skeleton and refined as one tree scan at least 35 % fewer points a
// TKAQ and 20 % fewer an eKAQ than per-segment refinement over the same
// rows indexed the way they were before skeletons (a fresh median build per
// segment at the engine's leaf capacity), with the same memtable and
// tombstone base term. A query over an unchanged manifest that holds a
// multi-member group allocates nothing.
func TestSkeletonGroupWorkGate(t *testing.T) {
	const eps = 0.1
	ds := churnData(t, 6000, 40)
	var tau float64
	var grouped, perSeg [2]int
	var segs, groups int
	d := churnHistory(t, ds, 224, func(step int, d *Engine) {
		if step < 96 || step%8 != 7 {
			return // one turnover of the live set first, then every eighth step
		}
		if tau == 0 {
			for i := 0; i < ds.Queries.Rows; i++ {
				v, err := d.Aggregate(ds.Queries.Row(i))
				if err != nil {
					t.Fatal(err)
				}
				tau += v / float64(ds.Queries.Rows)
			}
		}
		k := kernel.Params(d.Kernel())
		for i := 0; i < ds.Queries.Rows; i++ {
			q := ds.Queries.Row(i)
			man, base, scanned, err := d.snapshot(q)
			if err != nil {
				t.Fatal(err)
			}
			fresh := make([]*index.Tree, len(man.Segs))
			for j, s := range man.Segs {
				if fresh[j], err = kdtree.Build(s.Tree.Points, s.Tree.Weights, d.sh.bcfg.LeafCap); err != nil {
					t.Fatal(err)
				}
			}
			_, st, err := d.ThresholdStats(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			grouped[0] += st.PointsScanned
			perSeg[0] += scanned + perSegmentPoints(k, fresh, q, base, func(lb, ub float64) bool { return core.CondThreshold(lb, ub, tau) })
			if _, st, err = d.ApproximateStats(q, eps); err != nil {
				t.Fatal(err)
			}
			grouped[1] += st.PointsScanned
			perSeg[1] += scanned + perSegmentPoints(k, fresh, q, base, func(lb, ub float64) bool { return core.CondApprox(lb, ub, eps) })
			segs += len(man.Segs)
			groups += d.f.Groups()
		}
	})
	defer d.Close()
	for i, c := range []struct {
		what string
		cut  float64
	}{{"TKAQ", 0.35}, {"eKAQ", 0.20}} {
		change := float64(grouped[i])/float64(perSeg[i]) - 1
		t.Logf("%s: %d points scanned grouped, %d per segment (%+.0f %%); %d segments in %d groups",
			c.what, grouped[i], perSeg[i], 100*change, segs, groups)
		if change > -c.cut {
			t.Errorf("%s scans %+.0f %% against per-segment refinement, want at most %.0f %%", c.what, 100*change, -100*c.cut)
		}
	}

	q := ds.Queries.Row(0)
	for name, query := range map[string]func() error{
		"ThresholdStats":   func() error { _, _, err := d.ThresholdStats(q, tau); return err },
		"ApproximateStats": func() error { _, _, err := d.ApproximateStats(q, eps); return err },
	} {
		if err := query(); err != nil { // arm the forest on this manifest
			t.Fatal(err)
		}
		if n := len(d.Segments()); d.f.Groups() >= n {
			t.Fatalf("%d segments in %d groups: no multi-member group to gate", n, d.f.Groups())
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if err := query(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s over a multi-member group: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestSkeletonChurnProperty drives engines through seeded random histories —
// inserts, deletes, the seals, tier merges and dead-share rewrites they
// trigger, Compact, a WriteTo→ReadEngine round trip and a replica
// InstallSnapshot — with Type I, II and III weights, under TTL and under
// decay, and holds every answer to an exact scan over a mirror of the live
// rows: the TKAQ verdict exact, eKAQ within ε. A reloaded or installed engine
// regroups its segments as the engine it came from did and answers bitwise
// like it.
//
// TTL runs in epochs of 100 s with a 350 s window: at each epoch start the
// clock jumps, the rows of the epoch four back pass the window at once, and
// a Compact drops them, so the live set is never ambiguous between expiry
// and its physical enforcement.
func TestSkeletonChurnProperty(t *testing.T) {
	const (
		eps   = 0.1
		epoch = int64(100 * time.Second)
		ttl   = 350 * time.Second
		half  = 60 * time.Second
	)
	steps := 400
	if testing.Short() {
		steps = 150
	}
	for _, wt := range []string{"typeI", "typeII", "typeIII"} {
		for _, timing := range []string{"plain", "ttl", "decay"} {
			t.Run(wt+"/"+timing, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(wt)*7 + len(timing))))
				var now atomic.Int64
				now.Store(1_700_000_000_000_000_000)
				clock := func() int64 { return now.Load() }
				kern := Gaussian(3)
				opts := []Option{WithIndex(KDTree, 8), WithSealSize(32), WithCompactionFanout(4), withClock(clock)}
				switch timing {
				case "ttl":
					opts = append(opts, WithTTL(ttl))
				case "decay":
					opts = append(opts, WithDecayHalfLife(half))
				}
				d, err := NewDynamic(kern, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { d.Close() }()

				type row struct {
					p    []float64
					w    float64
					t    int64
					live bool
				}
				rows := map[uint64]*row{}
				var ids []uint64 // every id ever inserted, ascending
				// exact is the oracle: F over the live mirror, and the mass
				// Σ|w·K| that float reordering is measured against.
				exact := func(q []float64) (f, mass float64) {
					for _, id := range ids {
						r := rows[id]
						if !r.live {
							continue
						}
						w := r.w
						if timing == "decay" {
							w *= math.Exp2(-float64(now.Load()-r.t) / float64(half))
						}
						v := w * kern.Eval(q, r.p)
						f += v
						mass += math.Abs(v)
					}
					return f, mass
				}
				check := func(d *Engine) {
					t.Helper()
					for k := 0; k < 3; k++ {
						q := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
						f, mass := exact(q)
						tol := 1e-9 * (mass + 1e-300)
						for _, tau := range []float64{f - 0.05*math.Abs(f) - 1e-6*mass, f + 0.05*math.Abs(f) + 1e-6*mass} {
							if math.Abs(f-tau) <= tol {
								continue
							}
							over, err := d.Threshold(q, tau)
							if err != nil {
								t.Fatal(err)
							}
							if over != (f > tau) {
								t.Fatalf("Threshold(τ=%v) = %v, exact F = %v", tau, over, f)
							}
						}
						got, err := d.Approximate(q, eps)
						if err != nil {
							t.Fatal(err)
						}
						if math.Abs(got-f) > eps*math.Abs(f)+tol {
							t.Fatalf("Approximate = %v, exact F = %v (ε = %v)", got, f, eps)
						}
					}
				}
				// same holds a copy to the engine it came from: the same
				// groups, bitwise the same answers.
				same := func(what string, from, to *Engine) {
					t.Helper()
					for k := 0; k < 3; k++ {
						q := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
						want, _, err := from.ApproximateStats(q, eps)
						if err != nil {
							t.Fatal(err)
						}
						got, _, err := to.ApproximateStats(q, eps)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s answers %v where its source answers %v", what, got, want)
						}
						if g, w := to.f.Groups(), from.f.Groups(); g != w {
							t.Fatalf("%s refines %d groups, its source %d", what, g, w)
						}
					}
				}

				var multi, rewrites, reloads, installs int
				for step := 0; step < steps; step++ {
					now.Add(int64(time.Second))
					if timing == "ttl" && step%40 == 0 {
						// A new epoch: the one four back leaves the window.
						now.Store((now.Load()/epoch + 1) * epoch)
						cutoff := now.Load() - int64(ttl)
						if err := d.Compact(); err != nil {
							t.Fatal(err)
						}
						for _, r := range rows {
							if r.t < cutoff {
								r.live = false
							}
						}
					}
					switch op := rng.Intn(100); {
					case op < 50:
						n := 1 + rng.Intn(24)
						pts := make([][]float64, n)
						ws := weightsFor(rng, wt, n)
						for i := range pts {
							pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
						}
						got, err := d.InsertBulk(pts, ws)
						if err != nil {
							t.Fatal(err)
						}
						for i, id := range got {
							w := 1.0
							if ws != nil {
								w = ws[i]
							}
							rows[id] = &row{p: pts[i], w: w, t: now.Load(), live: true}
							ids = append(ids, id)
						}
					case op < 80:
						for n := 1 + rng.Intn(8); n > 0 && len(ids) > 0; n-- {
							id := ids[rng.Intn(len(ids))]
							if !rows[id].live {
								continue
							}
							if err := d.Delete(id); err != nil {
								t.Fatalf("delete %d: %v", id, err)
							}
							rows[id].live = false
						}
					case op < 88:
						waitMaintenance(d)
					case op < 91:
						if err := d.Compact(); err != nil {
							t.Fatal(err)
						}
					case op < 95:
						waitMaintenance(d)
						var buf bytes.Buffer
						if _, err := d.WriteTo(&buf); err != nil {
							t.Fatal(err)
						}
						back, err := ReadEngine(&buf)
						if err != nil {
							t.Fatal(err)
						}
						back.sh.now = clock // a loaded engine runs on the wall clock
						same("reloaded engine", d, back)
						rewrites += d.DeadRewrites()
						d.Close()
						d = back
						reloads++
					default:
						waitMaintenance(d)
						follower, err := NewDynamic(kern, withClock(clock))
						if err != nil {
							t.Fatal(err)
						}
						replicaPull(t, d, follower)
						same("replica", d, follower)
						rewrites += d.DeadRewrites()
						d.Close()
						d = follower // promoted: it takes the writes from here on
						installs++
					}
					if len(ids) == 0 || d.Len() == 0 {
						continue
					}
					check(d)
					if d.f.Groups() < len(d.Segments()) {
						multi++
					}
				}
				rewrites += d.DeadRewrites()
				t.Logf("%d steps: %d with a multi-member group, %d dead-share rewrites, %d reloads, %d installs",
					steps, multi, rewrites, reloads, installs)
				if multi == 0 || reloads == 0 || installs == 0 {
					t.Fatal("history never refined a multi-member group, reloaded or installed")
				}
			})
		}
	}
}
