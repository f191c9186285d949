package karl

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
