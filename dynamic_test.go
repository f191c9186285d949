package karl

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"karl/internal/segment"
)

// snapshot is one query's walk on a view of its own: the manifest the view
// is armed on, the base term and how many rows its scan covered.
func (d *Engine) snapshot(q []float64, mass *float64) (*segment.Manifest, float64, int, error) {
	vw, base, scanned, err := d.prepare(q, mass)
	defer d.sh.put(vw)
	return vw.fMan, base, scanned, err
}

// groups is how many queue units the manifest last armed refines as: the
// segment set every view armed on it shares.
func (d *Engine) groups() int {
	d.sh.mu.Lock()
	defer d.sh.mu.Unlock()
	return d.sh.set.Groups()
}

func TestNewDynamicValidation(t *testing.T) {
	if _, err := NewDynamic(Gaussian(-1)); err == nil {
		t.Fatal("bad kernel accepted")
	}
	if _, err := NewDynamic(Gaussian(1), WithWeights([]float64{1})); err == nil {
		t.Fatal("WithWeights accepted")
	}
}

func TestDynamicEmptyQueriesFail(t *testing.T) {
	d, err := NewDynamic(Gaussian(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Aggregate([]float64{1}); err == nil {
		t.Fatal("query on empty engine accepted")
	}
	if d.Len() != 0 {
		t.Fatal("empty engine has non-zero length")
	}
}

func TestDynamicInsertValidation(t *testing.T) {
	d, _ := NewDynamic(Gaussian(1))
	if err := d.Insert(nil, 1); err == nil {
		t.Fatal("empty point accepted")
	}
	if err := d.Insert([]float64{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert([]float64{1}, 1); err == nil {
		t.Fatal("dimension change accepted")
	}
	if _, err := d.Aggregate([]float64{1}); err == nil {
		t.Fatal("wrong-dim query accepted")
	}
}

// TestDynamicInsertRejectsNonFinite: one NaN coordinate would poison every
// subsequent aggregate, so Insert must reject it at the door and leave the
// engine untouched.
func TestDynamicInsertRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name string
		p    []float64
		w    float64
	}{
		{"nan coordinate", []float64{1, math.NaN()}, 1},
		{"+inf coordinate", []float64{math.Inf(1), 2}, 1},
		{"-inf coordinate", []float64{1, math.Inf(-1)}, 1},
		{"nan weight", []float64{1, 2}, math.NaN()},
		{"+inf weight", []float64{1, 2}, math.Inf(1)},
		{"-inf weight", []float64{1, 2}, math.Inf(-1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDynamic(Gaussian(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Insert(tc.p, tc.w); err == nil {
				t.Fatalf("Insert(%v, %v) accepted", tc.p, tc.w)
			}
			if d.Len() != 0 {
				t.Fatalf("rejected insert still buffered: Len=%d", d.Len())
			}
			// The engine must stay fully usable after a rejection.
			if err := d.Insert([]float64{1, 2}, 1); err != nil {
				t.Fatalf("valid insert after rejection: %v", err)
			}
			v, err := d.Aggregate([]float64{1, 2})
			if err != nil || v != 1 {
				t.Fatalf("aggregate after rejection = %v, %v", v, err)
			}
		})
	}
}

// TestDynamicMatchesStatic inserts points one by one and checks, at several
// checkpoints, that every query answer equals a from-scratch static build.
func TestDynamicMatchesStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	d, err := NewDynamic(Gaussian(6), WithIndex(KDTree, 16))
	if err != nil {
		t.Fatal(err)
	}
	var pts [][]float64
	var ws []float64
	checkpoints := map[int]bool{1: true, 63: true, 64: true, 255: true, 256: true, 900: true, 2000: true}
	for n := 1; n <= 2000; n++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		w := rng.NormFloat64() // mixed signs
		pts = append(pts, p)
		ws = append(ws, w)
		if err := d.Insert(p, w); err != nil {
			t.Fatal(err)
		}
		if !checkpoints[n] {
			continue
		}
		if d.Len() != n {
			t.Fatalf("Len = %d want %d", d.Len(), n)
		}
		static, err := Build(pts, Gaussian(6), WithWeights(ws), WithIndex(KDTree, 16))
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 5; qi++ {
			q := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			want, _ := static.Aggregate(q)
			got, err := d.Aggregate(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("n=%d: Aggregate %v want %v", n, got, want)
			}
			tau := want * 1.01
			gotTh, err := d.Threshold(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			if wantTh := want > tau; gotTh != wantTh && math.Abs(want-tau) > 1e-9 {
				t.Fatalf("n=%d: Threshold %v want %v", n, gotTh, wantTh)
			}
		}
	}
	if d.Status().Seals == 0 {
		t.Fatal("2000 inserts should have sealed at least one segment")
	}
}

func TestDynamicApproximateGuaranteePositiveWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	d, _ := NewDynamic(Gaussian(4))
	var pts [][]float64
	for n := 0; n < 1500; n++ {
		p := []float64{rng.Float64(), rng.Float64()}
		pts = append(pts, p)
		if err := d.Insert(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	static, _ := Build(pts, Gaussian(4))
	for qi := 0; qi < 20; qi++ {
		q := []float64{rng.Float64(), rng.Float64()}
		exact, _ := static.Aggregate(q)
		got, err := d.Approximate(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if exact == 0 {
			continue
		}
		if rel := math.Abs(got-exact) / exact; rel > 0.1+1e-9 {
			t.Fatalf("rel error %v", rel)
		}
	}
}

func TestDynamicManualCompact(t *testing.T) {
	d, _ := NewDynamic(Gaussian(2))
	for i := 0; i < 10; i++ {
		if err := d.Insert([]float64{float64(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if d.Status().Seals != 0 {
		t.Fatal("tiny memtable should not auto-seal")
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if d.Status().Compactions != 1 {
		t.Fatalf("Compactions = %d", d.Status().Compactions)
	}
	if segs := d.Status().Segments; len(segs) != 1 || segs[0].Len != 10 {
		t.Fatalf("Segments = %+v", segs)
	}
	if d.Status().MemtableLen != 0 {
		t.Fatalf("MemtableLen = %d after Compact", d.Status().MemtableLen)
	}
	// Compact with nothing new to merge is a no-op.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if d.Status().Compactions != 1 {
		t.Fatal("no-op compact should not count")
	}
	got, err := d.Aggregate([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 {
		t.Fatalf("Aggregate = %v", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert([]float64{1}, 1); err == nil {
		t.Fatal("insert after Close accepted")
	}
}

// bruteGaussian is the direct float64 oracle Σ w·exp(−γ·‖q−p‖²).
func bruteGaussian(gamma float64, pts [][]float64, q []float64) float64 {
	var s float64
	for _, p := range pts {
		var d2 float64
		for j := range q {
			d := q[j] - p[j]
			d2 += d * d
		}
		s += math.Exp(-gamma * d2)
	}
	return s
}

// TestFastPathBypassOnMutation is the mutation-vs-fast-path race gate (run
// under the race detector in CI): single-segment queries on the one engine run
// concurrently with a delete that creates a tombstone. The fast path must
// serve queries before the mutation, stop the moment tombstone mass enters
// the base term, and answers must reflect the delete exactly. A decaying
// engine (per-segment scales) must never take the fast path at all.
func TestFastPathBypassOnMutation(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewSource(824))
	pts := cloud(rng, n, 2)
	d, err := NewDynamic(Gaussian(2), WithSealSize(n), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, n)
	for i, p := range pts {
		id, err := d.InsertID(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	st := d.Status()
	if st.Seals != 1 || st.MemtableLen != 0 || st.Tombstones != 0 {
		t.Fatalf("want exactly one sealed segment and an empty memtable (seals=%d mem=%d)", st.Seals, st.MemtableLen)
	}
	q := []float64{0.5, 0.5}
	want := bruteGaussian(2, pts, q)
	if got, _ := d.Aggregate(q); math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("pre-delete aggregate %v, brute force %v", got, want)
	}
	before := d.FastPathQueries()
	if _, err := d.Threshold(q, want*1.1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Approximate(q, 0.1); err != nil {
		t.Fatal(err)
	}
	if got := d.FastPathQueries(); got != before+2 {
		t.Fatalf("clean single-segment queries took %d fast paths, want 2", got-before)
	}

	// Concurrent phase: four goroutines hammer queries on the one engine
	// value while the delete lands.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := d.Approximate(q, 0.1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := d.Delete(ids[10]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if d.Status().Tombstones != 1 {
		t.Fatalf("delete of a sealed point must tombstone (tombs=%d)", d.Status().Tombstones)
	}

	// With tombstone mass in the base term, no query takes the fast path.
	b := d.FastPathQueries()
	for range 4 {
		if _, err := d.Threshold(q, want*1.1); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Approximate(q, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.FastPathQueries(); got != b {
		t.Fatalf("%d queries took the fast path with a pending tombstone", got-b)
	}
	wantAfter := want - bruteGaussian(2, pts[10:11], q)
	if got, _ := d.Aggregate(q); math.Abs(got-wantAfter) > 1e-9*(1+math.Abs(wantAfter)) {
		t.Fatalf("post-delete aggregate %v, brute force %v", got, wantAfter)
	}

	// Decay scales: always present on a decaying engine, so the fast path
	// must never run there — even with one clean segment.
	dd, err := NewDynamic(Gaussian(2), WithSealSize(n), WithAutoCompaction(false),
		WithDecayHalfLife(time.Hour), withClock(func() int64 { return 1_700_000_000_000_000_000 }))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := dd.Insert(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dd.Approximate(q, 0.1); err != nil {
		t.Fatal(err)
	}
	if got := dd.FastPathQueries(); got != 0 {
		t.Fatalf("decaying engine took %d fast paths, want 0", got)
	}
}
