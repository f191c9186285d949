package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"karl/internal/vec"
)

func randMatrix(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestRectExtendContains(t *testing.T) {
	r := &Rect{Lo: []float64{1, 1}, Hi: []float64{1, 1}}
	r.Extend([]float64{3, -1})
	if !r.Contains([]float64{2, 0}, 0) {
		t.Fatal("rect should contain interior point")
	}
	if r.Contains([]float64{4, 0}, 0) {
		t.Fatal("rect should not contain exterior point")
	}
	if r.Contains([]float64{3.05, 0}, 0.01) {
		t.Fatal("tolerance too generous")
	}
	if !r.Contains([]float64{3.005, 0}, 0.01) {
		t.Fatal("tolerance should admit near-boundary point")
	}
}

func TestRectWidestDim(t *testing.T) {
	r := &Rect{Lo: []float64{0, 0, 0}, Hi: []float64{1, 5, 2}}
	dim, w := r.WidestDim()
	if dim != 1 || w != 5 {
		t.Fatalf("WidestDim = %d,%v want 1,5", dim, w)
	}
}

func TestRectMinMaxDistKnown(t *testing.T) {
	r := &Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	// Query inside: min 0; farthest corner (1,1) from (0.25,0.25).
	q := []float64{0.25, 0.25}
	if got := r.MinDist2(q); got != 0 {
		t.Fatalf("MinDist2 inside = %v", got)
	}
	want := 0.75*0.75 + 0.75*0.75
	if got := r.MaxDist2(q); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MaxDist2 = %v want %v", got, want)
	}
	// Query outside to the right.
	q = []float64{3, 0.5}
	if got := r.MinDist2(q); math.Abs(got-4) > 1e-12 {
		t.Fatalf("MinDist2 outside = %v want 4", got)
	}
}

func TestRectIPKnown(t *testing.T) {
	r := &Rect{Lo: []float64{-1, 0}, Hi: []float64{2, 3}}
	q := []float64{1, -1}
	// dim0: q=1 → min(-1,2)=-1, max=2; dim1: q=-1 → min(-0,-3)=-3, max=0.
	if got := r.IPMin(q); got != -4 {
		t.Fatalf("IPMin = %v want -4", got)
	}
	if got := r.IPMax(q); got != 2 {
		t.Fatalf("IPMax = %v want 2", got)
	}
}

func TestBoundRowsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BoundRows(vec.NewMatrix(1, 2), 0, 0)
}

// propVolume checks the fundamental soundness of a Volume over the points it
// was built from: containment, and that min/max dist and IP bounds actually
// bound every enclosed point for random queries.
func propVolume(t *testing.T, build func(m *vec.Matrix, start, end int) Volume) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		d := 1 + rng.Intn(6)
		m := randMatrix(rng, n, d)
		v := build(m, 0, n)
		for i := 0; i < n; i++ {
			if !v.Contains(m.Row(i), 1e-9) {
				t.Fatalf("trial %d: volume does not contain its own point %d", trial, i)
			}
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.NormFloat64() * 2
		}
		lo2, hi2 := v.MinDist2(q), v.MaxDist2(q)
		ipLo, ipHi := v.IPMin(q), v.IPMax(q)
		if lo2 > hi2 {
			t.Fatalf("trial %d: MinDist2 %v > MaxDist2 %v", trial, lo2, hi2)
		}
		for i := 0; i < n; i++ {
			p := m.Row(i)
			d2 := vec.Dist2(q, p)
			if d2 < lo2-1e-9 || d2 > hi2+1e-9 {
				t.Fatalf("trial %d: dist² %v outside [%v,%v]", trial, d2, lo2, hi2)
			}
			ip := vec.Dot(q, p)
			if ip < ipLo-1e-9 || ip > ipHi+1e-9 {
				t.Fatalf("trial %d: ip %v outside [%v,%v]", trial, ip, ipLo, ipHi)
			}
		}
	}
}

func TestRectVolumeProperty(t *testing.T) {
	propVolume(t, func(m *vec.Matrix, start, end int) Volume {
		return BoundRows(m, start, end)
	})
}

func TestBallVolumeProperty(t *testing.T) {
	propVolume(t, func(m *vec.Matrix, start, end int) Volume {
		return BoundRowsBall(m, start, end)
	})
}

func TestBallMinMaxDistKnown(t *testing.T) {
	b := &Ball{Center: []float64{0, 0}, Radius: 1}
	q := []float64{3, 0}
	if got := b.MinDist2(q); math.Abs(got-4) > 1e-12 {
		t.Fatalf("MinDist2 = %v want 4", got)
	}
	if got := b.MaxDist2(q); math.Abs(got-16) > 1e-12 {
		t.Fatalf("MaxDist2 = %v want 16", got)
	}
	// Query inside the ball → MinDist2 is 0.
	if got := b.MinDist2([]float64{0.5, 0}); got != 0 {
		t.Fatalf("MinDist2 inside = %v want 0", got)
	}
}

func TestBallIPKnown(t *testing.T) {
	b := &Ball{Center: []float64{1, 0}, Radius: 2}
	q := []float64{0, 3}
	// q·c = 0; r‖q‖ = 6.
	if got := b.IPMin(q); math.Abs(got+6) > 1e-12 {
		t.Fatalf("IPMin = %v want -6", got)
	}
	if got := b.IPMax(q); math.Abs(got-6) > 1e-12 {
		t.Fatalf("IPMax = %v want 6", got)
	}
}

func TestRectMinDist2QuickVsBruteCorner(t *testing.T) {
	// For a rectangle, MaxDist2 must equal the max over the 2^d corners;
	// check in low dimension by brute force.
	clamp := func(v float64) float64 {
		// testing/quick generates values up to ±MaxFloat64; squared
		// distances on those overflow, so fold into a modest range.
		return math.Mod(v, 100)
	}
	f := func(loRaw, hiRaw, qRaw [3]float64) bool {
		lo, hi, q := make([]float64, 3), make([]float64, 3), make([]float64, 3)
		for j := 0; j < 3; j++ {
			a, b := clamp(loRaw[j]), clamp(hiRaw[j])
			lo[j] = math.Min(a, b)
			hi[j] = math.Max(a, b)
			q[j] = clamp(qRaw[j])
		}
		r := &Rect{Lo: lo, Hi: hi}
		var brute float64
		for mask := 0; mask < 8; mask++ {
			corner := make([]float64, 3)
			for j := 0; j < 3; j++ {
				if mask&(1<<j) != 0 {
					corner[j] = hi[j]
				} else {
					corner[j] = lo[j]
				}
			}
			if d := vec.Dist2(q, corner); d > brute {
				brute = d
			}
		}
		return math.Abs(r.MaxDist2(q)-brute) <= 1e-9*(1+brute)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
