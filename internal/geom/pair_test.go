package geom

import (
	"math"
	"math/rand"
	"testing"
)

// randRect returns a random rectangle in [-1,1]^dim.
func randRect(rng *rand.Rand, dim int) *Rect {
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for j := 0; j < dim; j++ {
		a := rng.Float64()*2 - 1
		b := a + rng.Float64()*0.8
		lo[j], hi[j] = a, b
	}
	return &Rect{Lo: lo, Hi: hi}
}

// samplePoint returns a point inside the volume (uniform-ish; exactness does
// not matter — any contained point is a valid witness).
func samplePoint(rng *rand.Rand, v Volume, dim int) []float64 {
	switch r := v.(type) {
	case *Rect:
		p := make([]float64, dim)
		for j := range p {
			p[j] = r.Lo[j] + rng.Float64()*(r.Hi[j]-r.Lo[j])
		}
		return p
	case *Ball:
		for {
			p := make([]float64, dim)
			var d2 float64
			for j := range p {
				d := (rng.Float64()*2 - 1) * r.Radius
				p[j] = r.Center[j] + d
				d2 += d * d
			}
			if d2 <= r.Radius*r.Radius {
				return p
			}
		}
	}
	panic("unknown volume")
}

func randVolume(rng *rand.Rand, dim int, kind int) Volume {
	if kind == 0 {
		return randRect(rng, dim)
	}
	c := make([]float64, dim)
	for j := range c {
		c[j] = rng.Float64()*2 - 1
	}
	return &Ball{Center: c, Radius: 0.1 + rng.Float64()*0.5}
}

func dist2(a, b []float64) float64 {
	var s float64
	for j := range a {
		d := a[j] - b[j]
		s += d * d
	}
	return s
}

func dot(a, b []float64) float64 {
	var s float64
	for j := range a {
		s += a[j] * b[j]
	}
	return s
}

// TestPairBoundsContainSamples verifies that for random (query rect,
// reference volume) pairs, the pair bounds contain the distance² and inner
// product of every sampled point pair.
func TestPairBoundsContainSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const tol = 1e-9
	for trial := 0; trial < 300; trial++ {
		dim := 1 + rng.Intn(5)
		q := randRect(rng, dim)
		v := randVolume(rng, dim, trial%2)

		dLo := PairMinDist2(q, v)
		dHi := PairMaxDist2(q, v)
		ipLo := PairIPMin(q, v)
		ipHi := PairIPMax(q, v)
		if dLo > dHi+tol {
			t.Fatalf("trial %d (%T): PairMinDist2 %v > PairMaxDist2 %v", trial, v, dLo, dHi)
		}
		if ipLo > ipHi+tol {
			t.Fatalf("trial %d (%T): PairIPMin %v > PairIPMax %v", trial, v, ipLo, ipHi)
		}

		for s := 0; s < 40; s++ {
			qp := samplePoint(rng, q, dim)
			rp := samplePoint(rng, v, dim)
			d2 := dist2(qp, rp)
			if d2 < dLo-tol || d2 > dHi+tol {
				t.Fatalf("trial %d (%T): dist² %v outside pair bound [%v, %v]", trial, v, d2, dLo, dHi)
			}
			ip := dot(qp, rp)
			if ip < ipLo-tol || ip > ipHi+tol {
				t.Fatalf("trial %d (%T): q·p %v outside pair bound [%v, %v]", trial, v, ip, ipLo, ipHi)
			}
		}
	}
}

// TestPairBoundsDegenerateRect checks the point-rect case reduces to the
// single-volume bounds.
func TestPairBoundsDegenerateRect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		dim := 1 + rng.Intn(4)
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()*2 - 1
		}
		q := &Rect{Lo: append([]float64(nil), p...), Hi: append([]float64(nil), p...)}
		v := randVolume(rng, dim, trial%2)

		const tol = 1e-9
		if got, want := PairMinDist2(q, v), v.MinDist2(p); math.Abs(got-want) > tol {
			t.Fatalf("point rect (%T): PairMinDist2 %v != MinDist2 %v", v, got, want)
		}
		if got, want := PairMaxDist2(q, v), v.MaxDist2(p); math.Abs(got-want) > tol {
			t.Fatalf("point rect (%T): PairMaxDist2 %v != MaxDist2 %v", v, got, want)
		}
		if got, want := PairIPMax(q, v), v.IPMax(p); got < want-tol {
			t.Fatalf("point rect (%T): PairIPMax %v < IPMax %v", v, got, want)
		}
		if got, want := PairIPMin(q, v), v.IPMin(p); got > want+tol {
			t.Fatalf("point rect (%T): PairIPMin %v > IPMin %v", v, got, want)
		}
	}
}

func TestMaxNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		dim := 1 + rng.Intn(5)
		q := randRect(rng, dim)
		mn := MaxNorm(q)
		for s := 0; s < 50; s++ {
			p := samplePoint(rng, q, dim)
			if n := math.Sqrt(dot(p, p)); n > mn+1e-9 {
				t.Fatalf("‖q‖ %v exceeds MaxNorm %v", n, mn)
			}
		}
	}
}
