package bound

import (
	"math"
	"math/rand"
	"testing"

	"karl/internal/geom"
	"karl/internal/kernel"
	"karl/internal/vec"
)

func groupTestKernels() []kernel.Params {
	return []kernel.Params{
		{Kind: kernel.Gaussian, Gamma: 0.8},
		{Kind: kernel.Epanechnikov, Gamma: 0.6},
		{Kind: kernel.Quartic, Gamma: 0.5},
		{Kind: kernel.Polynomial, Gamma: 0.7, Beta: 0.2, Degree: 2},
		{Kind: kernel.Polynomial, Gamma: 0.7, Beta: -0.1, Degree: 3},
		{Kind: kernel.Sigmoid, Gamma: 0.5, Beta: 0.1},
	}
}

// TestGroupNodeBoundsContainExact is the soundness gate for the dual-tree
// group bounds: for random query rectangles and reference nodes, the group
// bounds must contain the exact signed aggregate of every sampled query in
// the rectangle, for every method.
func TestGroupNodeBoundsContainExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	methods := []Method{SOTA, KARL, KARLLowerOnly, KARLUpperOnly}
	for _, k := range groupTestKernels() {
		for trial := 0; trial < 120; trial++ {
			dim := 1 + rng.Intn(4)

			// Reference points with mixed-sign weights.
			npts := 2 + rng.Intn(10)
			pts := make([][]float64, npts)
			ws := make([]float64, npts)
			for i := range pts {
				p := make([]float64, dim)
				for j := range p {
					p[j] = rng.Float64()*2 - 1
				}
				pts[i] = p
				w := rng.Float64() + 0.05
				if trial%2 == 1 && rng.Intn(3) == 0 {
					w = -w
				}
				ws[i] = w
			}
			n := rootNode(t, vec.FromRows(pts), ws)

			// Query rectangle, sometimes overlapping the reference region.
			qlo := make([]float64, dim)
			qhi := make([]float64, dim)
			for j := range qlo {
				a := rng.Float64()*3 - 1.5
				qlo[j] = a
				qhi[j] = a + rng.Float64()
			}
			qrect := &geom.Rect{Lo: qlo, Hi: qhi}

			for _, m := range methods {
				lb, ub := GroupNodeBounds(m, k, qrect, n)
				if lb > ub+1e-9 {
					t.Fatalf("%v/%v: lb %v > ub %v", k.Kind, m, lb, ub)
				}
				for s := 0; s < 25; s++ {
					q := make([]float64, dim)
					for j := range q {
						q[j] = qlo[j] + rng.Float64()*(qhi[j]-qlo[j])
					}
					var exact float64
					for i, p := range pts {
						exact += ws[i] * k.Eval(q, p)
					}
					tol := 1e-9 * (1 + math.Abs(exact))
					if exact < lb-tol || exact > ub+tol {
						t.Fatalf("%v/%v trial %d: exact %v outside group bounds [%v, %v]",
							k.Kind, m, trial, exact, lb, ub)
					}
				}
			}
		}
	}
}

// TestGroupBoundsDegenerateRectMatchPointBounds checks that when the query
// rectangle collapses to a single point, the group bounds are at least as
// tight as SOTA point bounds and still contain the per-query KARL bounds'
// certified range.
func TestGroupBoundsDegenerateRectMatchPointBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range groupTestKernels() {
		for trial := 0; trial < 60; trial++ {
			dim := 1 + rng.Intn(3)
			pts := vec.NewMatrix(6, dim)
			ws := make([]float64, 6)
			for i := range ws {
				p := pts.Row(i)
				for j := range p {
					p[j] = rng.Float64()*2 - 1
				}
				ws[i] = 0.1 + rng.Float64()
			}
			n := rootNode(t, pts, ws)

			q := make([]float64, dim)
			for j := range q {
				q[j] = rng.Float64()*2 - 1
			}
			qrect := &geom.Rect{Lo: append([]float64(nil), q...), Hi: append([]float64(nil), q...)}
			qc := NewQueryCtx(q)

			glb, gub := GroupNodeBounds(KARL, k, qrect, n)
			plb, pub := NodeBounds(KARL, k, qc, n)
			// Group bounds for a point rectangle must contain the true value,
			// which the per-query bounds bracket; so the intervals must
			// intersect and the group interval must cover [plb, pub]'s center.
			if glb > pub+1e-9 || gub < plb-1e-9 {
				t.Fatalf("%v trial %d: point-rect group bounds [%v, %v] disjoint from per-query [%v, %v]",
					k.Kind, trial, glb, gub, plb, pub)
			}
			slb, sub := NodeBounds(SOTA, k, qc, n)
			if glb < slb-1e-9*(1+math.Abs(slb)) || gub > sub+1e-9*(1+math.Abs(sub)) {
				t.Fatalf("%v trial %d: point-rect group bounds [%v, %v] looser than SOTA [%v, %v]",
					k.Kind, trial, glb, gub, slb, sub)
			}
		}
	}
}
