package core

import (
	"math"
	"math/rand"
	"testing"

	"karl/internal/balltree"
	"karl/internal/bound"
	"karl/internal/index"
	"karl/internal/kdtree"
	"karl/internal/kernel"
	"karl/internal/scan"
	"karl/internal/vec"
)

// TestFlatIndexEquivalence is the layout-migration safety net: for every
// index kind × weighting type × kernel family, engine answers over the flat
// leaf-reordered storage must match the scan oracle evaluated over the
// ORIGINAL matrix and weights. The fused three-term distance form reorders
// floating-point arithmetic relative to the oracle's direct subtraction, so
// agreement is to tight relative tolerance rather than bitwise.
func TestFlatIndexEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	kernels := []kernel.Params{
		kernel.NewGaussian(6),
		kernel.NewPolynomial(0.4, 0.8, 3),
		kernel.NewSigmoid(0.3, -0.1),
	}
	builders := []struct {
		name  string
		build func(*vec.Matrix, []float64, int) (*index.Tree, error)
	}{
		{"kd-tree", kdtree.Build},
		{"ball-tree", balltree.Build},
	}
	for trial := 0; trial < 6; trial++ {
		n := 200 + rng.Intn(600)
		d := 2 + rng.Intn(5)
		m := makeClustered(rng, n, d, 1+rng.Intn(3), 0.05)
		var w []float64
		switch trial % 3 {
		case 0: // Type I: unit weights
		case 1: // Type II: positive weights
			w = make([]float64, n)
			for i := range w {
				w[i] = rng.Float64() + 0.01
			}
		case 2: // Type III: mixed signs
			w = make([]float64, n)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
		}
		for _, b := range builders {
			tr, err := b.build(m.Clone(), w, 1+rng.Intn(24))
			if err != nil {
				t.Fatal(err)
			}
			// The tree must not alias the input: its storage is a reordered
			// copy whose PointID maps back to the original rows.
			for i := 0; i < n; i++ {
				pid := int(tr.PointID[i])
				if !vec.Equal(tr.Points.Row(i), m.Row(pid), 0) {
					t.Fatalf("%s: storage row %d != original row %d", b.name, i, pid)
				}
				if w != nil && tr.Weights[i] != w[pid] {
					t.Fatalf("%s: weight not reordered with its point", b.name)
				}
			}
			for _, k := range kernels {
				sc, err := scan.NewScanner(m, w, k)
				if err != nil {
					t.Fatal(err)
				}
				e, err := New(tr, k, WithMethod(bound.KARL))
				if err != nil {
					t.Fatal(err)
				}
				for qi := 0; qi < 5; qi++ {
					q := make([]float64, d)
					for j := range q {
						q[j] = rng.Float64()
					}
					want := sc.Aggregate(q)
					tol := 1e-9 * (1 + math.Abs(want))
					got, err := e.Exact(q)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(got-want) > tol {
						t.Fatalf("%s %v: Exact = %v, oracle %v (Δ %v)",
							b.name, k.Kind, got, want, got-want)
					}
					for _, tau := range []float64{want * 0.7, want * 1.3, want + 0.5, want - 0.5} {
						if math.Abs(want-tau) <= tol {
							continue // undecidable at float precision
						}
						gt, _, err := e.Threshold(q, tau)
						if err != nil {
							t.Fatal(err)
						}
						if gt != (want > tau) {
							t.Fatalf("%s %v: Threshold(τ=%v) = %v, oracle %v",
								b.name, k.Kind, tau, gt, want)
						}
					}
					approx, _, err := e.Approximate(q, 0.1)
					if err != nil {
						t.Fatal(err)
					}
					if want != 0 {
						if rel := math.Abs(approx-want) / math.Abs(want); rel > 0.1+1e-9 {
							t.Fatalf("%s %v: Approximate rel error %v", b.name, k.Kind, rel)
						}
					}
				}
			}
		}
	}
}

// TestQueryHotPathZeroAlloc is the steady-state allocation gate: after a
// warm-up query (which may grow the priority queue's backing array once),
// Threshold, Approximate and Exact must run without a single heap
// allocation. CI fails on regression.
func TestQueryHotPathZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	n, d := 20000, 8
	m := makeClustered(rng, n, d, 4, 0.05)
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64() + 0.01
	}
	for _, k := range []kernel.Params{kernel.NewGaussian(12), kernel.NewPolynomial(0.4, 1, 3)} {
		tr, err := kdtree.Build(m, w, 40)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(tr, k, WithMethod(bound.KARL))
		if err != nil {
			t.Fatal(err)
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.Float64()
		}
		exact, _ := e.Exact(q)
		tau := exact * 1.05
		// Warm up: first queries may grow the queue storage.
		for i := 0; i < 3; i++ {
			if _, _, err := e.Threshold(q, tau); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.Approximate(q, 0.1); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, _, err := e.Threshold(q, tau); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%v: Threshold allocates %.1f allocs/op in steady state, want 0", k.Kind, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, _, err := e.Approximate(q, 0.1); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%v: Approximate allocates %.1f allocs/op in steady state, want 0", k.Kind, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := e.Exact(q); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%v: Exact allocates %.1f allocs/op in steady state, want 0", k.Kind, allocs)
		}
	}
}
