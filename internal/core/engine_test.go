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

// makeClustered builds a clustered dataset: k Gaussian blobs in [0,1]^d.
func makeClustered(rng *rand.Rand, n, d, clusters int, spread float64) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = rng.Float64()
		}
	}
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(clusters)]
		row := m.Row(i)
		for j := range row {
			row[j] = c[j] + rng.NormFloat64()*spread
		}
	}
	return m
}

func buildBoth(t *testing.T, m *vec.Matrix, w []float64, leafCap int) []*index.Tree {
	t.Helper()
	kd, err := kdtree.Build(m, w, leafCap)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := balltree.Build(m.Clone(), w, leafCap)
	if err != nil {
		t.Fatal(err)
	}
	return []*index.Tree{kd, bt}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, kernel.NewGaussian(1)); err == nil {
		t.Fatal("nil tree accepted")
	}
	m := vec.FromRows([][]float64{{0}, {1}})
	tr, _ := kdtree.Build(m, nil, 2)
	if _, err := New(tr, kernel.NewGaussian(-1)); err == nil {
		t.Fatal("invalid kernel accepted")
	}
	if _, err := New(tr, kernel.NewGaussian(1)); err != nil {
		t.Fatalf("valid engine rejected: %v", err)
	}
}

func TestQueryDimensionMismatch(t *testing.T) {
	m := vec.FromRows([][]float64{{0, 0}, {1, 1}})
	tr, _ := kdtree.Build(m, nil, 2)
	e, _ := New(tr, kernel.NewGaussian(1))
	if _, _, err := e.Threshold([]float64{1}, 0.5); err == nil {
		t.Fatal("dimension mismatch accepted by Threshold")
	}
	if _, _, err := e.Approximate([]float64{1, 2, 3}, 0.1); err == nil {
		t.Fatal("dimension mismatch accepted by Approximate")
	}
	if _, err := e.Exact([]float64{1}); err == nil {
		t.Fatal("dimension mismatch accepted by Exact")
	}
}

func TestApproximateRejectsBadEps(t *testing.T) {
	m := vec.FromRows([][]float64{{0}, {1}})
	tr, _ := kdtree.Build(m, nil, 2)
	e, _ := New(tr, kernel.NewGaussian(1))
	if _, _, err := e.Approximate([]float64{0.5}, 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, _, err := e.Approximate([]float64{0.5}, -0.1); err == nil {
		t.Fatal("negative eps accepted")
	}
}

// TestThresholdMatchesExact is the engine's central correctness property:
// TKAQ answers must agree with the brute-force comparison for every
// combination of kernel, method, tree and weighting type.
func TestThresholdMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	kernels := []kernel.Params{
		kernel.NewGaussian(4),
		kernel.NewPolynomial(0.5, 1, 2),
		kernel.NewPolynomial(0.5, 0.5, 3),
		kernel.NewSigmoid(0.5, -0.2),
	}
	for trial := 0; trial < 12; trial++ {
		n := 50 + rng.Intn(400)
		d := 1 + rng.Intn(5)
		m := makeClustered(rng, n, d, 1+rng.Intn(4), 0.05)
		var w []float64
		switch trial % 3 {
		case 0: // Type I
		case 1: // Type II
			w = make([]float64, n)
			for i := range w {
				w[i] = rng.Float64() + 0.01
			}
		case 2: // Type III
			w = make([]float64, n)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
		}
		for _, tr := range buildBoth(t, m, w, 1+rng.Intn(30)) {
			for _, k := range kernels {
				exactEng, _ := New(tr, k)
				for _, method := range []bound.Method{bound.SOTA, bound.KARL} {
					e, err := New(tr, k, WithMethod(method))
					if err != nil {
						t.Fatal(err)
					}
					for qi := 0; qi < 6; qi++ {
						q := make([]float64, d)
						for j := range q {
							q[j] = rng.Float64()
						}
						exact, _ := exactEng.Exact(q)
						// Thresholds around the exact value stress the
						// decision boundary; far thresholds stress pruning.
						for _, tau := range []float64{exact * 0.5, exact * 0.99, exact * 1.01, exact * 2, exact + 1, exact - 1} {
							got, _, err := e.Threshold(q, tau)
							if err != nil {
								t.Fatal(err)
							}
							if want := exact > tau; got != want && math.Abs(exact-tau) > 1e-9*(1+math.Abs(exact)) {
								t.Fatalf("trial %d %v %v %v: Threshold(τ=%v) = %v, exact %v",
									trial, tr.Kind, method, k.Kind, tau, got, exact)
							}
						}
					}
				}
			}
		}
	}
}

// TestApproximateGuarantee verifies the eKAQ contract (Problem 2): the
// returned value is within relative error eps of the exact aggregate.
func TestApproximateGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 10; trial++ {
		n := 100 + rng.Intn(500)
		d := 1 + rng.Intn(4)
		m := makeClustered(rng, n, d, 3, 0.05)
		var w []float64
		if trial%2 == 1 {
			w = make([]float64, n)
			for i := range w {
				w[i] = rng.Float64() + 0.01
			}
		}
		for _, tr := range buildBoth(t, m, w, 16) {
			k := kernel.NewGaussian(2 + rng.Float64()*10)
			for _, method := range []bound.Method{bound.SOTA, bound.KARL} {
				e, _ := New(tr, k, WithMethod(method))
				exactEng, _ := New(tr, k)
				for qi := 0; qi < 8; qi++ {
					q := make([]float64, d)
					for j := range q {
						q[j] = rng.Float64()
					}
					for _, eps := range []float64{0.05, 0.2, 0.5} {
						got, _, err := e.Approximate(q, eps)
						if err != nil {
							t.Fatal(err)
						}
						exact, _ := exactEng.Exact(q)
						if exact == 0 {
							if got != 0 {
								t.Fatalf("exact 0 but approx %v", got)
							}
							continue
						}
						rel := math.Abs(got-exact) / math.Abs(exact)
						if rel > eps+1e-9 {
							t.Fatalf("trial %d %v %v ε=%v: rel error %v (got %v exact %v)",
								trial, tr.Kind, method, eps, rel, got, exact)
						}
					}
				}
			}
		}
	}
}

// TestTypeIIIApproximate exercises the generalized mixed-sign eKAQ path.
func TestTypeIIIApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	n, d := 300, 3
	m := makeClustered(rng, n, d, 2, 0.05)
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	tr, _ := kdtree.Build(m, w, 8)
	k := kernel.NewGaussian(5)
	e, _ := New(tr, k)
	for qi := 0; qi < 10; qi++ {
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.Float64()
		}
		got, _, err := e.Approximate(q, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		exact, _ := e.Exact(q)
		if exact == 0 {
			continue
		}
		if rel := math.Abs(got-exact) / math.Abs(exact); rel > 0.2+1e-9 {
			t.Fatalf("q %d: rel error %v", qi, rel)
		}
	}
}

// TestKARLNeedsFewerIterations reproduces the mechanism behind every
// speedup table in the paper: with tighter bounds, KARL terminates TKAQ
// refinement in fewer iterations than SOTA.
func TestKARLNeedsFewerIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	n, d := 4000, 5
	m := makeClustered(rng, n, d, 5, 0.03)
	tr, _ := kdtree.Build(m, nil, 32)
	k := kernel.NewGaussian(8)
	karl, _ := New(tr, k, WithMethod(bound.KARL))
	sota, _ := New(tr, k, WithMethod(bound.SOTA))
	var karlIters, sotaIters int
	for qi := 0; qi < 40; qi++ {
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.Float64()
		}
		exact, _ := karl.Exact(q)
		tau := exact * 1.1
		_, ks, _ := karl.Threshold(q, tau)
		_, ss, _ := sota.Threshold(q, tau)
		karlIters += ks.Iterations
		sotaIters += ss.Iterations
	}
	if karlIters >= sotaIters {
		t.Fatalf("KARL used %d iterations, SOTA %d — expected strictly fewer", karlIters, sotaIters)
	}
}

// TestMaxDepthSimulation checks the in-situ T_i view: answers stay correct
// at every depth limit and depth 1 scans everything at the root's children.
func TestMaxDepthSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	n, d := 500, 3
	m := makeClustered(rng, n, d, 3, 0.05)
	tr, _ := kdtree.Build(m, nil, 4)
	k := kernel.NewGaussian(4)
	full, _ := New(tr, k)
	q := make([]float64, d)
	for j := range q {
		q[j] = rng.Float64()
	}
	exact, _ := full.Exact(q)
	tau := exact * 1.05
	want := exact > tau
	for depth := 1; depth <= tr.Height; depth++ {
		e, _ := New(tr, k, WithMaxDepth(depth))
		got, stats, err := e.Threshold(q, tau)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("depth %d: Threshold = %v want %v", depth, got, want)
		}
		if depth == 1 && stats.PointsScanned != 0 && stats.PointsScanned < n {
			// At depth 1 any refinement scans a full child subtree.
			if stats.Iterations > 1 {
				t.Fatalf("depth 1 should expand at most the root, did %d", stats.Iterations)
			}
		}
	}
}

func TestExactMatchesKernelAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	n, d := 200, 4
	m := makeClustered(rng, n, d, 2, 0.1)
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	tr, _ := kdtree.Build(m, w, 8)
	k := kernel.NewGaussian(3)
	e, _ := New(tr, k)
	q := []float64{0.5, 0.5, 0.5, 0.5}
	got, err := e.Exact(q)
	if err != nil {
		t.Fatal(err)
	}
	want := kernel.Aggregate(k, q, m, w)
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("Exact = %v want %v", got, want)
	}
}

// TestTraceThreshold validates the Figure 6 instrumentation: bounds must be
// monotonically tightening and bracket the exact value at every iteration.
func TestTraceThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n, d := 1000, 4
	m := makeClustered(rng, n, d, 3, 0.05)
	tr, _ := kdtree.Build(m, nil, 8)
	k := kernel.NewGaussian(6)
	q := make([]float64, d)
	for j := range q {
		q[j] = rng.Float64()
	}
	for _, method := range []bound.Method{bound.SOTA, bound.KARL} {
		e, _ := New(tr, k, WithMethod(method))
		exact, _ := e.Exact(q)
		trace, err := e.TraceThreshold(q, exact*1.02, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(trace) == 0 {
			t.Fatal("empty trace")
		}
		tol := 1e-7 * (1 + math.Abs(exact))
		for i, pt := range trace {
			if pt.LB > exact+tol || pt.UB < exact-tol {
				t.Fatalf("%v iter %d: [%v,%v] excludes exact %v", method, i, pt.LB, pt.UB, exact)
			}
			if i > 0 {
				prev := trace[i-1]
				if pt.LB < prev.LB-tol || pt.UB > prev.UB+tol {
					t.Fatalf("%v iter %d: bounds widened: [%v,%v] after [%v,%v]",
						method, i, pt.LB, pt.UB, prev.LB, prev.UB)
				}
			}
		}
	}
}

func TestTraceMaxIterCaps(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	m := makeClustered(rng, 2000, 3, 2, 0.02)
	tr, _ := kdtree.Build(m, nil, 2)
	e, _ := New(tr, kernel.NewGaussian(100), WithMethod(bound.SOTA))
	q := []float64{0.5, 0.5, 0.5}
	exact, _ := e.Exact(q)
	trace, err := e.TraceThreshold(q, exact, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) > 5 {
		t.Fatalf("trace length %d exceeds cap 5", len(trace))
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	m := makeClustered(rng, 100, 2, 1, 0.1)
	tr, _ := kdtree.Build(m, nil, 8)
	e, _ := New(tr, kernel.NewGaussian(2), WithMethod(bound.SOTA), WithMaxDepth(3))
	c := e.Clone()
	if c.Tree() != e.Tree() || c.Method() != e.Method() || c.Kernel() != e.Kernel() {
		t.Fatal("Clone must preserve configuration and share the tree")
	}
	// Both engines answer identically.
	q := []float64{0.5, 0.5}
	g1, _, _ := e.Threshold(q, 1)
	g2, _, _ := c.Threshold(q, 1)
	if g1 != g2 {
		t.Fatal("clone disagrees with original")
	}
}

func TestSinglePointTree(t *testing.T) {
	m := vec.FromRows([][]float64{{0.5, 0.5}})
	tr, _ := kdtree.Build(m, nil, 4)
	e, _ := New(tr, kernel.NewGaussian(1))
	got, _, err := e.Threshold([]float64{0.5, 0.5}, 0.5)
	if err != nil || !got {
		t.Fatalf("Threshold on single point: %v %v", got, err)
	}
	v, _, err := e.Approximate([]float64{0.5, 0.5}, 0.1)
	if err != nil || math.Abs(v-1) > 1e-12 {
		t.Fatalf("Approximate on single point = %v", v)
	}
}

func TestStatsAreReported(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	m := makeClustered(rng, 1000, 3, 2, 0.05)
	tr, _ := kdtree.Build(m, nil, 8)
	e, _ := New(tr, kernel.NewGaussian(50), WithMethod(bound.SOTA))
	q := []float64{0.5, 0.5, 0.5}
	exact, _ := e.Exact(q)
	_, stats, _ := e.Threshold(q, exact) // borderline τ forces deep refinement
	if stats.Iterations == 0 && stats.PointsScanned == 0 {
		t.Fatal("stats empty after refinement")
	}
	if stats.UB < stats.LB {
		t.Fatalf("final bounds inverted: [%v,%v]", stats.LB, stats.UB)
	}
}

// TestApproximateSpendsEps is the eKAQ contract over one seeded dataset of
// each weighting type, with the error it actually reaches logged: the
// answer stays within ε of the exact aggregate, and on non-negative weights
// it now uses more than the half of ε the rule ub ≤ (1+ε)·lb stopped at.
func TestApproximateSpendsEps(t *testing.T) {
	rng := rand.New(rand.NewSource(2525))
	n, d := 4000, 3
	for _, typ := range []string{"I", "II", "III"} {
		m := makeClustered(rng, n, d, 6, 0.05)
		var w []float64
		if typ != "I" {
			w = make([]float64, n)
			for i := range w {
				w[i] = rng.Float64() + 0.01
				if typ == "III" {
					w[i] = rng.NormFloat64()
				}
			}
		}
		tr, err := kdtree.Build(m, w, 16)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := New(tr, kernel.NewGaussian(20))
		for _, eps := range []float64{0.05, 0.2, 0.5} {
			var worst float64
			for qi := 0; qi < 200; qi++ {
				q := make([]float64, d)
				for j := range q {
					q[j] = rng.Float64()
				}
				got, _, err := e.Approximate(q, eps)
				if err != nil {
					t.Fatal(err)
				}
				exact, _ := e.Exact(q)
				if exact == 0 {
					if got != 0 {
						t.Fatalf("type %s: exact 0 but approximate %v", typ, got)
					}
					continue
				}
				worst = math.Max(worst, math.Abs(got-exact)/math.Abs(exact)/eps)
			}
			t.Logf("type %s ε=%v: max err/ε %.4f", typ, eps, worst)
			if worst > 1+1e-9 {
				t.Errorf("type %s ε=%v: error reached %.4f of ε", typ, eps, worst)
			}
			if typ != "III" && worst <= 0.5 {
				t.Errorf("type %s ε=%v: error reached only %.4f of ε: refinement still stops at ε/2", typ, eps, worst)
			}
		}
	}
}

// TestMaxDepthOverEmptyCells: the in-situ tuning view — refinement cut off
// at a depth, the frontier scanned whole — over a tree cut on another
// tree's skeleton, whose frontier includes cells that own no rows.
func TestMaxDepthOverEmptyCells(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	founder, err := kdtree.Build(makeClustered(rng, 600, 2, 3, 0.05), nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := makeClustered(rng, 50, 2, 1, 0.01)
	tr, err := kdtree.BuildOn(m, nil, kdtree.SkeletonOf(founder), 8)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.NewGaussian(4)
	sc, err := scan.NewScanner(m, nil, k)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.5, 0.5}
	want := sc.Aggregate(q)
	for depth := 0; depth <= tr.Height; depth++ {
		e, err := New(tr, k, WithMaxDepth(depth))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := e.Approximate(q, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.05*want+1e-12 {
			t.Fatalf("depth %d: Approximate %v, exact %v", depth, got, want)
		}
		for _, tau := range []float64{want * 0.95, want * 1.05} {
			if over, _, _ := e.Threshold(q, tau); over != (want > tau) {
				t.Fatalf("depth %d: Threshold(τ=%v) = %v, exact %v", depth, tau, over, want)
			}
		}
	}
}
