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

// buildSegments splits the rows of m (and weights) into nseg contiguous
// chunks and builds one tree per chunk.
func buildSegments(t *testing.T, build func(*vec.Matrix, []float64, int) (*index.Tree, error),
	m *vec.Matrix, w []float64, nseg, leafCap int) []*index.Tree {
	t.Helper()
	var trees []*index.Tree
	per := m.Rows / nseg
	for s := 0; s < nseg; s++ {
		lo := s * per
		hi := lo + per
		if s == nseg-1 {
			hi = m.Rows
		}
		sub := vec.NewMatrix(hi-lo, m.Cols)
		copy(sub.Data, m.Data[lo*m.Cols:hi*m.Cols])
		var sw []float64
		if w != nil {
			sw = append(sw, w[lo:hi]...)
		}
		tr, err := build(sub, sw, leafCap)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	return trees
}

// TestForestEquivalence: refinement over a partition of the point set into
// segments sharing one global queue must agree with the scan oracle over
// the union, for every index kind × weighting type × kernel family.
func TestForestEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
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
		n := 300 + rng.Intn(500)
		d := 2 + rng.Intn(4)
		m := makeClustered(rng, n, d, 1+rng.Intn(3), 0.05)
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
		nseg := 2 + rng.Intn(4)
		for _, b := range builders {
			trees := buildSegments(t, b.build, m, w, nseg, 1+rng.Intn(24))
			for _, k := range kernels {
				sc, err := scan.NewScanner(m, w, k)
				if err != nil {
					t.Fatal(err)
				}
				f, err := NewForest(k, bound.KARL)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.SetTrees(trees, nil); err != nil {
					t.Fatal(err)
				}
				if f.Len() != n {
					t.Fatalf("forest Len = %d want %d", f.Len(), n)
				}
				for qi := 0; qi < 5; qi++ {
					q := make([]float64, d)
					for j := range q {
						q[j] = rng.Float64()
					}
					want := sc.Aggregate(q)
					tol := 1e-9 * (1 + math.Abs(want))
					got, st, err := f.Exact(q, 0)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(got-want) > tol {
						t.Fatalf("%s %v: Exact = %v, oracle %v", b.name, k.Kind, got, want)
					}
					if st.PointsScanned != n {
						t.Fatalf("Exact scanned %d points, want %d", st.PointsScanned, n)
					}
					for _, tau := range []float64{want * 0.7, want * 1.3, want + 0.5, want - 0.5} {
						if math.Abs(want-tau) <= tol {
							continue
						}
						gt, _, err := f.Threshold(q, tau, 0)
						if err != nil {
							t.Fatal(err)
						}
						if gt != (want > tau) {
							t.Fatalf("%s %v: Threshold(τ=%v) = %v, oracle %v", b.name, k.Kind, tau, gt, want)
						}
					}
					approx, _, err := f.Approximate(q, 0.1, 0)
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

// TestForestBaseTerm: the exact base term must be folded into answers and
// guarantees. A base that pushes the total over/under the threshold must
// flip the decision, and the approximate guarantee is relative to the
// total including the base.
func TestForestBaseTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	n, d := 600, 3
	m := makeClustered(rng, n, d, 2, 0.05)
	k := kernel.NewGaussian(4)
	tr, err := kdtree.Build(m, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewForest(k, bound.KARL)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetTrees([]*index.Tree{tr}, nil); err != nil {
		t.Fatal(err)
	}
	q := []float64{0.4, 0.5, 0.6}
	exact, _, err := f.Exact(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := 7.5
	// Threshold between exact and exact+base: only the base pushes it over.
	tau := exact + base/2
	over, _, err := f.Threshold(q, tau, base)
	if err != nil {
		t.Fatal(err)
	}
	if !over {
		t.Fatalf("Threshold(τ=%v, base=%v) = false, total %v", tau, base, exact+base)
	}
	over, _, err = f.Threshold(q, tau, 0)
	if err != nil {
		t.Fatal(err)
	}
	if over {
		t.Fatal("Threshold without base should be under")
	}
	got, _, err := f.Approximate(q, 0.05, base)
	if err != nil {
		t.Fatal(err)
	}
	total := exact + base
	if rel := math.Abs(got-total) / total; rel > 0.05+1e-9 {
		t.Fatalf("Approximate with base: rel error %v", rel)
	}
	v, _, err := f.Exact(q, base)
	if err != nil {
		t.Fatal(err)
	}
	if v != exact+base {
		t.Fatalf("Exact with base = %v want %v", v, exact+base)
	}
}

// TestForestEmpty: a forest with no segments answers from the base term
// alone — the state of a dynamic engine before its first seal.
func TestForestEmpty(t *testing.T) {
	f, err := NewForest(kernel.NewGaussian(1), bound.KARL)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetTrees(nil, nil); err != nil {
		t.Fatal(err)
	}
	q := []float64{0.5}
	if v, _, err := f.Exact(q, 3.25); err != nil || v != 3.25 {
		t.Fatalf("Exact = %v, %v", v, err)
	}
	if over, _, err := f.Threshold(q, 3, 3.25); err != nil || !over {
		t.Fatalf("Threshold = %v, %v", over, err)
	}
	if v, _, err := f.Approximate(q, 0.1, 3.25); err != nil || v != 3.25 {
		t.Fatalf("Approximate = %v, %v", v, err)
	}
}

// TestForestGroupsOnSkeleton: segments cut on one kd skeleton refine as one
// group — empty cells and all — whose answers hold their contracts against
// the scan over the union, including when each segment carries its own
// decay scale, folded into the group through its relative scale.
func TestForestGroupsOnSkeleton(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	d := 3
	founder := makeClustered(rng, 900, d, 3, 0.05)
	ft, err := kdtree.Build(founder, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	sk := kdtree.SkeletonOf(ft)
	trees := []*index.Tree{ft}
	rel := []float64{1}
	all := founder.Clone()
	weights := make([]float64, founder.Rows)
	for i := range weights {
		weights[i] = 1
	}
	for s := 0; s < 3; s++ {
		// Small, lopsided segments: most cells of the skeleton stay empty.
		m := makeClustered(rng, 40+60*s, d, 1, 0.02)
		w := make([]float64, m.Rows)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		tr, err := kdtree.BuildOn(m, w, sk, 16)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.SameShape(ft) {
			t.Fatal("a build on the skeleton lost its shape")
		}
		trees = append(trees, tr)
		rel = append(rel, math.Exp2(-float64(s+1)))
		all = vec.FromRows(append(rowsOf(all), rowsOf(m)...))
		for _, v := range w {
			weights = append(weights, v*rel[s+1])
		}
	}
	k := kernel.NewGaussian(6)
	sc, err := scan.NewScanner(all, weights, k)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewForest(k, bound.KARL)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetTrees(trees, rel); err != nil {
		t.Fatal(err)
	}
	// Per-query scales proportional to rel, as decay makes them.
	scales := make([]float64, len(rel))
	for i := range rel {
		scales[i] = 0.75 * rel[i]
	}
	if err := f.SetScales(scales); err != nil {
		t.Fatal(err)
	}
	if f.Groups() != 1 {
		t.Fatalf("%d groups over one skeleton, want 1", f.Groups())
	}
	for qi := 0; qi < 40; qi++ {
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.Float64()
		}
		want := 0.75 * sc.Aggregate(q)
		tol := 1e-9 * (1 + math.Abs(want))
		for _, tau := range []float64{want - 0.05*math.Abs(want) - 1e-3, want + 0.05*math.Abs(want) + 1e-3} {
			got, _, err := f.Threshold(q, tau, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got != (want > tau) {
				t.Fatalf("Threshold(τ=%v) = %v, oracle %v", tau, got, want)
			}
		}
		got, _, err := f.Approximate(q, 0.1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.1*math.Abs(want)+tol {
			t.Fatalf("Approximate = %v, oracle %v", got, want)
		}
	}
}

// rowsOf returns m's rows as slices.
func rowsOf(m *vec.Matrix) [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// TestForestSharedBudget: with a shared global queue, a segment whose
// contribution is already tight must not be refined while a loose segment
// has all the slack — the forest spends about what the loose segment alone
// costs.
func TestForestSharedBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	d := 3
	k := kernel.NewGaussian(8)
	// Segment 0: far from the query — its root bound is already tight. Its
	// size differs from segment 1's, so the two have different shapes and
	// refine as two queue units.
	far := vec.NewMatrix(100, d)
	for i := 0; i < far.Rows; i++ {
		for j := 0; j < d; j++ {
			far.Row(i)[j] = 50 + rng.Float64()*0.01
		}
	}
	// Segment 1: clustered around the query — needs refinement.
	near := makeClustered(rng, 500, d, 3, 0.2)
	farTree, err := kdtree.Build(far, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	nearTree, err := kdtree.Build(near, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewForest(k, bound.KARL)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetTrees([]*index.Tree{farTree, nearTree}, nil); err != nil {
		t.Fatal(err)
	}
	if f.Groups() != 2 {
		t.Fatalf("%d groups, want 2", f.Groups())
	}
	q := make([]float64, d)
	for j := range q {
		q[j] = 0.5
	}
	exact, _, err := f.Exact(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, both, err := f.Threshold(q, exact*1.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := New(nearTree, k)
	if err != nil {
		t.Fatal(err)
	}
	_, nearOnly, err := alone.Threshold(q, exact*1.02)
	if err != nil {
		t.Fatal(err)
	}
	// The far segment's root interval is tiny (all its mass is ~50 units
	// away, kernel ≈ 0 with a sharp slope bound), so virtually all pops
	// should land on the near segment.
	if both.NodesExpanded > nearOnly.NodesExpanded+2 {
		t.Fatalf("budget misdirected: the forest expanded %d nodes, the near segment alone %d",
			both.NodesExpanded, nearOnly.NodesExpanded)
	}
}

// TestForestZeroAllocSteadyState: the multi-segment hot path must stay
// allocation-free once the queue storage is warm, matching the
// single-segment gate.
func TestForestZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	d := 4
	m := makeClustered(rng, 4000, d, 3, 0.05)
	k := kernel.NewGaussian(10)
	trees := buildSegments(t, kdtree.Build, m, nil, 3, 32)
	f, err := NewForest(k, bound.KARL)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetTrees(trees, nil); err != nil {
		t.Fatal(err)
	}
	if f.Groups() != 1 {
		t.Fatalf("three segments of one shape refine as %d groups, want 1", f.Groups())
	}
	q := make([]float64, d)
	for j := range q {
		q[j] = rng.Float64()
	}
	exact, _, _ := f.Exact(q, 0)
	tau := exact * 1.05
	for i := 0; i < 3; i++ {
		if _, _, err := f.Threshold(q, tau, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Approximate(q, 0.1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := f.Threshold(q, tau, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("multi-segment Threshold allocates %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := f.Approximate(q, 0.1, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("multi-segment Approximate allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestForestSetTreesValidation pins the dimension and emptiness checks.
func TestForestSetTreesValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	m2 := makeClustered(rng, 50, 2, 1, 0.1)
	m3 := makeClustered(rng, 50, 3, 1, 0.1)
	t2, err := kdtree.Build(m2, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := kdtree.Build(m3, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewForest(kernel.NewGaussian(1), bound.KARL)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetTrees([]*index.Tree{t2, t3}, nil); err == nil {
		t.Fatal("mixed-dims segment set accepted")
	}
	if err := f.SetTrees([]*index.Tree{t2, nil}, nil); err == nil {
		t.Fatal("nil segment accepted")
	}
	if err := f.SetTrees([]*index.Tree{t2}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Threshold([]float64{1, 2, 3}, 0, 0); err == nil {
		t.Fatal("wrong-dims query accepted")
	}
}

// TestFastPathCounter pins exactly when the single-segment fast path runs:
// a lone tree with no scales, base term or trace — and that the generic
// loop produces identical answers when it is bypassed.
func TestFastPathCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(817))
	n, d := 400, 3
	m := makeClustered(rng, n, d, 2, 0.05)
	tr, err := kdtree.Build(m.Clone(), nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.NewGaussian(5)
	q := make([]float64, d)
	for j := range q {
		q[j] = rng.Float64()
	}

	e, err := New(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := e.Exact(q)
	tau := exact * 1.1
	if e.FastPathQueries() != 0 {
		t.Fatal("counter must start at zero")
	}
	hot, st, err := e.Threshold(q, tau)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Approximate(q, 0.1); err != nil {
		t.Fatal(err)
	}
	if got := e.FastPathQueries(); got != 2 {
		t.Fatalf("static single-tree engine served %d fast-path queries, want 2", got)
	}
	if _, err := e.Exact(q); err != nil {
		t.Fatal(err)
	}
	if got := e.FastPathQueries(); got != 2 {
		t.Fatalf("Exact must not route through refinement (counter %d)", got)
	}

	// The generic loop (forced here via a unit scale) must agree with the
	// fast path bitwise: same arithmetic, same expansion order.
	f, err := NewForest(k, bound.KARL)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetTrees([]*index.Tree{tr}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := f.SetScales([]float64{1}); err != nil {
		t.Fatal(err)
	}
	ghot, gst, err := f.Threshold(q, tau, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.FastPathQueries() != 0 {
		t.Fatal("scaled query must bypass the fast path")
	}
	if ghot != hot || gst.LB != st.LB || gst.UB != st.UB {
		t.Fatalf("generic loop diverged from fast path: %v [%v,%v] vs %v [%v,%v]",
			ghot, gst.LB, gst.UB, hot, st.LB, st.UB)
	}

	// Base term and traces bypass too.
	if err := f.SetScales(nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Threshold(q, tau, 0.5); err != nil {
		t.Fatal(err)
	}
	if f.FastPathQueries() != 0 {
		t.Fatal("base term must bypass the fast path")
	}
	if _, err := f.TraceThreshold(q, tau, 0, 0); err != nil {
		t.Fatal(err)
	}
	if f.FastPathQueries() != 0 {
		t.Fatal("bound traces must bypass the fast path")
	}
	if _, _, err := f.Threshold(q, tau, 0); err != nil {
		t.Fatal(err)
	}
	if f.FastPathQueries() != 1 {
		t.Fatal("plain single-segment query must take the fast path")
	}
}

// TestApproxCertificateIsTight holds CondApprox to its definition: true
// exactly when the midpoint of [lb, ub] is within ε·|F| of every F in it —
// of both ends, and of zero when the interval holds zero, which only a zero
// midpoint is — at any sign pattern, and never on NaN. (The one interval it
// refuses though its midpoint would do is lb = −ub ≠ 0 at ε ≥ 1; the table
// pins that.) The float64 comparison may round either way within a few ulp
// of the boundary, so the two directions are checked a hair apart.
func TestApproxCertificateIsTight(t *testing.T) {
	within := func(lb, ub, eps, slack float64) bool {
		mid := (lb + ub) / 2
		if lb <= 0 && ub >= 0 && mid != 0 {
			return false
		}
		return mid-lb <= eps*math.Abs(lb)*slack && ub-mid <= eps*math.Abs(ub)*slack
	}
	check := func(lb, ub, eps float64) {
		t.Helper()
		got := CondApprox(lb, ub, eps, 0)
		if got && !within(lb, ub, eps, 1+1e-12) {
			t.Errorf("CondApprox(%v, %v, %v) = true, but the midpoint is more than ε from an end", lb, ub, eps)
		}
		if !got && within(lb, ub, eps, 1-1e-12) {
			t.Errorf("CondApprox(%v, %v, %v) = false, but the midpoint is within ε of both ends", lb, ub, eps)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	epsilons := []float64{0.01, 0.1, 0.2, 1, 10}
	for _, eps := range epsilons {
		for _, c := range []struct {
			lb, ub float64
			want   bool
		}{
			{0, 0, true}, {5, 5, true}, {-5, -5, true},
			{0, 1, false}, {-1, 0, false}, {-1, 1, false}, {-1e-300, 1, false},
			{1, 1 + 2*eps*0.999, true}, {1, 1 + 2*eps*1.001, false},
			{-(1 + 2*eps*0.999), -1, true}, {-(1 + 2*eps*1.001), -1, false},
			{nan, 1, false}, {1, nan, false}, {nan, nan, false},
			{-inf, inf, false}, {1, inf, false}, {-1, inf, false}, {-inf, -1, false}, {-inf, 1, false},
		} {
			if got := CondApprox(c.lb, c.ub, eps, 0); got != c.want {
				t.Errorf("CondApprox(%v, %v, %v) = %v, want %v", c.lb, c.ub, eps, got, c.want)
			}
		}
		if CondApprox(1, 2, nan, 0) {
			t.Error("CondApprox(1, 2, NaN) = true")
		}
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 200000; i++ {
		eps := epsilons[rng.Intn(len(epsilons))]
		// Mostly gaps on both sides of the boundary, ub − lb ≈ 2ε·|lb|, some
		// unrelated ends of either sign; magnitudes from e⁻³⁰ to e³⁰.
		lb := rng.NormFloat64() * math.Exp(rng.Float64()*60-30)
		ub := lb + math.Abs(lb)*4*eps*rng.Float64()
		if rng.Intn(4) == 0 {
			ub = lb + math.Abs(rng.NormFloat64())*math.Exp(rng.Float64()*60-30)
		}
		check(lb, ub, eps)
	}
}

// TestApproxAbsoluteArm holds CondApprox's absolute budget to its
// definition: with abs > 0 it passes exactly when the relative test passes
// or (ub − lb)/2 ≤ abs, at any sign and any ε including 0, and never on an
// infinite gap or NaN.
func TestApproxAbsoluteArm(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		lb, ub, eps, abs float64
		want             bool
	}{
		{-1, 1, 0, 1, true}, {-1, 1, 0, 0.999, false},
		{10, 12, 0, 1, true}, {10, 12.5, 0, 1, false},
		{10, 12.5, 0.2, 1, true}, // the relative arm: 12.5 ≤ 1.4·10
		{0, 0, 0, 0, true}, {3, 3, 0, 0, true}, {3, 3.5, 0, 0, false},
		{-inf, inf, 0, 1e300, false}, {1, inf, 0.5, inf, false},
		{nan, 1, 0, 1, false}, {1, nan, 0, 1, false},
	} {
		if got := CondApprox(c.lb, c.ub, c.eps, c.abs); got != c.want {
			t.Errorf("CondApprox(%v, %v, %v, %v) = %v, want %v", c.lb, c.ub, c.eps, c.abs, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 100000; i++ {
		lb := rng.NormFloat64() * math.Exp(rng.Float64()*20-10)
		ub := lb + math.Abs(rng.NormFloat64())*math.Exp(rng.Float64()*20-10)
		abs := math.Abs(rng.NormFloat64()) * math.Exp(rng.Float64()*20-10)
		eps := []float64{0, 0.01, 0.1, 1}[rng.Intn(4)]
		want := (ub-lb)/2 <= abs || eps > 0 && CondApprox(lb, ub, eps, 0)
		if got := CondApprox(lb, ub, eps, abs); got != want {
			t.Fatalf("CondApprox(%v, %v, %v, %v) = %v, want %v", lb, ub, eps, abs, got, want)
		}
	}
}
