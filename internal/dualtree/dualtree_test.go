package dualtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"karl/internal/bound"
	"karl/internal/core"
	"karl/internal/index"
	"karl/internal/kdtree"
	"karl/internal/kernel"
	"karl/internal/vec"
)

// buildSegments builds nseg kd-tree segments over clustered points with the
// given weight signs mix.
func buildSegments(t *testing.T, rng *rand.Rand, nseg, perSeg, dim int, signed bool) []*index.Tree {
	t.Helper()
	trees := make([]*index.Tree, nseg)
	for s := 0; s < nseg; s++ {
		pts := make([][]float64, perSeg)
		ws := make([]float64, perSeg)
		for i := range pts {
			p := make([]float64, dim)
			c := float64(i%4) * 0.3
			for j := range p {
				p[j] = c + rng.NormFloat64()*0.1
			}
			pts[i] = p
			ws[i] = 0.2 + rng.Float64()
			if signed && rng.Intn(4) == 0 {
				ws[i] = -ws[i]
			}
		}
		tree, err := kdtree.Build(vec.FromRows(pts), ws, 8)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		trees[s] = tree
	}
	return trees
}

func testQueries(rng *rand.Rand, n, dim int) *vec.Matrix {
	rows := make([][]float64, n)
	for i := range rows {
		q := make([]float64, dim)
		for j := range q {
			q[j] = rng.Float64() * 1.2
		}
		rows[i] = q
	}
	return vec.FromRows(rows)
}

func testKernelsDT() []kernel.Params {
	return []kernel.Params{
		{Kind: kernel.Gaussian, Gamma: 2},
		{Kind: kernel.Polynomial, Gamma: 0.5, Beta: 0.3, Degree: 2},
		{Kind: kernel.Sigmoid, Gamma: 0.4, Beta: 0.1},
	}
}

// TestDualMatchesSequentialContracts is the package-level equivalence gate:
// for segment sets with scales and per-query bases, the dual-tree answers
// must satisfy the exact sequential contracts — a certified ε interval for
// Approximate, identical verdicts for Threshold.
func TestDualMatchesSequentialContracts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for ki, k := range testKernelsDT() {
		for _, signed := range []bool{false, true} {
			for _, withBase := range []bool{false, true} {
				dim := 3
				trees := buildSegments(t, rng, 3, 120, dim, signed)
				scales := []float64{1, 0.7, 0.45}
				queries := testQueries(rng, 200, dim)
				var base []float64
				if withBase {
					base = make([]float64, queries.Rows)
					for i := range base {
						base[i] = rng.Float64() * 0.3
					}
				}

				cfg := Config{Kernel: k, Method: bound.KARL, LeafCap: 8}
				x, err := New(cfg, trees)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if err := x.SetScales(scales); err != nil {
					t.Fatalf("SetScales: %v", err)
				}
				seq, err := core.NewForest(k, bound.KARL)
				if err != nil {
					t.Fatalf("NewForest: %v", err)
				}
				if err := seq.SetTrees(trees, scales); err != nil {
					t.Fatalf("SetTrees: %v", err)
				}
				if err := seq.SetScales(scales); err != nil {
					t.Fatalf("SetScales: %v", err)
				}

				exact := make([]float64, queries.Rows)
				for i := 0; i < queries.Rows; i++ {
					b := 0.0
					if base != nil {
						b = base[i]
					}
					v, _, err := seq.Exact(queries.Row(i), b)
					if err != nil {
						t.Fatalf("Exact: %v", err)
					}
					exact[i] = v
				}

				// Approximate: within eps of the exact value (same contract
				// the sequential midpoint satisfies).
				const eps = 0.05
				outV := make([]float64, queries.Rows)
				st, err := x.Approximate(queries, eps, base, outV)
				if err != nil {
					t.Fatalf("Approximate: %v", err)
				}
				if st.Queries != queries.Rows {
					t.Fatalf("stats queries %d != %d", st.Queries, queries.Rows)
				}
				for i := range outV {
					if err := checkEps(outV[i], exact[i], eps); err != nil {
						t.Fatalf("kernel %d signed=%v base=%v: query %d: %v", ki, signed, withBase, i, err)
					}
				}

				// Threshold: identical verdict away from ties.
				tau := median(exact)
				outB := make([]bool, queries.Rows)
				if _, err := x.Threshold(queries, tau, base, outB); err != nil {
					t.Fatalf("Threshold: %v", err)
				}
				for i := range outB {
					if near(exact[i], tau) {
						continue // a bound tie may legitimately differ
					}
					if outB[i] != (exact[i] > tau) {
						t.Fatalf("kernel %d signed=%v base=%v: Threshold[%d] = %v, exact %v vs tau %v",
							ki, signed, withBase, i, outB[i], exact[i], tau)
					}
				}
			}
		}
	}
}

// checkEps verifies the ε-approximation contract |got − exact| ≤ ε·|exact|.
func checkEps(got, exact, eps float64) error {
	tol := eps*math.Abs(exact) + 1e-12
	if d := math.Abs(got - exact); d > tol {
		return fmt.Errorf("approx %v vs exact %v: error %v exceeds eps %v", got, exact, d, eps)
	}
	return nil
}

func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	return c[len(c)/2]
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// TestDuplicateQueryBatch: all queries identical means the query tree is one
// degenerate leaf whose rectangle is a point — group bounds match per-query
// bounds, so a single certification pass answers every copy identically.
func TestDuplicateQueryBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dim := 4
	trees := buildSegments(t, rng, 2, 150, dim, false)
	q := make([]float64, dim)
	for j := range q {
		q[j] = 0.4
	}
	rows := make([][]float64, 300)
	for i := range rows {
		rows[i] = q
	}
	m := vec.FromRows(rows)

	x, err := New(Config{Kernel: kernel.Params{Kind: kernel.Gaussian, Gamma: 2}, Method: bound.KARL}, trees)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	out := make([]float64, m.Rows)
	st, err := x.Approximate(m, 0.05, nil, out)
	if err != nil {
		t.Fatalf("Approximate: %v", err)
	}
	for i := 1; i < len(out); i++ {
		if out[i] != out[0] {
			t.Fatalf("duplicate queries got different answers: out[%d]=%v out[0]=%v", i, out[i], out[0])
		}
	}
	seq, _ := core.NewForest(kernel.Params{Kind: kernel.Gaussian, Gamma: 2}, bound.KARL)
	if err := seq.SetTrees(trees, nil); err != nil {
		t.Fatalf("SetTrees: %v", err)
	}
	exact, _, err := seq.Exact(q, 0)
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	if err := checkEps(out[0], exact, 0.05); err != nil {
		t.Fatalf("duplicate batch: %v", err)
	}
	// All queries fall in one leaf (width-0 split): the whole batch should
	// resolve without any per-query fallback.
	if st.Fallbacks != 0 {
		t.Fatalf("duplicate batch used %d fallbacks", st.Fallbacks)
	}
	// With a looser budget the group bounds certify before any exact scan:
	// one certification pass answers every copy.
	st, err = x.Approximate(m, 0.25, nil, out)
	if err != nil {
		t.Fatalf("Approximate: %v", err)
	}
	if st.GroupCertified != m.Rows {
		t.Fatalf("duplicate batch: GroupCertified = %d, want %d (one certificate for all)", st.GroupCertified, m.Rows)
	}
	if st.PointsScanned != 0 {
		t.Fatalf("duplicate batch scanned %d points; group bounds should certify alone", st.PointsScanned)
	}
}

// TestDualEmptySegments: with no segments the answers are just the base
// term, exactly.
func TestDualEmptySegments(t *testing.T) {
	x, err := New(Config{Kernel: kernel.Params{Kind: kernel.Gaussian, Gamma: 1}, Method: bound.KARL}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := vec.FromRows([][]float64{{1, 2}, {3, 4}})
	base := []float64{0.5, -0.5}
	out := make([]float64, 2)
	if _, err := x.Approximate(m, 0.1, base, out); err != nil {
		t.Fatalf("Approximate: %v", err)
	}
	if out[0] != 0.5 || out[1] != -0.5 {
		t.Fatalf("empty-segment answers %v, want bases", out)
	}
	outB := make([]bool, 2)
	if _, err := x.Threshold(m, 0, base, outB); err != nil {
		t.Fatalf("Threshold: %v", err)
	}
	if !outB[0] || outB[1] {
		t.Fatalf("empty-segment verdicts %v", outB)
	}
}

// TestDualAblationMethods exercises the KARL ablation bounding methods
// through the group path.
func TestDualAblationMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dim := 2
	trees := buildSegments(t, rng, 1, 100, dim, true)
	queries := testQueries(rng, 60, dim)
	k := kernel.Params{Kind: kernel.Gaussian, Gamma: 3}
	seq, _ := core.NewForest(k, bound.KARL)
	if err := seq.SetTrees(trees, nil); err != nil {
		t.Fatalf("SetTrees: %v", err)
	}
	for _, m := range []bound.Method{bound.SOTA, bound.KARL, bound.KARLLowerOnly, bound.KARLUpperOnly} {
		x, err := New(Config{Kernel: k, Method: m}, trees)
		if err != nil {
			t.Fatalf("New(%v): %v", m, err)
		}
		out := make([]float64, queries.Rows)
		if _, err := x.Approximate(queries, 0.1, nil, out); err != nil {
			t.Fatalf("Approximate(%v): %v", m, err)
		}
		for i := range out {
			exact, _, err := seq.Exact(queries.Row(i), 0)
			if err != nil {
				t.Fatalf("Exact: %v", err)
			}
			if err := checkEps(out[i], exact, 0.1); err != nil {
				t.Fatalf("%v query %d: %v", m, i, err)
			}
		}
	}
}

// TestDualEmptyCells: a reference segment cut on another's skeleton, most of
// its cells empty (W = 0), holds the batch contracts beside its founder.
func TestDualEmptyCells(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	trees := buildSegments(t, rng, 1, 300, 2, true)
	pts := make([][]float64, 30)
	ws := make([]float64, len(pts))
	for i := range pts {
		pts[i] = []float64{0.9 + rng.Float64()*0.05, 0.9 + rng.Float64()*0.05}
		ws[i] = rng.NormFloat64()
	}
	lop, err := kdtree.BuildOn(vec.FromRows(pts), ws, kdtree.SkeletonOf(trees[0]), 8)
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for i := range lop.Nodes {
		if lop.Nodes[i].Count() == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("no empty cell to test")
	}
	trees = append(trees, lop)
	k := kernel.Params{Kind: kernel.Gaussian, Gamma: 2}
	x, err := New(Config{Kernel: k, Method: bound.KARL, LeafCap: 8}, trees)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := core.NewForest(k, bound.KARL)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.SetTrees(trees, nil); err != nil {
		t.Fatal(err)
	}
	queries := testQueries(rng, 100, 2)
	exact := make([]float64, queries.Rows)
	for i := range exact {
		if exact[i], _, err = seq.Exact(queries.Row(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	outV := make([]float64, queries.Rows)
	if _, err := x.Approximate(queries, 0.05, nil, outV); err != nil {
		t.Fatal(err)
	}
	tau := median(exact)
	outB := make([]bool, queries.Rows)
	if _, err := x.Threshold(queries, tau, nil, outB); err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if err := checkEps(outV[i], exact[i], 0.05); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !near(exact[i], tau) && outB[i] != (exact[i] > tau) {
			t.Fatalf("query %d: Threshold %v, exact %v vs τ %v", i, outB[i], exact[i], tau)
		}
	}
}
