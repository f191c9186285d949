package kdtree

import (
	"math"
	"math/rand"
	"testing"

	"karl/internal/index"
	"karl/internal/vec"
)

func randMatrix(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil, nil, 4); err == nil {
		t.Fatal("nil matrix accepted")
	}
	if _, err := Build(vec.NewMatrix(0, 3), nil, 4); err == nil {
		t.Fatal("empty matrix accepted")
	}
	m := vec.NewMatrix(5, 2)
	if _, err := Build(m, nil, 0); err == nil {
		t.Fatal("leafCap=0 accepted")
	}
	if _, err := Build(m, []float64{1, 2}, 4); err == nil {
		t.Fatal("weight length mismatch accepted")
	}
}

func TestBuildSinglePoint(t *testing.T) {
	m := vec.FromRows([][]float64{{1, 2, 3}})
	tr, err := Build(m, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root().IsLeaf() || tr.Height != 1 || tr.NodeCount() != 1 {
		t.Fatalf("single point tree: height=%d nodes=%d", tr.Height, tr.NodeCount())
	}
	if err := tr.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAllDuplicates(t *testing.T) {
	m := vec.NewMatrix(100, 3)
	for i := 0; i < 100; i++ {
		copy(m.Row(i), []float64{1, 1, 1})
	}
	tr, err := Build(m, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicates cannot be split: one oversized leaf, no infinite recursion.
	if !tr.Root().IsLeaf() {
		t.Fatal("expected a single oversized leaf for duplicate points")
	}
	if err := tr.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
}

func TestBuildStructureAndAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(400)
		d := 1 + rng.Intn(8)
		leafCap := 1 + rng.Intn(32)
		m := randMatrix(rng, n, d)
		var w []float64
		if trial%2 == 0 {
			w = make([]float64, n)
			for i := range w {
				w[i] = rng.NormFloat64() // mixed signs exercise Pos/Neg
			}
		}
		tr, err := Build(m, w, leafCap)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkLeafCaps(t, tr)
		checkRootAggregates(t, tr)
	}
}

// checkLeafCaps verifies every leaf holds at most LeafCap points unless it
// is a degenerate duplicate-point leaf.
func checkLeafCaps(t *testing.T, tr *index.Tree) {
	t.Helper()
	tr.Walk(func(n *index.Node) {
		if !n.IsLeaf() {
			return
		}
		if n.Count() > tr.LeafCap {
			// Permitted only when the node has zero width (duplicates).
			first := tr.Points.Row(int(n.Start))
			for i := int(n.Start) + 1; i < int(n.End); i++ {
				if !vec.Equal(first, tr.Points.Row(i), 0) {
					t.Fatalf("oversized leaf with %d distinct points (cap %d)", n.Count(), tr.LeafCap)
				}
			}
		}
	})
}

// checkRootAggregates verifies the root aggregates equal the brute-force
// sums over the full point set.
func checkRootAggregates(t *testing.T, tr *index.Tree) {
	t.Helper()
	var posW, posB, negW, negB float64
	posA := make([]float64, tr.Dims())
	negA := make([]float64, tr.Dims())
	var posCount, negCount int
	for i := 0; i < tr.Len(); i++ {
		w := tr.Weight(i)
		p := tr.Points.Row(i)
		if w >= 0 {
			posCount++
			posW += w
			vec.Axpy(posA, w, p)
			posB += w * vec.Norm2(p)
		} else {
			negCount++
			negW += -w
			vec.Axpy(negA, -w, p)
			negB += -w * vec.Norm2(p)
		}
	}
	pos, neg := tr.Root().Pos(), tr.Root().Neg()
	if pos.Count != posCount || neg.Count != negCount {
		t.Fatalf("root counts %d/%d want %d/%d", pos.Count, neg.Count, posCount, negCount)
	}
	tol := 1e-9 * (1 + math.Abs(posB) + math.Abs(negB))
	if math.Abs(pos.W-posW) > tol || math.Abs(pos.B-posB) > tol {
		t.Fatalf("root Pos W/B mismatch")
	}
	if posCount > 0 && !vec.Equal(pos.A, posA, tol) {
		t.Fatalf("root Pos.A mismatch: %v vs %v", pos.A, posA)
	}
	if negCount > 0 && (math.Abs(neg.W-negW) > tol || !vec.Equal(neg.A, negA, tol)) {
		t.Fatalf("root Neg mismatch")
	}
}

func TestMedianSplitBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := randMatrix(rng, 1024, 4)
	tr, err := Build(m, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With n=1024 and leafCap=1, median splits give height exactly 11.
	if tr.Height != 11 {
		t.Fatalf("height = %d want 11", tr.Height)
	}
	// Every internal node splits exactly in half (even counts).
	for i := range tr.Nodes {
		n := tr.Node(int32(i))
		if n.IsLeaf() {
			continue
		}
		l, r := tr.Node(tr.Left(int32(i))).Count(), tr.Node(n.Right).Count()
		if l != r && l != r+1 && r != l+1 {
			t.Fatalf("unbalanced split %d/%d", l, r)
		}
	}
}

func TestHeightShrinksWithLeafCap(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := randMatrix(rng, 500, 3)
	t1, _ := Build(m.Clone(), nil, 1)
	t64, _ := Build(m.Clone(), nil, 64)
	if t64.Height >= t1.Height {
		t.Fatalf("leafCap=64 height %d should be < leafCap=1 height %d", t64.Height, t1.Height)
	}
}

func TestPointsCopiedLeafOrdered(t *testing.T) {
	m := vec.FromRows([][]float64{{0, 0}, {1, 1}, {2, 2}})
	orig := m.Clone()
	tr, err := Build(m, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Points == m {
		t.Fatal("Build must copy the matrix into leaf order, not alias it")
	}
	for i := 0; i < m.Rows; i++ {
		if !vec.Equal(m.Row(i), orig.Row(i), 0) {
			t.Fatal("Build mutated the input matrix")
		}
		if !vec.Equal(tr.Points.Row(i), m.Row(int(tr.PointID[i])), 0) {
			t.Fatalf("storage row %d does not match original row %d", i, tr.PointID[i])
		}
	}
}

// TestBuildOnOwnSkeleton: a median build cut again on its own skeleton
// reproduces every cell, and a build of other points on it has its shape
// with empty cells where no point falls.
func TestBuildOnOwnSkeleton(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMatrix(rng, 500, 4)
	tr, err := Build(m, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	sk := SkeletonOf(tr)
	again, err := BuildOn(m, nil, sk, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !again.SameShape(tr) {
		t.Fatal("build on own skeleton changed shape")
	}
	for i := range tr.Nodes {
		if a, b := tr.Nodes[i], again.Nodes[i]; a.Start != b.Start || a.End != b.End {
			t.Fatalf("node %d: [%d,%d) rebuilt as [%d,%d)", i, a.Start, a.End, b.Start, b.End)
		}
	}
}
