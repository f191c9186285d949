package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestForkedBuildMatchesSequential: Build, which builds the right subtrees of
// its top levels on their own goroutines once a node holds forkWork, emits
// the tree the sequential recursion emits — nodes, records, point order,
// norms and height bit for bit — on unit, positive and mixed-sign weights, on
// duplicates that stop splits early, on either side of the floor, at d = 1
// and d = 123. CI runs it under -race at GOMAXPROCS 1, 2 and 4.
func TestForkedBuildMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	floorRows := (forkWork + 122) / 123 // the least rows that fork at d = 123
	type set struct {
		name string
		m    *vec.Matrix
		fork int  // the floor the forked build runs at
		big  bool // unit weights at leaf capacity 80 only
	}
	sets := []set{
		{"d123 below floor", randMatrix(rng, floorRows-1, 123), forkWork, false},
		{"d123 at floor", randMatrix(rng, floorRows, 123), forkWork, false},
		{"d123 above floor", randMatrix(rng, 2*floorRows+1, 123), forkWork, false},
		{"d1 forking from 64", randMatrix(rng, 3000, 1), 64, false},
		{"d8 forking everywhere", randMatrix(rng, 1500, 8), 1, false},
	}
	dup := randMatrix(rng, 2000, 3) // a third of the rows one point: width-0 cells below the root
	for i := 0; i < dup.Rows; i += 3 {
		copy(dup.Row(i), []float64{0.5, 0.5, 0.5})
	}
	same := vec.NewMatrix(900, 2) // every row one point: the root stops
	for i := range same.Data {
		same.Data[i] = 1
	}
	sets = append(sets, set{"duplicates", dup, 1, false}, set{"all duplicates", same, 1, false})
	if !testing.Short() {
		sets = append(sets, set{"d1 at floor", randMatrix(rng, forkWork, 1), forkWork, true})
	}
	for _, s := range sets {
		n := s.m.Rows
		pos, mixed := make([]float64, n), make([]float64, n)
		for i := range pos {
			pos[i] = 0.1 + rng.Float64()
			mixed[i] = rng.NormFloat64()
		}
		weights := []struct {
			name string
			w    []float64
		}{{"unit", nil}, {"positive", pos}, {"mixed", mixed}}
		leafCaps := []int{2, 80}
		if s.big {
			weights, leafCaps = weights[:1], leafCaps[1:]
		}
		for _, w := range weights {
			for _, leafCap := range leafCaps {
				want, err := build(s.m, w.w, leafCap, math.MaxInt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := build(s.m, w.w, leafCap, s.fork) // Build, at forkWork
				if err != nil {
					t.Fatal(err)
				}
				if err := identical(got, want); err != "" {
					t.Fatalf("%s, %s weights, leaf capacity %d: %s", s.name, w.name, leafCap, err)
				}
			}
		}
	}
}

// identical reports the first difference between two trees, "" for none.
func identical(a, b *index.Tree) string {
	if a.Height != b.Height || a.NodeCount() != b.NodeCount() {
		return fmt.Sprintf("height %d over %d nodes, want %d over %d", a.Height, a.NodeCount(), b.Height, b.NodeCount())
	}
	for i := range a.Nodes {
		x, y := &a.Nodes[i], &b.Nodes[i]
		if x.Start != y.Start || x.End != y.End || x.Right != y.Right || x.Depth != y.Depth ||
			x.PosCount != y.PosCount || x.NegCount != y.NegCount || !sameBits(x.Record(), y.Record()) {
			return fmt.Sprintf("node %d differs", i)
		}
	}
	if !slices.Equal(a.PointID, b.PointID) || !sameBits(a.Norms, b.Norms) ||
		!sameBits(a.Points.Data, b.Points.Data) || !sameBits(a.Weights, b.Weights) {
		return "point order, norms or weights differ"
	}
	return ""
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
