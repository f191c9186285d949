package index

import (
	"math"
	"math/rand"
	"testing"

	"karl/internal/geom"
	"karl/internal/vec"
)

func TestKindString(t *testing.T) {
	if KDTree.String() != "kd-tree" || BallTree.String() != "ball-tree" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(5).String() != "Kind(5)" {
		t.Fatal("unknown Kind.String mismatch")
	}
}

func TestAggAddMerge(t *testing.T) {
	var a Agg
	a.Add(2, []float64{1, 0})
	a.Add(3, []float64{0, 2})
	if a.Count != 2 || a.W != 5 {
		t.Fatalf("Count/W = %d/%v", a.Count, a.W)
	}
	if !vec.Equal(a.A, []float64{2, 6}, 1e-12) {
		t.Fatalf("A = %v", a.A)
	}
	if want := 2*1.0 + 3*4.0; math.Abs(a.B-want) > 1e-12 {
		t.Fatalf("B = %v want %v", a.B, want)
	}
	var b Agg
	b.Add(1, []float64{1, 1})
	a.merge(&b)
	if a.Count != 3 || a.W != 6 || !vec.Equal(a.A, []float64{3, 7}, 1e-12) {
		t.Fatalf("merge: %+v", a)
	}
	// Merging an empty aggregate is a no-op.
	before := a
	var empty Agg
	a.merge(&empty)
	if a.Count != before.Count || a.W != before.W {
		t.Fatal("merging empty changed aggregate")
	}
}

func TestWeightedSumsMatchBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(30)
		d := 1 + rng.Intn(5)
		var a Agg
		pts := make([][]float64, n)
		ws := make([]float64, n)
		for i := range pts {
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				pts[i][j] = rng.NormFloat64()
			}
			ws[i] = rng.Float64() + 0.01
			a.Add(ws[i], pts[i])
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		var wantDist, wantDot float64
		for i := range pts {
			wantDist += ws[i] * vec.Dist2(q, pts[i])
			wantDot += ws[i] * vec.Dot(q, pts[i])
		}
		gotDist := a.WeightedDist2Sum(q, vec.Norm2(q))
		if math.Abs(gotDist-wantDist) > 1e-9*(1+math.Abs(wantDist)) {
			t.Fatalf("trial %d: WeightedDist2Sum = %v want %v", trial, gotDist, wantDist)
		}
		gotDot := a.WeightedDotSum(q)
		if math.Abs(gotDot-wantDot) > 1e-9*(1+math.Abs(wantDot)) {
			t.Fatalf("trial %d: WeightedDotSum = %v want %v", trial, gotDot, wantDot)
		}
	}
}

func TestEmptyAggSumsAreZero(t *testing.T) {
	var a Agg
	if a.WeightedDist2Sum([]float64{1}, 1) != 0 || a.WeightedDotSum([]float64{1}) != 0 {
		t.Fatal("empty aggregate should contribute zero")
	}
}

// buildManualTree constructs a small two-leaf tree by hand, the way the
// builders do (preorder emission + Finish), so the Tree helpers can be
// tested without pulling in a builder package.
func buildManualTree() *Tree {
	m := vec.FromRows([][]float64{{0, 0}, {1, 0}, {10, 0}, {11, 0}})
	idx := []int{0, 1, 2, 3}
	tr := &Tree{Kind: KDTree, Points: m, LeafCap: 2}
	root := tr.AppendNode(geom.BoundRows(m, idx, 0, 4), 0, 4, 0)
	tr.AppendNode(geom.BoundRows(m, idx, 0, 2), 0, 2, 1)
	right := tr.AppendNode(geom.BoundRows(m, idx, 2, 4), 2, 4, 1)
	tr.SetRight(root, right)
	tr.Finish(idx)
	return tr
}

func TestComputeAggregatesUnitWeights(t *testing.T) {
	tr := buildManualTree()
	root := tr.Root()
	if root.Pos.Count != 4 || root.Pos.W != 4 {
		t.Fatalf("root agg = %+v", root.Pos)
	}
	if !vec.Equal(root.Pos.A, []float64{22, 0}, 1e-12) {
		t.Fatalf("root A = %v", root.Pos.A)
	}
	if root.Neg.Count != 0 {
		t.Fatal("unit weights should have empty Neg")
	}
	left := tr.Node(tr.Left(0))
	if left.Pos.Count != 2 {
		t.Fatalf("left count = %d", left.Pos.Count)
	}
}

func TestComputeAggregatesSignedWeights(t *testing.T) {
	m := vec.FromRows([][]float64{{1, 0}, {0, 1}, {2, 2}})
	idx := []int{0, 1, 2}
	tr := &Tree{Kind: KDTree, Points: m, Weights: []float64{2, -3, 1}, LeafCap: 4}
	tr.AppendNode(geom.BoundRows(m, idx, 0, 3), 0, 3, 0)
	tr.Finish(idx)
	root := tr.Root()
	if root.Pos.Count != 2 || root.Pos.W != 3 {
		t.Fatalf("Pos = %+v", root.Pos)
	}
	if root.Neg.Count != 1 || root.Neg.W != 3 {
		t.Fatalf("Neg = %+v", root.Neg)
	}
	if !vec.Equal(root.Neg.A, []float64{0, 3}, 1e-12) {
		t.Fatalf("Neg.A = %v", root.Neg.A)
	}
}

func TestFinishReordersIntoLeafOrder(t *testing.T) {
	orig := vec.FromRows([][]float64{{3, 3}, {1, 1}, {2, 2}, {0, 0}})
	idx := []int{3, 1, 2, 0} // leaf order = sorted by coordinate
	tr := &Tree{Kind: KDTree, Points: orig, Weights: []float64{30, 10, 20, 0}, LeafCap: 4}
	tr.AppendNode(geom.BoundRows(orig, idx, 0, 4), 0, 4, 0)
	tr.Finish(idx)
	if tr.Points == orig {
		t.Fatal("Finish must copy, not alias, the input matrix")
	}
	for i := 0; i < 4; i++ {
		want := float64(i)
		if tr.Points.Row(i)[0] != want {
			t.Fatalf("storage row %d = %v, want first coord %v", i, tr.Points.Row(i), want)
		}
		if tr.Weights[i] != want*10 {
			t.Fatalf("weight %d = %v not reordered with its point", i, tr.Weights[i])
		}
		if int(tr.PointID[i]) != idx[i] {
			t.Fatalf("PointID[%d] = %d want %d", i, tr.PointID[i], idx[i])
		}
		if got := tr.Norms[i]; math.Abs(got-2*want*want) > 1e-12 {
			t.Fatalf("Norms[%d] = %v want %v", i, got, 2*want*want)
		}
	}
	// The input matrix must be untouched.
	if orig.Row(0)[0] != 3 {
		t.Fatal("Finish mutated the builder's input matrix")
	}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	tr := buildManualTree()
	var count int
	tr.Walk(func(n *Node) { count++ })
	if count != 3 {
		t.Fatalf("Walk visited %d nodes, want 3", count)
	}
}

func TestLevelNodes(t *testing.T) {
	tr := buildManualTree()
	if got := tr.LevelNodes(0); len(got) != 1 || got[0] != tr.Root() {
		t.Fatalf("level 0 = %v", got)
	}
	if got := tr.LevelNodes(1); len(got) != 2 {
		t.Fatalf("level 1 has %d nodes, want 2", len(got))
	}
	// Deeper than the tree: leaves are returned once each.
	if got := tr.LevelNodes(5); len(got) != 2 {
		t.Fatalf("level 5 has %d nodes, want 2 leaves", len(got))
	}
	// Frontier counts must always cover all points exactly once.
	for level := 0; level < 6; level++ {
		var total int
		for _, n := range tr.LevelNodes(level) {
			total += n.Count()
		}
		if total != tr.Len() {
			t.Fatalf("level %d frontier covers %d points, want %d", level, total, tr.Len())
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	tr := buildManualTree()
	if err := tr.Validate(1e-12); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	// Corrupt the permutation: duplicate an ID.
	tr.PointID[0] = tr.PointID[1]
	if err := tr.Validate(1e-12); err == nil {
		t.Fatal("duplicate point ID accepted")
	}
	tr = buildManualTree()
	// Corrupt a child range: node 1 is the left child of the root.
	tr.Nodes[1].End = 3
	if err := tr.Validate(1e-9); err == nil {
		t.Fatal("non-tiling child ranges accepted")
	}
	tr = buildManualTree()
	// Corrupt preorder: right child pointing backwards.
	tr.Nodes[0].Right = 0
	if err := tr.Validate(1e-12); err == nil {
		t.Fatal("backward right-child index accepted")
	}
	tr = buildManualTree()
	tr.Nodes = nil
	if err := tr.Validate(1e-12); err == nil {
		t.Fatal("empty node array accepted")
	}
}

func TestWeightHelper(t *testing.T) {
	tr := buildManualTree()
	if tr.Weight(2) != 1 {
		t.Fatal("nil weights should read as 1")
	}
	tr.Weights = []float64{5, 6, 7, 8}
	if tr.Weight(2) != 7 {
		t.Fatal("Weight should read the slice")
	}
	if tr.Dims() != 2 || tr.Len() != 4 {
		t.Fatalf("Dims/Len = %d/%d", tr.Dims(), tr.Len())
	}
}

func TestAggBlockIsPacked(t *testing.T) {
	tr := buildManualTree()
	// Every node's Pos.A must be a view into one backing array: the slices
	// of consecutive nodes are adjacent in memory.
	d := tr.Dims()
	if len(tr.aggBlock) != tr.NodeCount()*d {
		t.Fatalf("aggBlock has %d values, want %d", len(tr.aggBlock), tr.NodeCount()*d)
	}
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		if &n.Pos.A[0] != &tr.aggBlock[i*d] {
			t.Fatalf("node %d Pos.A is not a view into the packed block", i)
		}
	}
}

func TestReconstructRoundTrip(t *testing.T) {
	for _, kind := range []Kind{KDTree, BallTree} {
		tr := manualTreeOfKind(kind)
		got, err := Reconstruct(kind, tr.Points, tr.Weights, tr.PointID,
			tr.FlattenNodes(), tr.FlattenVolumes(), tr.LeafCap)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got.Height != tr.Height || got.NodeCount() != tr.NodeCount() || got.Len() != tr.Len() {
			t.Fatalf("%v: shape mismatch after reconstruct", kind)
		}
		for i := range tr.Nodes {
			a, b := &tr.Nodes[i], &got.Nodes[i]
			if a.Pos.Count != b.Pos.Count || math.Abs(a.Pos.W-b.Pos.W) > 1e-12 ||
				math.Abs(a.Pos.B-b.Pos.B) > 1e-9 || !vec.Equal(a.Pos.A, b.Pos.A, 1e-9) {
				t.Fatalf("%v: node %d aggregates differ after reconstruct", kind, i)
			}
		}
	}
}

func TestReconstructRejectsCorruptInput(t *testing.T) {
	tr := buildManualTree()
	nodes, vols := tr.FlattenNodes(), tr.FlattenVolumes()
	if _, err := Reconstruct(KDTree, tr.Points, nil, tr.PointID, nodes[:5], vols, 2); err == nil {
		t.Fatal("ragged node block accepted")
	}
	if _, err := Reconstruct(KDTree, tr.Points, nil, tr.PointID, nodes, vols[:3], 2); err == nil {
		t.Fatal("short volume block accepted")
	}
	badRight := append([]int32(nil), nodes...)
	badRight[2] = 0
	if _, err := Reconstruct(KDTree, tr.Points, nil, tr.PointID, badRight, vols, 2); err == nil {
		t.Fatal("corrupt right-child index accepted")
	}
}

// manualTreeOfKind builds the two-leaf manual tree with the bounding-volume
// family of the given kind, so volume flattening is exercised per shape.
func manualTreeOfKind(kind Kind) *Tree {
	m := vec.FromRows([][]float64{{0, 0}, {1, 0}, {10, 0}, {11, 0}})
	idx := []int{0, 1, 2, 3}
	vol := func(start, end int) geom.Volume {
		if kind == BallTree {
			return geom.BoundRowsBall(m, idx, start, end)
		}
		return geom.BoundRows(m, idx, start, end)
	}
	tr := &Tree{Kind: kind, Points: m, Weights: []float64{1, 2, -3, 4}, LeafCap: 2}
	root := tr.AppendNode(vol(0, 4), 0, 4, 0)
	tr.AppendNode(vol(0, 2), 0, 2, 1)
	right := tr.AppendNode(vol(2, 4), 2, 4, 1)
	tr.SetRight(root, right)
	tr.Finish(idx)
	return tr
}
