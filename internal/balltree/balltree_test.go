package balltree

import (
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
	if _, err := Build(vec.NewMatrix(3, 2), nil, -1); err == nil {
		t.Fatal("negative leafCap accepted")
	}
	if _, err := Build(vec.NewMatrix(3, 2), []float64{1}, 2); err == nil {
		t.Fatal("weight length mismatch accepted")
	}
}

func TestBuildSinglePoint(t *testing.T) {
	m := vec.FromRows([][]float64{{4, 5}})
	tr, err := Build(m, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root().IsLeaf() || tr.Kind != index.BallTree {
		t.Fatal("unexpected structure for single point")
	}
	ball := tr.Root().Ball()
	if ball.Radius != 0 {
		t.Fatalf("radius = %v want 0", ball.Radius)
	}
}

func TestBuildAllDuplicatesTerminates(t *testing.T) {
	m := vec.NewMatrix(50, 2)
	for i := 0; i < 50; i++ {
		copy(m.Row(i), []float64{3, 3})
	}
	tr, err := Build(m, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root().IsLeaf() {
		t.Fatal("duplicates should form one oversized leaf")
	}
}

func TestBuildStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		d := 1 + rng.Intn(6)
		leafCap := 1 + rng.Intn(20)
		m := randMatrix(rng, n, d)
		var w []float64
		if trial%2 == 1 {
			w = make([]float64, n)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
		}
		tr, err := Build(m, w, leafCap)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Aggregate counts at the root must cover all points.
		if int(tr.Root().PosCount+tr.Root().NegCount) != n {
			t.Fatalf("trial %d: root covers %d of %d points",
				trial, int(tr.Root().PosCount+tr.Root().NegCount), n)
		}
	}
}

func TestSplitSeparatesClusters(t *testing.T) {
	// Two well-separated clusters must be split apart at the root.
	rng := rand.New(rand.NewSource(8))
	m := vec.NewMatrix(100, 2)
	for i := 0; i < 50; i++ {
		m.Row(i)[0] = rng.Float64()
		m.Row(i)[1] = rng.Float64()
	}
	for i := 50; i < 100; i++ {
		m.Row(i)[0] = 100 + rng.Float64()
		m.Row(i)[1] = 100 + rng.Float64()
	}
	tr, err := Build(m, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	if root.IsLeaf() {
		t.Fatal("root should split")
	}
	lb := tr.Node(tr.Left(0)).Ball()
	rb := tr.Node(root.Right).Ball()
	// Each child ball should be much smaller than the root ball.
	rootR := root.Ball().Radius
	if lb.Radius > rootR/2 || rb.Radius > rootR/2 {
		t.Fatalf("split failed to separate clusters: radii %v %v vs root %v",
			lb.Radius, rb.Radius, rootR)
	}
}

func TestAncestorBallsContainDescendantPoints(t *testing.T) {
	// Centroid balls are not nested (a child's radius may exceed its
	// parent's), but every ancestor ball must still contain every point in
	// its subtree — that is the invariant pruning relies on.
	rng := rand.New(rand.NewSource(29))
	m := randMatrix(rng, 256, 4)
	tr, err := Build(m, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr.Walk(func(n *index.Node) {
		ball := n.Ball()
		for i := int(n.Start); i < int(n.End); i++ {
			if !ball.Contains(tr.Points.Row(i), 1e-9) {
				t.Fatalf("node at depth %d does not contain storage row %d", n.Depth, i)
			}
		}
	})
}
