package balltree

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

// TestRowOrderedBuildMatchesGather: Build, which moves every row with its
// index entry, emits the tree gatherBuild — which moves only indices and
// copies the rows into leaf order at the end — emits, bit for bit: at d = 1,
// 8 and 123, on duplicates, on unit, positive and mixed weights, at leaf
// capacities 2 and 80. CI runs it under -race at GOMAXPROCS 1, 2 and 4.
func TestRowOrderedBuildMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dup := randMatrix(rng, 1200, 3) // a third of the rows one point
	for i := 0; i < dup.Rows; i += 3 {
		copy(dup.Row(i), []float64{0.5, 0.5, 0.5})
	}
	same := vec.NewMatrix(300, 2) // every row one point: the root stops
	for i := range same.Data {
		same.Data[i] = 1
	}
	sets := []struct {
		name string
		m    *vec.Matrix
	}{
		{"d1", randMatrix(rng, 2000, 1)}, {"d8", randMatrix(rng, 1500, 8)},
		{"d123", randMatrix(rng, 900, 123)}, {"duplicates", dup}, {"all duplicates", same},
	}
	for _, s := range sets {
		pos, mixed := make([]float64, s.m.Rows), make([]float64, s.m.Rows)
		for i := range pos {
			pos[i] = 0.1 + rng.Float64()
			mixed[i] = rng.NormFloat64()
		}
		for _, w := range [][]float64{nil, pos, mixed} {
			for _, leafCap := range []int{2, 80} {
				got, err := Build(s.m, w, leafCap)
				if err != nil {
					t.Fatal(err)
				}
				if err := identical(got, gatherBuild(s.m, w, leafCap)); err != "" {
					t.Fatalf("%s, leaf capacity %d: %s", s.name, leafCap, err)
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

// gatherBuild is Build as it was before the builder moved rows: it permutes
// only idx, reads every row through it, and copies the rows into leaf order
// when it finishes.
func gatherBuild(points *vec.Matrix, weights []float64, leafCap int) *index.Tree {
	t := &index.Tree{Kind: index.BallTree, Points: points, Weights: weights, LeafCap: leafCap}
	g := gatherBuilder{t: t, pts: points, idx: make([]int, points.Rows)}
	for i := range g.idx {
		g.idx[i] = i
	}
	g.build(0, points.Rows, 0)
	leaf := vec.NewMatrix(points.Rows, points.Cols)
	for i, pi := range g.idx {
		copy(leaf.Row(i), points.Row(pi))
	}
	t.Points = leaf
	t.Finish(g.idx)
	return t
}

type gatherBuilder struct {
	t   *index.Tree
	pts *vec.Matrix // the caller's rows, never moved
	idx []int       // working permutation: position -> original row
}

func (g *gatherBuilder) build(start, end, depth int) int32 {
	ni := g.t.AppendNode(start, end, depth)
	rec := g.t.Node(ni).Record()
	center := rec[:g.pts.Cols]
	for i := start; i < end; i++ {
		vec.AddTo(center, g.pts.Row(g.idx[i]))
	}
	vec.ScaleTo(center, 1/float64(end-start))
	var r2 float64
	for i := start; i < end; i++ {
		if d := vec.Dist2(center, g.pts.Row(g.idx[i])); d > r2 {
			r2 = d
		}
	}
	radius := math.Sqrt(r2)
	rec[g.pts.Cols] = radius
	if end-start <= g.t.LeafCap || radius == 0 {
		return ni
	}
	mid := g.partition(start, end, center)
	if mid == start || mid == end {
		return ni
	}
	g.build(start, mid, depth+1)
	g.t.SetRight(ni, g.build(mid, end, depth+1))
	return ni
}

func (g *gatherBuilder) partition(start, end int, centroid []float64) int {
	idx := g.idx
	row := func(i int) []float64 { return g.pts.Row(idx[i]) }
	far := func(from []float64) int {
		best, bestD := start, -1.0
		for i := start; i < end; i++ {
			if d := vec.Dist2(from, row(i)); d > bestD {
				best, bestD = i, d
			}
		}
		return best
	}
	a := vec.Clone(row(far(centroid)))
	c := vec.Clone(row(far(a)))
	lo, hi := start, end-1
	for lo <= hi {
		for lo <= hi && vec.Dist2(a, row(lo)) <= vec.Dist2(c, row(lo)) {
			lo++
		}
		for lo <= hi && vec.Dist2(a, row(hi)) > vec.Dist2(c, row(hi)) {
			hi--
		}
		if lo < hi {
			idx[lo], idx[hi] = idx[hi], idx[lo]
			lo++
			hi--
		}
	}
	return lo
}
