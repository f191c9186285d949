package index

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

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

// add accumulates one weighted point into a private aggregate the way
// ComputeAggregates accumulates a leaf row into a record.
func (a *Agg) add(w float64, p []float64) {
	a.Count++
	a.W += w
	if a.A == nil {
		a.A = make([]float64, len(p))
	}
	vec.Axpy(a.A, w, p)
	a.B += w * vec.Norm2(p)
}

func TestAggAddMerge(t *testing.T) {
	// A leaf's classes are its rows accumulated: W = Σw, A = Σw·p, B = Σw‖p‖².
	m := vec.FromRows([][]float64{{1, 0}, {0, 2}})
	leaf := &Tree{Kind: KDTree, Points: m, Weights: []float64{2, 3}, LeafCap: 2}
	appendBounded(leaf, 0, 2, 0)
	leaf.Finish([]int{0, 1})
	a := leaf.Root().Pos()
	if a.Count != 2 || a.W != 5 {
		t.Fatalf("Count/W = %d/%v", a.Count, a.W)
	}
	if !vec.Equal(a.A, []float64{2, 6}, 1e-12) {
		t.Fatalf("A = %v", a.A)
	}
	if want := 2*1.0 + 3*4.0; math.Abs(a.B-want) > 1e-12 {
		t.Fatalf("B = %v want %v", a.B, want)
	}
	// A parent's classes are its children's merged: left leaf {1,2}, right
	// leaf {−3,4}, so the right child's empty-on-one-side classes merge too.
	tr := manualTreeOfKind(KDTree)
	pos, neg := tr.Root().Pos(), tr.Root().Neg()
	if pos.Count != 3 || pos.W != 7 || !vec.Equal(pos.A, []float64{46, 0}, 1e-12) || pos.B != 2+4*121 {
		t.Fatalf("merge: Pos = %+v", pos)
	}
	if neg.Count != 1 || neg.W != 3 || !vec.Equal(neg.A, []float64{30, 0}, 1e-12) || neg.B != 300 {
		t.Fatalf("merge: Neg = %+v", neg)
	}
	if l := tr.Node(1); l.NegCount != 0 || l.Neg().W != 0 {
		t.Fatalf("left child has no negative point, Neg = %+v", l.Neg())
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
			a.add(ws[i], pts[i])
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

// appendBounded appends a node over rows [start, end) of tr.Points and fills
// its volume the way the builders do.
func appendBounded(tr *Tree, start, end, depth int) int32 {
	ni := tr.AppendNode(start, end, depth)
	if tr.Kind == BallTree {
		rec := tr.Node(ni).Record()
		rec[tr.Dims()] = geom.BoundBall(rec[:tr.Dims()], tr.Points, start, end)
		return ni
	}
	r := tr.Node(ni).Rect()
	r.Bound(tr.Points, start, end)
	return ni
}

// buildManualTree constructs a small two-leaf tree by hand, the way the
// builders do (preorder emission + Finish), so the Tree helpers can be
// tested without pulling in a builder package.
func buildManualTree() *Tree {
	m := vec.FromRows([][]float64{{0, 0}, {1, 0}, {10, 0}, {11, 0}})
	idx := []int{0, 1, 2, 3}
	tr := &Tree{Kind: KDTree, Points: m, LeafCap: 2}
	root := appendBounded(tr, 0, 4, 0)
	appendBounded(tr, 0, 2, 1)
	right := appendBounded(tr, 2, 4, 1)
	tr.SetRight(root, right)
	tr.Finish(idx)
	return tr
}

func TestComputeAggregatesUnitWeights(t *testing.T) {
	tr := buildManualTree()
	root := tr.Root().Pos()
	if root.Count != 4 || root.W != 4 {
		t.Fatalf("root agg = %+v", root)
	}
	if !vec.Equal(root.A, []float64{22, 0}, 1e-12) {
		t.Fatalf("root A = %v", root.A)
	}
	if neg := tr.Root().Neg(); neg.Count != 0 || neg.A != nil {
		t.Fatal("unit weights should have empty Neg")
	}
	if left := tr.Node(tr.Left(0)).Pos(); left.Count != 2 {
		t.Fatalf("left count = %d", left.Count)
	}
}

func TestComputeAggregatesSignedWeights(t *testing.T) {
	m := vec.FromRows([][]float64{{1, 0}, {0, 1}, {2, 2}})
	idx := []int{0, 1, 2}
	tr := &Tree{Kind: KDTree, Points: m, Weights: []float64{2, -3, 1}, LeafCap: 4}
	appendBounded(tr, 0, 3, 0)
	tr.Finish(idx)
	pos, neg := tr.Root().Pos(), tr.Root().Neg()
	if pos.Count != 2 || pos.W != 3 {
		t.Fatalf("Pos = %+v", pos)
	}
	if neg.Count != 1 || neg.W != 3 {
		t.Fatalf("Neg = %+v", neg)
	}
	if !vec.Equal(neg.A, []float64{0, 3}, 1e-12) {
		t.Fatalf("Neg.A = %v", neg.A)
	}
}

// TestFinishReordersIntoLeafOrder: a builder has already moved the rows into
// leaf order; Finish keeps them where they are and brings the rest of the
// tree along — the weights permuted by idx, PointID recording idx, the norms
// of the stored rows.
func TestFinishReordersIntoLeafOrder(t *testing.T) {
	// Original rows {3,3}, {1,1}, {2,2}, {0,0} with weights 30, 10, 20, 0,
	// moved into leaf order (sorted by coordinate).
	leaf := vec.FromRows([][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	idx := []int{3, 1, 2, 0}
	tr := &Tree{Kind: KDTree, Points: leaf, Weights: []float64{30, 10, 20, 0}, LeafCap: 4}
	appendBounded(tr, 0, 4, 0)
	tr.Finish(idx)
	if tr.Points != leaf {
		t.Fatal("Finish must keep the builder's leaf-ordered rows, not copy them")
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
	if pos := tr.Root().Pos(); pos.W != 60 || !vec.Equal(pos.A, []float64{140, 140}, 1e-12) {
		t.Fatalf("root aggregates over permuted weights: %+v", pos)
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
	for _, tr := range []*Tree{buildManualTree(), manualTreeOfKind(KDTree), manualTreeOfKind(BallTree)} {
		// One backing array, fixed stride, record i+1 adjacent to record i:
		// the volume, then a|W|B per class the tree has.
		d, vs := tr.Dims(), tr.volStride()
		stride := vs + d + 2
		if tr.Weights != nil {
			stride += d + 2
		}
		if tr.stride != stride || len(tr.block) != tr.NodeCount()*stride {
			t.Fatalf("%v: stride %d block %d, want %d and %d",
				tr.Kind, tr.stride, len(tr.block), stride, tr.NodeCount()*stride)
		}
		for i := range tr.Nodes {
			n := &tr.Nodes[i]
			rec := n.Record()
			if len(rec) != stride || cap(rec) != stride || &rec[0] != &tr.block[i*stride] {
				t.Fatalf("%v: node %d record is not block[%d:%d]", tr.Kind, i, i*stride, (i+1)*stride)
			}
			// The views alias the record; nothing is copied per node.
			if pos := n.Pos(); &pos.A[0] != &rec[vs] || pos.W != rec[vs+d] || pos.B != rec[vs+d+1] {
				t.Fatalf("%v: node %d Pos is not a view of its record", tr.Kind, i)
			}
			if tr.Kind == KDTree {
				if r := n.Rect(); &r.Lo[0] != &rec[0] || &r.Hi[0] != &rec[d] {
					t.Fatalf("node %d Rect is not a view of its record", i)
				}
			} else if b := n.Ball(); &b.Center[0] != &rec[0] || b.Radius != rec[d] {
				t.Fatalf("node %d Ball is not a view of its record", i)
			}
		}
	}
	if size := unsafe.Sizeof(Node{}); size > 64 {
		t.Fatalf("Node is %d bytes, want at most half of the 128 it was", size)
	}
	// Adopting a stream allocates the tree, its node array, its block, the
	// norms and Validate's seen-set — not a volume per node.
	var allocs [2]float64
	for k, n := range []int{64, 4096} {
		m := vec.NewMatrix(n, 3)
		for i := range m.Data {
			m.Data[i] = float64((i*7919)%n) / float64(n)
		}
		tr := chainTree(m, 4)
		nodes, vols := tr.FlattenNodes(), tr.FlattenVolumes()
		allocs[k] = testing.AllocsPerRun(5, func() {
			if _, err := Reconstruct(KDTree, tr.Points, tr.Weights, tr.PointID, nodes, vols, tr.LeafCap); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[0] != allocs[1] || allocs[1] > 6 {
		t.Fatalf("Reconstruct allocates %v times for 31 nodes and %v for 2047, want the same small constant", allocs[0], allocs[1])
	}
}

// chainTree builds a balanced tree over m's rows in their given order,
// halving ranges down to leafCap, without a builder package.
func chainTree(m *vec.Matrix, leafCap int) *Tree {
	idx := make([]int, m.Rows)
	for i := range idx {
		idx[i] = i
	}
	tr := &Tree{Kind: KDTree, Points: m, LeafCap: leafCap}
	var build func(start, end, depth int) int32
	build = func(start, end, depth int) int32 {
		ni := appendBounded(tr, start, end, depth)
		if end-start > leafCap {
			mid := (start + end) / 2
			build(start, mid, depth+1)
			tr.SetRight(ni, build(mid, end, depth+1))
		}
		return ni
	}
	build(0, m.Rows, 0)
	tr.Finish(idx)
	return tr
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
			if !reflect.DeepEqual(tr.Nodes[i].Record(), got.Nodes[i].Record()) ||
				tr.Nodes[i].PosCount != got.Nodes[i].PosCount || tr.Nodes[i].NegCount != got.Nodes[i].NegCount {
				t.Fatalf("%v: node %d record differs after reconstruct", kind, i)
			}
		}
		// The persisted blocks are what they were before the node block
		// existed (captured at the parent commit): no stored byte moved.
		wantVols := []float64{0, 0, 11, 0, 0, 0, 1, 0, 10, 0, 11, 0}
		if kind == BallTree {
			wantVols = []float64{5.5, 0, 5.5, 0.5, 0, 0.5, 10.5, 0, 0.5}
		}
		wantNodes := []int32{0, 4, 2, 0, 0, 2, -1, 1, 2, 4, -1, 1}
		for _, tr := range []*Tree{tr, got} {
			if !reflect.DeepEqual(tr.FlattenVolumes(), wantVols) || !reflect.DeepEqual(tr.FlattenNodes(), wantNodes) {
				t.Fatalf("%v: flattened %v / %v, want %v / %v", kind, tr.FlattenVolumes(), tr.FlattenNodes(), wantVols, wantNodes)
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
	// Volume parameters no builder writes. NaN is the one Contains cannot
	// see: both of its comparisons are false, so the stream used to load and
	// answer every threshold query false.
	d := tr.Dims()
	for _, c := range []struct {
		name   string
		at     []int
		v      float64
		refuse string
	}{
		{"NaN rectangle", []int{0, d}, math.NaN(), "non-finite volume parameter"},
		{"infinite hi", []int{d}, math.Inf(1), "non-finite volume parameter"},
		{"infinite lo", []int{0}, math.Inf(-1), "non-finite volume parameter"},
		{"lo above hi", []int{0}, 12, "lo[0]=12 above hi[0]=11"},
	} {
		bad := append([]float64(nil), vols...)
		for _, at := range c.at {
			bad[at] = c.v
		}
		_, err := Reconstruct(KDTree, tr.Points, nil, tr.PointID, nodes, bad, 2)
		if err == nil || !strings.Contains(err.Error(), c.refuse) {
			t.Fatalf("%s: err = %v, want one naming %q", c.name, err, c.refuse)
		}
	}
	bt := manualTreeOfKind(BallTree)
	nodes, vols = bt.FlattenNodes(), bt.FlattenVolumes()
	for _, c := range []struct {
		name   string
		v      float64
		refuse string
	}{
		{"NaN radius", math.NaN(), "non-finite volume parameter"},
		{"infinite radius", math.Inf(1), "non-finite volume parameter"},
		{"negative radius", -1, "negative radius -1"},
	} {
		bad := append([]float64(nil), vols...)
		bad[d] = c.v
		_, err := Reconstruct(BallTree, bt.Points, bt.Weights, bt.PointID, nodes, bad, 2)
		if err == nil || !strings.Contains(err.Error(), c.refuse) {
			t.Fatalf("%s: err = %v, want one naming %q", c.name, err, c.refuse)
		}
	}
}

// manualTreeOfKind builds the two-leaf manual tree with the bounding-volume
// family of the given kind, so volume flattening is exercised per shape.
func manualTreeOfKind(kind Kind) *Tree {
	m := vec.FromRows([][]float64{{0, 0}, {1, 0}, {10, 0}, {11, 0}})
	idx := []int{0, 1, 2, 3}
	tr := &Tree{Kind: kind, Points: m, Weights: []float64{1, 2, -3, 4}, LeafCap: 2}
	root := appendBounded(tr, 0, 4, 0)
	appendBounded(tr, 0, 2, 1)
	right := appendBounded(tr, 2, 4, 1)
	tr.SetRight(root, right)
	tr.Finish(idx)
	return tr
}

// emptyCellTree is the manual tree with an empty left cell: the shape a
// build on another tree's splits leaves where none of its rows fall.
func emptyCellTree() *Tree {
	m := vec.FromRows([][]float64{{0, 0}, {1, 0}, {10, 0}})
	idx := []int{0, 1, 2}
	tr := &Tree{Kind: KDTree, Points: m, Weights: []float64{1, -2, 3}, LeafCap: 2}
	root := appendBounded(tr, 0, 3, 0)
	tr.AppendNode(0, 0, 1) // no rows: the record stays zero
	right := appendBounded(tr, 0, 3, 1)
	tr.SetRight(root, right)
	tr.Finish(idx)
	return tr
}

// TestEmptyCellValidates: Validate and Reconstruct accept a node below the
// root that owns no rows, its aggregates zero, and LevelNodes' frontier
// still covers every row; an empty root and a reversed range stay refused.
func TestEmptyCellValidates(t *testing.T) {
	tr := emptyCellTree()
	if err := tr.Validate(0); err != nil {
		t.Fatalf("empty cell refused: %v", err)
	}
	got, err := Reconstruct(KDTree, tr.Points, tr.Weights, tr.PointID, tr.FlattenNodes(), tr.FlattenVolumes(), tr.LeafCap)
	if err != nil {
		t.Fatalf("Reconstruct refused an empty cell: %v", err)
	}
	if e := got.Node(1); e.Count() != 0 || e.Pos().W != 0 || e.Neg().W != 0 || e.PosCount+e.NegCount != 0 {
		t.Fatalf("empty cell reconstructed with %d rows, W⁺ %v, W⁻ %v", e.Count(), e.Pos().W, e.Neg().W)
	}
	for level := 0; level < got.Height; level++ {
		n := 0
		for _, nd := range got.LevelNodes(level) {
			n += nd.Count()
		}
		if n != got.Len() {
			t.Fatalf("level %d frontier covers %d rows, want %d", level, n, got.Len())
		}
	}
	for what, edit := range map[string]func(nodes []int32){
		"empty root":     func(nodes []int32) { nodes[1] = 0 },
		"reversed range": func(nodes []int32) { nodes[4], nodes[5] = 1, 0 },
	} {
		nodes := tr.FlattenNodes()
		edit(nodes)
		if _, err := Reconstruct(KDTree, tr.Points, tr.Weights, tr.PointID, nodes, tr.FlattenVolumes(), tr.LeafCap); err == nil {
			t.Fatalf("%s accepted", what)
		}
	}
}

// TestUnion: a union node carries the members' scaled aggregates summed and
// their non-empty boxes joined; an empty member cell adds nothing.
func TestUnion(t *testing.T) {
	a, b := buildManualTree(), emptyCellTree()
	if !a.SameShape(b) || a.SameShape(chainTree(a.Points, 1)) {
		t.Fatal("SameShape")
	}
	u := Union([]*Tree{a, b}, []float64{1, 0.5})
	if u.Len() != 0 || u.NodeCount() != a.NodeCount() {
		t.Fatalf("union holds %d rows in %d nodes", u.Len(), u.NodeCount())
	}
	for i := range u.Nodes {
		n, na, nb := u.Node(int32(i)), a.Node(int32(i)), b.Node(int32(i))
		if n.Count() != na.Count()+nb.Count() || n.Right != na.Right || n.Depth != na.Depth {
			t.Fatalf("node %d: %d rows, right %d, depth %d", i, n.Count(), n.Right, n.Depth)
		}
		pa, pb, pu := na.Pos(), nb.Pos(), n.Pos()
		if pu.W != pa.W+0.5*pb.W || pu.B != pa.B+0.5*pb.B || pu.A[0] != pa.A[0]+0.5*pb.A[0] {
			t.Fatalf("node %d: positive class %+v from %+v and %+v", i, pu, pa, pb)
		}
		if n.Neg().W != 0.5*nb.Neg().W || int(n.NegCount) != int(nb.NegCount) {
			t.Fatalf("node %d: negative class %+v", i, n.Neg())
		}
		r, ra, rb := n.Rect(), na.Rect(), nb.Rect()
		for j := range r.Lo {
			lo, hi := ra.Lo[j], ra.Hi[j]
			if nb.Count() > 0 {
				lo, hi = min(lo, rb.Lo[j]), max(hi, rb.Hi[j])
			}
			if r.Lo[j] != lo || r.Hi[j] != hi {
				t.Fatalf("node %d: box [%v,%v] in dim %d, want [%v,%v]", i, r.Lo[j], r.Hi[j], j, lo, hi)
			}
		}
	}
}

// TestValidateNestsKDCells: a kd-tree checks each row against its leaf and
// each non-empty cell against its parent, so a child rectangle poking out of
// its parent is refused even though every row lies inside both, and so is a
// row outside its leaf that its parent would hold. Reconstruct refuses both
// streams the same way.
func TestValidateNestsKDCells(t *testing.T) {
	d := buildManualTree().Dims()
	for _, c := range []struct {
		name   string
		at     int // volume parameter edited: node·2d + j is lo[j], + d is hi[j]
		v      float64
		refuse string
	}{
		{"left child widened below its parent", 2 * d, -1, "node 1's rectangle is not inside its parent 0's"},
		{"right child widened above its parent", 2*2*d + d, 12, "node 2's rectangle is not inside its parent 0's"},
		{"leaf narrowed past its own row", 2*2*d + d, 10.5, "point 3 escapes its node volume"},
	} {
		tr := buildManualTree()
		vols := tr.FlattenVolumes()
		vols[c.at] = c.v
		copy(tr.Nodes[c.at/(2*d)].Record(), vols[c.at/(2*d)*2*d:])
		if err := tr.Validate(1e-9); err == nil || !strings.Contains(err.Error(), c.refuse) {
			t.Fatalf("%s: Validate = %v, want %q", c.name, err, c.refuse)
		}
		_, err := Reconstruct(KDTree, tr.Points, nil, tr.PointID, tr.FlattenNodes(), vols, tr.LeafCap)
		if err == nil || !strings.Contains(err.Error(), c.refuse) {
			t.Fatalf("%s: Reconstruct = %v, want %q", c.name, err, c.refuse)
		}
	}
}

// TestValidateBallsPerAncestor: a child ball need not lie inside its parent
// (a centroid ball's radius reaches its farthest row, not its parent's
// face), so a ball-tree whose child pokes out of its parent loads, and a row
// outside an ancestor ball is still refused.
func TestValidateBallsPerAncestor(t *testing.T) {
	// Root: centre (0, 0.5), radius √1.25. Left child: centre (0, 0), radius
	// 1, reaching 1.5 from the root's centre.
	m := vec.FromRows([][]float64{{-1, 0}, {1, 0}, {0, 1}, {0, 1}})
	idx := []int{0, 1, 2, 3}
	tr := &Tree{Kind: BallTree, Points: m, LeafCap: 2}
	root := appendBounded(tr, 0, 4, 0)
	appendBounded(tr, 0, 2, 1)
	tr.SetRight(root, appendBounded(tr, 2, 4, 1))
	tr.Finish(idx)
	p, l := tr.Node(0).Ball(), tr.Node(1).Ball()
	if vec.Dist(p.Center, l.Center)+l.Radius <= p.Radius {
		t.Fatalf("fixture: child ball %v inside root ball %v", l, p)
	}
	got, err := Reconstruct(BallTree, tr.Points, nil, tr.PointID, tr.FlattenNodes(), tr.FlattenVolumes(), tr.LeafCap)
	if err != nil {
		t.Fatalf("ball-tree with a child outside its parent refused: %v", err)
	}
	got.Node(0).Record()[m.Cols] = 1 // the root no longer reaches (±1, 0)
	if err := got.Validate(1e-9); err == nil || !strings.Contains(err.Error(), "escapes its node volume") {
		t.Fatalf("row outside its root ball: %v", err)
	}
}
