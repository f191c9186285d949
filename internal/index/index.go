// Package index defines the hierarchical index representation shared by the
// kd-tree and ball-tree builders (Figure 2 of the paper). The
// logical structure is a binary tree whose nodes carry a bounding volume, a
// contiguous range of point rows, and the precomputed weighted aggregates
// (Lemmas 2 and 5) that let KARL evaluate its linear bound functions in O(d)
// per node.
//
// The physical representation is cache-conscious and flat:
//
//   - Nodes live in one slice in DFS preorder. A node's left child is the
//     next slice element (implicit i+1); only the right child is stored, as
//     an int32 index. Refinement therefore walks a contiguous array instead
//     of chasing per-node heap pointers.
//   - Every node's floats — its volume and its aggregates — are one
//     fixed-stride record of a single block, in the same preorder, so a
//     bound reads one contiguous record and the left child's follows it.
//   - After construction the point matrix and weights are physically
//     reordered into leaf order, so a leaf scans rows [Start,End) of the
//     matrix directly — no permutation gather. PointID retains the mapping
//     back to the caller's original row numbering.
//   - Norms caches ‖p‖² per stored row, enabling the fused distance form
//     ‖q−p‖² = ‖q‖² − 2·q·p + ‖p‖² in leaf evaluation.
package index

import (
	"fmt"
	"math"

	"karl/internal/geom"
	"karl/internal/vec"
)

// Agg holds the weighted aggregates of one sign class of a node. For the
// positive class, W = Σ w_i, A = Σ w_i·p_i, B = Σ w_i·‖p_i‖² over points with
// w_i > 0; the negative class aggregates |w_i| over points with w_i < 0
// (Section IV-A's P⁺/P⁻ decomposition). These are exactly the terms a_P, b_P,
// w_P of Lemma 5, which make FL_P(q, Lin_{m,c}) an O(d) computation.
// Node.Pos and Node.Neg return one as a view of the node's record (A aliases
// the block); tests fill private ones as the oracle's input.
type Agg struct {
	Count int       // number of points in this sign class
	W     float64   // Σ |w_i|
	A     []float64 // Σ |w_i|·p_i
	B     float64   // Σ |w_i|·‖p_i‖²
}

// WeightedDist2Sum returns Σ |w_i|·dist(q, p_i)² over the class in O(d)
// using the expansion ‖q−p‖² = ‖q‖² − 2q·p + ‖p‖² (Lemma 2). qNorm2 is the
// caller-computed ‖q‖², hoisted because it is shared across every node a
// query touches.
func (a *Agg) WeightedDist2Sum(q []float64, qNorm2 float64) float64 {
	if a.Count == 0 {
		return 0
	}
	return a.W*qNorm2 - 2*vec.Dot(q, a.A) + a.B
}

// WeightedDotSum returns Σ |w_i|·(q·p_i) over the class in O(d), the
// analogous primitive for dot-product kernels (Section IV-B).
func (a *Agg) WeightedDotSum(q []float64) float64 {
	if a.Count == 0 {
		return 0
	}
	return vec.Dot(q, a.A)
}

// NoRight marks a leaf node's Right field.
const NoRight = int32(-1)

// Node is one entry of the flat node array. Leaf nodes have Right == NoRight
// and own the matrix rows [Start,End); internal nodes own the union of their
// children's ranges. The left child of the node at position i is always at
// i+1 (DFS preorder); the right child index is stored explicitly.
//
// Every float a bound reads lives in the node's record, a fixed-stride slice
// of the tree's one block:
//
//	kd-tree:   lo(d) | hi(d)     | a⁺(d) | W⁺ | B⁺ [ | a⁻(d) | W⁻ | B⁻ ]
//	ball-tree: centre(d) | radius | a⁺(d) | W⁺ | B⁺ [ | a⁻(d) | W⁻ | B⁻ ]
//
// with the negative class present only when the tree has a negative weight.
// Rect, Ball, Pos and Neg are views of it, not copies.
type Node struct {
	rec                []float64
	Start, End         int32 // row range into the tree's leaf-ordered matrix
	Right              int32 // right-child position, NoRight for leaves
	Depth              int32
	PosCount, NegCount int32 // points per sign class
	dims               int32
	ball               bool
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Right == NoRight }

// Count returns the number of points under the node.
func (n *Node) Count() int { return int(n.End - n.Start) }

// IsBall reports whether the node's volume is a ball (Ball is then the
// valid view) or a rectangle (Rect).
func (n *Node) IsBall() bool { return n.ball }

// Record returns the node's record in the layout above.
func (n *Node) Record() []float64 { return n.rec }

// volLen returns the number of volume parameters at the head of the record.
func (n *Node) volLen() int { return volLen(n.ball, int(n.dims)) }

func volLen(ball bool, d int) int {
	if ball {
		return d + 1
	}
	return 2 * d
}

// Rect returns a kd-tree node's bounding rectangle.
func (n *Node) Rect() geom.Rect {
	d := int(n.dims)
	return geom.Rect{Lo: n.rec[:d:d], Hi: n.rec[d : 2*d : 2*d]}
}

// Ball returns a ball-tree node's bounding ball.
func (n *Node) Ball() geom.Ball {
	d := int(n.dims)
	return geom.Ball{Center: n.rec[:d:d], Radius: n.rec[d]}
}

// firstOutside returns the first of the node's rows that its volume does not
// contain (within tol), or -1. The view is built once per node, not per row:
// Validate asks this of every ball above every point, and of every kd leaf.
func (n *Node) firstOutside(m *vec.Matrix, tol float64) int32 {
	if n.ball {
		b := n.Ball()
		for r := n.Start; r < n.End; r++ {
			if !b.Contains(m.Row(int(r)), tol) {
				return r
			}
		}
		return -1
	}
	v := n.Rect()
	for r := n.Start; r < n.End; r++ {
		if !v.Contains(m.Row(int(r)), tol) {
			return r
		}
	}
	return -1
}

// class returns the view of the sign class whose aggregates start at off.
func (n *Node) class(count int32, off int) Agg {
	d := int(n.dims)
	return Agg{Count: int(count), W: n.rec[off+d], A: n.rec[off : off+d : off+d], B: n.rec[off+d+1]}
}

// Pos returns the positive-weight class of the node.
func (n *Node) Pos() Agg { return n.class(n.PosCount, n.volLen()) }

// Neg returns the negative-weight class of the node, the zero Agg in a tree
// without negative weights.
func (n *Node) Neg() Agg {
	off := n.volLen() + int(n.dims) + 2
	if off == len(n.rec) {
		return Agg{}
	}
	return n.class(n.NegCount, off)
}

// Kind identifies the index structure family.
type Kind int

const (
	// KDTree splits on the widest dimension at the median and bounds nodes
	// with rectangles.
	KDTree Kind = iota
	// BallTree splits on a farthest-pair heuristic and bounds nodes with
	// balls.
	BallTree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KDTree:
		return "kd-tree"
	case BallTree:
		return "ball-tree"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Tree is a built index over a weighted point set. Points and Weights are
// the tree's private, leaf-ordered copies: row i of Points is the i-th point
// in leaf-scan order and PointID[i] is its row number in the matrix the
// builder was given. Weights may be nil (unit weights, Type I with w=1).
type Tree struct {
	Kind    Kind
	Points  *vec.Matrix // leaf-contiguous storage order
	Weights []float64   // parallel to Points rows; nil = unit weights
	PointID []int32     // storage row -> original row id
	Norms   []float64   // ‖p‖² per storage row (fused-distance cache)
	Nodes   []Node      // DFS preorder; Nodes[0] is the root
	LeafCap int
	Height  int // number of levels; a single root-leaf tree has height 1

	// block holds every node's record, node-major with a fixed stride, so
	// Nodes[i]'s record is block[i*stride:(i+1)*stride] and its left child's
	// record directly follows it.
	block  []float64
	stride int
}

// Root returns the root node.
func (t *Tree) Root() *Node { return &t.Nodes[0] }

// Node returns the node at position i of the preorder array.
func (t *Tree) Node(i int32) *Node { return &t.Nodes[i] }

// Left returns the position of the left child of the node at position i
// (valid only for internal nodes: the left child is the next preorder slot).
func (t *Tree) Left(i int32) int32 { return i + 1 }

// Weight returns the weight of storage row i (1 when Weights is nil).
func (t *Tree) Weight(i int) float64 {
	if t.Weights == nil {
		return 1
	}
	return t.Weights[i]
}

// Dims returns the dataset dimensionality.
func (t *Tree) Dims() int { return t.Points.Cols }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.Points.Rows }

// NodeCount returns the number of nodes in the tree.
func (t *Tree) NodeCount() int { return len(t.Nodes) }

// volStride returns the number of float64 parameters one bounding volume of
// this tree kind takes: Rect is Lo‖Hi (2d), Ball is center‖radius (d+1).
func (t *Tree) volStride() int { return volLen(t.Kind == BallTree, t.Dims()) }

// recordStride returns the record length of this tree, fixing it on first
// use: the volume, one aggregate class, and a second when a weight is
// negative (Type III).
func (t *Tree) recordStride() int {
	if t.stride == 0 {
		t.stride = t.volStride() + t.Dims() + 2
		for _, w := range t.Weights {
			if w < 0 {
				t.stride += t.Dims() + 2
				break
			}
		}
	}
	return t.stride
}

// AppendNode appends a node in DFS preorder (initially a leaf) with a zeroed
// record and returns its position. Builders call it for a node before
// recursing into its children, fill the volume through the node's Rect or
// Ball view — valid until the next AppendNode, which may move the block —
// and patch Right via SetRight once the left subtree is emitted.
func (t *Tree) AppendNode(start, end, depth int) int32 {
	stride := t.recordStride()
	if t.Nodes == nil {
		t.Reserve(nodeCeiling(t.Len(), t.LeafCap))
	}
	at := len(t.block)
	t.block = append(t.block, make([]float64, stride)...)
	t.Nodes = append(t.Nodes, Node{
		rec:   t.block[at : at+stride : at+stride],
		Start: int32(start),
		End:   int32(end),
		Right: NoRight,
		Depth: int32(depth),
		dims:  int32(t.Dims()),
		ball:  t.Kind == BallTree,
	})
	if depth+1 > t.Height {
		t.Height = depth + 1
	}
	return int32(len(t.Nodes) - 1)
}

// nodeCeiling bounds the nodes of a median-split tree over rows points: a
// median split leaves no leaf under half the capacity. A lopsided ball-tree
// may outgrow it.
func nodeCeiling(rows, leafCap int) int { return 2*(rows/max(1, leafCap/2)) + 1 }

// Reserve sizes the node array and record block for n nodes ahead of the
// first AppendNode, for a builder that knows its node count.
func (t *Tree) Reserve(n int) {
	t.Nodes = make([]Node, 0, n)
	t.block = make([]float64, 0, n*t.recordStride())
}

// Fragment returns an empty tree with t's points, weights and record layout
// and room for a subtree over rows of them: a builder emits a subtree into it
// apart from t, with t's row ranges and depths, and Splice joins it to t.
func (t *Tree) Fragment(rows int) *Tree {
	f := &Tree{Kind: t.Kind, Points: t.Points, Weights: t.Weights, LeafCap: t.LeafCap, stride: t.recordStride()}
	f.Reserve(nodeCeiling(rows, t.LeafCap))
	return f
}

// Splice appends a fragment's nodes, in their preorder, behind t's last node
// and returns the position of the fragment's root: the right child of the
// node whose left subtree t has just emitted.
func (t *Tree) Splice(f *Tree) int32 {
	at, base := int32(len(t.Nodes)), len(t.block)
	t.block = append(t.block, f.block...)
	for i, n := range f.Nodes {
		if !n.IsLeaf() {
			n.Right += at
		}
		k := base + i*t.stride
		n.rec = t.block[k : k+t.stride : k+t.stride]
		t.Nodes = append(t.Nodes, n)
	}
	t.Height = max(t.Height, f.Height)
	return at
}

// SetRight records the right-child position of the node at i, turning it
// into an internal node.
func (t *Tree) SetRight(i, right int32) { t.Nodes[i].Right = right }

// Finish seals a freshly built tree: it physically reorders the points (and
// weights) into the builder's leaf-order permutation idx, records the
// original-ID mapping, caches per-row squared norms, and computes every
// node's aggregates into its record. idx[i] is the original row of
// the point that leaf order places at storage row i. The builder's input
// matrix is left untouched; the tree owns a reordered copy from here on.
func (t *Tree) Finish(idx []int) {
	src := t.Points
	pts := vec.NewMatrix(src.Rows, src.Cols)
	t.PointID = make([]int32, len(idx))
	for i, pi := range idx {
		copy(pts.Row(i), src.Row(pi))
		t.PointID[i] = int32(pi)
	}
	t.Points = pts
	if t.Weights != nil {
		w := make([]float64, len(idx))
		for i, pi := range idx {
			w[i] = t.Weights[pi]
		}
		t.Weights = w
	}
	t.Norms = make([]float64, pts.Rows)
	for i := 0; i < pts.Rows; i++ {
		t.Norms[i] = vec.Norm2(pts.Row(i))
	}
	t.ComputeAggregates()
}

// ComputeAggregates points every node at its record in the settled block and
// fills the aggregates bottom-up. Points and weights must already be in
// storage (leaf) order, and Norms cached. In DFS preorder both children of node i sit at
// positions greater than i, so one reverse sweep visits children before
// parents.
func (t *Tree) ComputeAggregates() {
	d, stride, agg := t.Dims(), t.recordStride(), t.volStride()
	for i := len(t.Nodes) - 1; i >= 0; i-- {
		n := &t.Nodes[i]
		n.rec = t.block[i*stride : (i+1)*stride : (i+1)*stride]
		n.PosCount, n.NegCount = 0, 0
		clear(n.rec[agg:])
		if !n.IsLeaf() {
			// a, W and B of both classes add element-wise, left child first.
			l, r := &t.Nodes[i+1], &t.Nodes[n.Right]
			vec.AddTo(n.rec[agg:], l.rec[agg:])
			vec.AddTo(n.rec[agg:], r.rec[agg:])
			n.PosCount = l.PosCount + r.PosCount
			n.NegCount = l.NegCount + r.NegCount
			continue
		}
		for r := int(n.Start); r < int(n.End); r++ {
			w, p, cls := t.Weight(r), t.Points.Row(r), n.rec[agg:]
			if w >= 0 {
				n.PosCount++
			} else {
				n.NegCount++
				w, cls = -w, cls[d+2:]
			}
			cls[d] += w
			vec.Axpy(cls[:d], w, p)
			cls[d+1] += w * t.Norms[r]
		}
	}
}

// Walk visits every node in pre-order — a linear pass over the node array.
func (t *Tree) Walk(fn func(*Node)) {
	for i := range t.Nodes {
		fn(&t.Nodes[i])
	}
}

// LevelNodes returns the nodes that form the frontier of the simulated tree
// T_level — every node at exactly the given depth plus any shallower leaf.
// Level 0 is the root alone. This implements the in-situ tuning view of
// Section III-C, where the top-i-level tree is simulated on the full tree.
// Any node deeper than level is strictly below some frontier node, so a
// linear filter over the flat array yields exactly the frontier.
func (t *Tree) LevelNodes(level int) []*Node {
	var out []*Node
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if int(n.Depth) == level || (n.IsLeaf() && int(n.Depth) < level) {
			out = append(out, n)
		}
	}
	return out
}

// validateNode checks one node's structural invariants. A ball holds every
// row under it; a kd leaf holds its own rows and a kd child's rectangle lies
// inside its parent's, which puts every row inside every rectangle above it.
func (t *Tree) validateNode(i int32, tol float64) error {
	n := &t.Nodes[i]
	if n.Start > n.End {
		return fmt.Errorf("index: node with reversed range [%d,%d)", n.Start, n.End)
	}
	if n.ball || n.IsLeaf() {
		if r := n.firstOutside(t.Points, tol); r >= 0 {
			return fmt.Errorf("index: point %d escapes its node volume", r)
		}
	}
	if n.IsLeaf() {
		return nil
	}
	if n.Right <= i+1 || int(n.Right) >= len(t.Nodes) {
		return fmt.Errorf("index: node %d has right child %d outside (%d,%d)",
			i, n.Right, i+1, len(t.Nodes))
	}
	l, r := &t.Nodes[i+1], &t.Nodes[n.Right]
	if l.Start != n.Start || l.End != r.Start || r.End != n.End {
		return fmt.Errorf("index: child ranges [%d,%d)+[%d,%d) do not tile [%d,%d)",
			l.Start, l.End, r.Start, r.End, n.Start, n.End)
	}
	if l.Depth != n.Depth+1 || r.Depth != n.Depth+1 {
		return fmt.Errorf("index: child depth %d/%d under depth %d", l.Depth, r.Depth, n.Depth)
	}
	if !n.ball {
		for _, c := range [2]int32{i + 1, n.Right} {
			if t.Nodes[c].Count() > 0 && !nests(t.Nodes[c].Rect(), n.Rect()) {
				return fmt.Errorf("index: node %d's rectangle is not inside its parent %d's", c, i)
			}
		}
	}
	return nil
}

// nests reports whether rectangle c lies inside p, faces included.
func nests(c, p geom.Rect) bool {
	for j := range c.Lo {
		if c.Lo[j] < p.Lo[j] || c.Hi[j] > p.Hi[j] {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants of the whole tree: preorder
// child placement, child ranges tiling parents, every point inside its node
// volumes, the root covering all rows, and PointID being a permutation. A
// node below the root may own no rows: a tree built on another tree's
// splits (kdtree.BuildOn) has empty cells. A kd-tree checks each row once,
// against its leaf, and each non-empty cell against its parent (exactly: a
// builder bounds both over the same rows); a ball-tree checks each row
// against every ball above it, since a child ball need not lie inside its
// parent.
func (t *Tree) Validate(tol float64) error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("index: empty node array")
	}
	root := t.Root()
	if root.Start != 0 || int(root.End) != t.Points.Rows {
		return fmt.Errorf("index: root range [%d,%d) does not cover %d points",
			root.Start, root.End, t.Points.Rows)
	}
	if len(t.PointID) != t.Points.Rows {
		return fmt.Errorf("index: %d point IDs for %d rows", len(t.PointID), t.Points.Rows)
	}
	seen := make([]bool, t.Points.Rows)
	for _, pi := range t.PointID {
		if int(pi) < 0 || int(pi) >= len(seen) || seen[pi] {
			return fmt.Errorf("index: point id %d out of range or duplicated", pi)
		}
		seen[pi] = true
	}
	for i := range t.Nodes {
		if err := t.validateNode(int32(i), tol); err != nil {
			return err
		}
	}
	return nil
}

// FlattenVolumes packs every node's bounding-volume parameters — the head of
// its record — into one float64 block (node-major, volStride values per
// node) for persistence.
func (t *Tree) FlattenVolumes() []float64 {
	vs := t.volStride()
	out := make([]float64, len(t.Nodes)*vs)
	for i := range t.Nodes {
		copy(out[i*vs:(i+1)*vs], t.Nodes[i].rec)
	}
	return out
}

// FlattenNodes packs the preorder node structure into one int32 block, four
// values per node — Start, End, Right, Depth — for persistence.
func (t *Tree) FlattenNodes() []int32 {
	out := make([]int32, 0, 4*len(t.Nodes))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		out = append(out, n.Start, n.End, n.Right, n.Depth)
	}
	return out
}

// checkVolume refuses volume parameters no builder writes: a NaN compares
// false both ways, so it would pass Contains and make every bound NaN.
func checkVolume(kind Kind, d int, vol []float64) error {
	for _, v := range vol {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite volume parameter %v", v)
		}
	}
	if kind == BallTree {
		if vol[d] < 0 {
			return fmt.Errorf("negative radius %v", vol[d])
		}
		return nil
	}
	for j := 0; j < d; j++ {
		if vol[j] > vol[d+j] {
			return fmt.Errorf("volume has lo[%d]=%v above hi[%d]=%v", j, vol[j], j, vol[d+j])
		}
	}
	return nil
}

// Reconstruct rebuilds a flat tree from its persisted parts: leaf-ordered
// points and weights, the original-ID mapping, and the node structure and
// volume parameters as packed by FlattenNodes and FlattenVolumes. Norms and
// aggregates are derived data and are recomputed. The reconstructed tree is
// validated structurally before it is returned.
func Reconstruct(kind Kind, points *vec.Matrix, weights []float64, pointID []int32,
	nodes []int32, volData []float64, leafCap int) (*Tree, error) {
	nn := len(nodes) / 4
	if nn == 0 || len(nodes) != 4*nn {
		return nil, fmt.Errorf("index: node block has %d values, want a positive multiple of 4", len(nodes))
	}
	t := &Tree{Kind: kind, Points: points, Weights: weights, PointID: pointID, LeafCap: leafCap}
	d, vs, stride := points.Cols, t.volStride(), t.recordStride()
	if len(volData) != nn*vs {
		return nil, fmt.Errorf("index: volume block has %d values, want %d", len(volData), nn*vs)
	}
	t.Nodes = make([]Node, nn)
	t.block = make([]float64, nn*stride)
	for i := range t.Nodes {
		start, end, right, depth := nodes[4*i], nodes[4*i+1], nodes[4*i+2], nodes[4*i+3]
		// Checked before ComputeAggregates dereferences them: child indices
		// must point forward inside the array and row ranges must stay
		// inside the matrix.
		if start < 0 || end > int32(points.Rows) || start > end || (i == 0 && start == end) {
			return nil, fmt.Errorf("index: node %d range [%d,%d) outside %d rows", i, start, end, points.Rows)
		}
		if right != NoRight && (right <= int32(i)+1 || int(right) >= nn) {
			return nil, fmt.Errorf("index: node %d right child %d outside (%d,%d)", i, right, i+1, nn)
		}
		vol := volData[i*vs : (i+1)*vs]
		if err := checkVolume(kind, d, vol); err != nil {
			return nil, fmt.Errorf("index: node %d: %w", i, err)
		}
		copy(t.block[i*stride:], vol)
		t.Nodes[i] = Node{Start: start, End: end, Right: right, Depth: depth, dims: int32(d), ball: kind == BallTree}
		if int(depth)+1 > t.Height {
			t.Height = int(depth) + 1
		}
	}
	t.Norms = make([]float64, points.Rows)
	for i := 0; i < points.Rows; i++ {
		t.Norms[i] = vec.Norm2(points.Row(i))
	}
	t.ComputeAggregates()
	// Volumes were computed from the same points, so containment holds with
	// zero tolerance up to the float rounding of the original build.
	if err := t.Validate(1e-9); err != nil {
		return nil, err
	}
	return t, nil
}

// SameShape reports whether t and o have one node structure: as many nodes,
// with the same right child at every position (depths and left children
// follow from those).
func (t *Tree) SameShape(o *Tree) bool {
	if len(t.Nodes) != len(o.Nodes) {
		return false
	}
	for i := range t.Nodes {
		if t.Nodes[i].Right != o.Nodes[i].Right {
			return false
		}
	}
	return true
}

// Union returns the tree that bounds same-shaped kd-trees as one. Its node i
// carries the sum of the members' node-i aggregates, member j's multiplied
// by scales[j] (nil: all 1), inside the join of their non-empty node-i
// rectangles, so a bound on it bounds the members' node-i rows together.
// It stores no rows (Len is 0): node i's range is [0, c) for the c rows the
// members hold under it, so Count is what scanning the cell costs. The
// members must be kd-trees of one shape (SameShape) and dimensionality.
func Union(members []*Tree, scales []float64) *Tree {
	m0 := members[0]
	d := m0.Dims()
	u := &Tree{Kind: KDTree, Points: &vec.Matrix{Cols: d}, LeafCap: m0.LeafCap, Height: m0.Height}
	for _, m := range members {
		u.stride = max(u.stride, m.recordStride())
	}
	u.Nodes = make([]Node, len(m0.Nodes))
	u.block = make([]float64, len(u.Nodes)*u.stride)
	for i := range u.Nodes {
		rec := u.block[i*u.stride : (i+1)*u.stride : (i+1)*u.stride]
		n := Node{rec: rec, Right: m0.Nodes[i].Right, Depth: m0.Nodes[i].Depth, dims: int32(d)}
		lo, hi := rec[:d], rec[d:2*d]
		for j, m := range members {
			mn := &m.Nodes[i]
			if mn.Start == mn.End {
				continue
			}
			if n.End == 0 {
				copy(lo, mn.rec[:d])
				copy(hi, mn.rec[d:2*d])
			} else {
				for k := range lo {
					lo[k] = min(lo[k], mn.rec[k])
					hi[k] = max(hi[k], mn.rec[d+k])
				}
			}
			n.End += mn.End - mn.Start
			n.PosCount += mn.PosCount
			n.NegCount += mn.NegCount
			s := 1.0
			if scales != nil {
				s = scales[j]
			}
			// a|W|B of each class the member has, at the union's offsets.
			vec.Axpy(rec[2*d:len(mn.rec)], s, mn.rec[2*d:])
		}
		u.Nodes[i] = n
	}
	return u
}
