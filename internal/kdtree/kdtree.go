// Package kdtree builds the kd-tree variant of KARL's hierarchical index
// (Section II-B, Figure 2): widest-dimension median splits, axis-aligned
// bounding rectangles recomputed from the actual points, and per-node
// weighted aggregates for O(d) bound evaluation. Nodes are emitted directly
// into the flat DFS-preorder array of index.Tree. The build works on the
// tree's own copy of the rows and moves a row with every swap of its index,
// so node [start, end) is always rows start..end-1 and a bound is one
// contiguous scan; the copy is in leaf order when the build finishes.
//
// Build hands the right subtree of each of its top two levels to its own
// goroutine while the node is large enough to be worth it (forkWork), and
// splices the subtrees back in preorder, so a large build runs on up to four
// cores and still emits the tree the sequential recursion would.
//
// BuildOn cuts a point set on another tree's splits (a Skeleton) instead of
// its own medians, so every tree built on one skeleton has the skeleton's
// shape node for node — cells may be empty — and core.Forest can bound a
// group of them as one union tree.
package kdtree

import (
	"fmt"

	"karl/internal/index"
	"karl/internal/vec"
)

// Build constructs a kd-tree over points with the given per-point weights
// (nil for unit weights) and leaf capacity. The input matrix is read during
// construction but not retained: the tree owns a leaf-ordered copy.
// leafCap < 1 is an error; weights, when present, must match the point
// count.
func Build(points *vec.Matrix, weights []float64, leafCap int) (*index.Tree, error) {
	return build(points, weights, leafCap, forkWork)
}

// forkWork is the least work — rows × dimensions — a node of the top
// forkDepth levels must hold for Build to build its right subtree on another
// goroutine. Below it a subtree costs less than the hand-over is worth, so
// seals and small merges never leave their goroutine.
const (
	forkWork  = 1 << 18
	forkDepth = 2
)

// build is Build with the fork floor as a parameter: math.MaxInt is the
// sequential recursion the forked build must reproduce node for node.
func build(points *vec.Matrix, weights []float64, leafCap, fork int) (*index.Tree, error) {
	if points == nil || points.Rows == 0 {
		return nil, fmt.Errorf("kdtree: empty point set")
	}
	if leafCap < 1 {
		return nil, fmt.Errorf("kdtree: leaf capacity must be >= 1, got %d", leafCap)
	}
	if weights != nil && len(weights) != points.Rows {
		return nil, fmt.Errorf("kdtree: %d weights for %d points", len(weights), points.Rows)
	}
	t := &index.Tree{Kind: index.KDTree, Weights: weights, LeafCap: leafCap}
	b := newBuilder(t, points)
	b.fork = fork
	b.build(0, points.Rows, 0)
	t.Finish(b.idx)
	return t, nil
}

type builder struct {
	t    *index.Tree
	pts  *vec.Matrix // the tree's copy of the rows, permuted alongside idx
	idx  []int       // working permutation: position -> original row
	fork int         // work floor of a forked subtree (forkWork; MaxInt: never)
}

// newBuilder gives t a copy of points to own and a builder that permutes it.
func newBuilder(t *index.Tree, points *vec.Matrix) builder {
	t.Points = points.Clone()
	b := builder{t: t, pts: t.Points, idx: make([]int, points.Rows)}
	for i := range b.idx {
		b.idx[i] = i
	}
	return b
}

// swap exchanges positions i and j: their rows and their idx entries.
func (b *builder) swap(i, j int) {
	b.idx[i], b.idx[j] = b.idx[j], b.idx[i]
	b.pts.SwapRows(i, j)
}

// build emits the subtree over rows [start, end) in DFS preorder and returns
// the position of its root node.
func (b *builder) build(start, end, depth int) int32 {
	ni := b.t.AppendNode(start, end, depth)
	rect := b.t.Node(ni).Rect()
	rect.Bound(b.pts, start, end)
	if end-start <= b.t.LeafCap {
		return ni
	}
	dim, width := rect.WidestDim()
	if width == 0 {
		// All points identical in every dimension; splitting cannot make
		// progress, so keep an oversized leaf.
		return ni
	}
	mid := (start + end) / 2
	b.selectNth(start, end, mid, dim)
	if depth < forkDepth && (end-start)*b.pts.Cols >= b.fork {
		// The right subtree reads and permutes only rows [mid, end), so it
		// is built apart — into a node list of its own — while this
		// goroutine builds the left one, then appended behind it: the
		// preorder the sequential recursion emits.
		right := &builder{t: b.t.Fragment(end - mid), pts: b.pts, idx: b.idx, fork: b.fork}
		done := make(chan struct{})
		go func() {
			right.build(mid, end, depth+1)
			close(done)
		}()
		b.build(start, mid, depth+1)
		<-done
		b.t.SetRight(ni, b.t.Splice(right.t))
		return ni
	}
	b.build(start, mid, depth+1)
	right := b.build(mid, end, depth+1)
	b.t.SetRight(ni, right)
	return ni
}

// selectNth partially sorts rows [start, end) by the given coordinate so
// that the row at position nth is in its sorted place (quickselect with
// median-of-three pivots).
func (b *builder) selectNth(start, end, nth, dim int) {
	data, cols := b.pts.Data, b.pts.Cols
	key := func(i int) float64 { return data[i*cols+dim] }
	lo, hi := start, end-1
	for lo < hi {
		// Median-of-three pivot selection for resilience to sorted inputs.
		mid := lo + (hi-lo)/2
		if key(mid) < key(lo) {
			b.swap(mid, lo)
		}
		if key(hi) < key(lo) {
			b.swap(hi, lo)
		}
		if key(hi) < key(mid) {
			b.swap(hi, mid)
		}
		pivot := key(mid)
		i, j := lo, hi
		for i <= j {
			for key(i) < pivot {
				i++
			}
			for key(j) > pivot {
				j--
			}
			if i <= j {
				b.swap(i, j)
				i++
				j--
			}
		}
		switch {
		case nth <= j:
			hi = j
		case nth >= i:
			lo = i
		default:
			return
		}
	}
}

// Skeleton is a kd-tree's split plan: for every preorder node, the
// dimension it splits on (-1 at a leaf), the value that sends a point right
// (p[Dim] >= Val), and the position of its right child.
type Skeleton struct {
	Dim   []int32
	Val   []float64
	Right []int32
}

// Leaves returns the number of leaves of the skeleton's tree.
func (sk *Skeleton) Leaves() int { return (len(sk.Dim) + 1) / 2 }

// SkeletonOf reads the split plan of a kd-tree off its rectangles. At a
// node whose children both hold points the split is the widest of the node's
// dimensions the children do not overlap in, at the right child's low face:
// for a median build that is the dimension and value the build split on, and
// for a tree built on a skeleton a split that routes its own rows as the
// skeleton did. A node with an empty side splits its widest dimension at its
// middle. Any plan of the tree's shape is a valid one; these choices only
// keep the cells of trees built on it close to the source tree's.
func SkeletonOf(t *index.Tree) *Skeleton {
	n := t.NodeCount()
	sk := &Skeleton{Dim: make([]int32, n), Val: make([]float64, n), Right: make([]int32, n)}
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		sk.Right[i], sk.Dim[i] = nd.Right, -1
		if nd.IsLeaf() {
			continue
		}
		rect := nd.Rect()
		l, r := t.Node(int32(i+1)), t.Node(nd.Right)
		dim, width := rect.WidestDim()
		val := rect.Lo[dim] + width/2
		if l.Count() > 0 && r.Count() > 0 {
			lr, rr := l.Rect(), r.Rect()
			best := -1.0
			for j := range rect.Lo {
				if w := rect.Hi[j] - rect.Lo[j]; lr.Hi[j] <= rr.Lo[j] && w > best {
					best, dim, val = w, j, rr.Lo[j]
				}
			}
		}
		sk.Dim[i], sk.Val[i] = int32(dim), val
	}
	return sk
}

// BuildOn constructs a kd-tree over points with the skeleton's shape: each
// node's rows are partitioned by the skeleton's split instead of a median,
// so a cell may be empty (its record stays zero). Rectangles and aggregates
// are the rows' own, as in Build. leafCap is only recorded.
func BuildOn(points *vec.Matrix, weights []float64, sk *Skeleton, leafCap int) (*index.Tree, error) {
	if points == nil || points.Rows == 0 {
		return nil, fmt.Errorf("kdtree: empty point set")
	}
	if weights != nil && len(weights) != points.Rows {
		return nil, fmt.Errorf("kdtree: %d weights for %d points", len(weights), points.Rows)
	}
	if len(sk.Dim) == 0 || len(sk.Val) != len(sk.Dim) || len(sk.Right) != len(sk.Dim) {
		return nil, fmt.Errorf("kdtree: malformed skeleton")
	}
	t := &index.Tree{Kind: index.KDTree, Weights: weights, LeafCap: max(1, leafCap)}
	b := newBuilder(t, points)
	t.Reserve(len(sk.Dim))
	b.buildOn(sk, 0, points.Rows, 0)
	t.Finish(b.idx)
	return t, nil
}

// buildOn emits the subtree of skeleton node t.NodeCount() over rows
// [start, end) in DFS preorder, mirroring the skeleton's shape.
func (b *builder) buildOn(sk *Skeleton, start, end, depth int) {
	ni := b.t.AppendNode(start, end, depth)
	if start < end {
		rect := b.t.Node(ni).Rect()
		rect.Bound(b.pts, start, end)
	}
	dim := sk.Dim[ni]
	if dim < 0 {
		return
	}
	// Rows with p[dim] < val go left, to the front of the range.
	val, data, cols := sk.Val[ni], b.pts.Data, b.pts.Cols
	mid := start
	for i := start; i < end; i++ {
		if data[i*cols+int(dim)] < val {
			b.swap(i, mid)
			mid++
		}
	}
	b.buildOn(sk, start, mid, depth+1)
	b.t.SetRight(ni, int32(b.t.NodeCount()))
	b.buildOn(sk, mid, end, depth+1)
}
