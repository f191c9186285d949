// Package kdtree builds the kd-tree variant of KARL's hierarchical index
// (Section II-B, Figure 2): widest-dimension median splits, axis-aligned
// bounding rectangles recomputed from the actual points, and per-node
// weighted aggregates for O(d) bound evaluation. Nodes are emitted directly
// into the flat DFS-preorder array of index.Tree; the point matrix is
// reordered into leaf order when the build finishes.
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
	if points == nil || points.Rows == 0 {
		return nil, fmt.Errorf("kdtree: empty point set")
	}
	if leafCap < 1 {
		return nil, fmt.Errorf("kdtree: leaf capacity must be >= 1, got %d", leafCap)
	}
	if weights != nil && len(weights) != points.Rows {
		return nil, fmt.Errorf("kdtree: %d weights for %d points", len(weights), points.Rows)
	}
	t := &index.Tree{
		Kind:    index.KDTree,
		Points:  points,
		Weights: weights,
		LeafCap: leafCap,
	}
	b := builder{t: t, pts: points, idx: make([]int, points.Rows)}
	for i := range b.idx {
		b.idx[i] = i
	}
	b.build(0, points.Rows, 0)
	t.Finish(b.idx)
	return t, nil
}

type builder struct {
	t   *index.Tree
	pts *vec.Matrix
	idx []int // working permutation: position -> original row
}

// build emits the subtree over idx[start:end) in DFS preorder and returns
// the position of its root node.
func (b *builder) build(start, end, depth int) int32 {
	ni := b.t.AppendNode(start, end, depth)
	rect := b.t.Node(ni).Rect()
	rect.Bound(b.pts, b.idx, start, end)
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
	// Guard against a degenerate partition when many coordinates equal the
	// median: ensure both sides are non-empty (selectNth already guarantees
	// mid strictly inside (start,end)).
	b.build(start, mid, depth+1)
	right := b.build(mid, end, depth+1)
	b.t.SetRight(ni, right)
	return ni
}

// selectNth partially sorts idx[start:end) by the given coordinate so that
// the element at position nth is in its sorted place (quickselect with
// median-of-three pivots).
func (b *builder) selectNth(start, end, nth, dim int) {
	idx := b.idx
	key := func(i int) float64 { return b.pts.Row(idx[i])[dim] }
	lo, hi := start, end-1
	for lo < hi {
		// Median-of-three pivot selection for resilience to sorted inputs.
		mid := lo + (hi-lo)/2
		if key(mid) < key(lo) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if key(hi) < key(lo) {
			idx[hi], idx[lo] = idx[lo], idx[hi]
		}
		if key(hi) < key(mid) {
			idx[hi], idx[mid] = idx[mid], idx[hi]
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
				idx[i], idx[j] = idx[j], idx[i]
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
