// Package balltree builds the ball-tree variant of KARL's hierarchical
// index (Uhlmann's metric tree / Moore's anchors construction as used by
// Scikit-learn): nodes are bounded by centroid balls and split by the
// farthest-pair heuristic. Nodes are emitted directly into the flat
// DFS-preorder array of index.Tree; the point matrix is reordered into leaf
// order when the build finishes.
package balltree

import (
	"fmt"

	"karl/internal/geom"
	"karl/internal/index"
	"karl/internal/vec"
)

// Build constructs a ball-tree over points with the given per-point weights
// (nil for unit weights) and leaf capacity. The input matrix is read during
// construction but not retained: the tree owns a leaf-ordered copy.
func Build(points *vec.Matrix, weights []float64, leafCap int) (*index.Tree, error) {
	if points == nil || points.Rows == 0 {
		return nil, fmt.Errorf("balltree: empty point set")
	}
	if leafCap < 1 {
		return nil, fmt.Errorf("balltree: leaf capacity must be >= 1, got %d", leafCap)
	}
	if weights != nil && len(weights) != points.Rows {
		return nil, fmt.Errorf("balltree: %d weights for %d points", len(weights), points.Rows)
	}
	t := &index.Tree{
		Kind:    index.BallTree,
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
	rec := b.t.Node(ni).Record()
	center := rec[:b.pts.Cols]
	radius := geom.BoundBall(center, b.pts, b.idx, start, end)
	rec[b.pts.Cols] = radius
	if end-start <= b.t.LeafCap || radius == 0 {
		// Zero radius means all points coincide; splitting cannot help.
		return ni
	}
	mid := b.partition(start, end, center)
	if mid == start || mid == end {
		// Degenerate split (e.g. heavy duplication); keep an oversized leaf
		// rather than recurse forever.
		return ni
	}
	b.build(start, mid, depth+1)
	right := b.build(mid, end, depth+1)
	b.t.SetRight(ni, right)
	return ni
}

// partition implements the farthest-pair split: pick the point a farthest
// from the node centroid, then the point c farthest from a, and route every
// point to whichever anchor is closer. Returns the boundary position; the
// range [start,mid) holds the points closer to a.
func (b *builder) partition(start, end int, centroid []float64) int {
	idx := b.idx
	row := func(i int) []float64 { return b.pts.Row(idx[i]) }
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
