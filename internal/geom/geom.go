// Package geom provides the bounding volumes used by KARL's index
// structures: axis-aligned rectangles (kd-tree) and balls (ball-tree),
// together with the query-to-volume distance and inner-product bounds that
// drive both the SOTA bounds of Gan & Bailis / Gray & Moore and KARL's
// linear bounds (Sections II-B and IV-B of the paper).
package geom

import (
	"fmt"
	"math"

	"karl/internal/vec"
)

// Volume is a bounding volume for a set of points. MinDist2/MaxDist2 bound
// the squared Euclidean distance from a query to any enclosed point; IPMin/
// IPMax bound the inner product q·p over enclosed points p (used by the
// polynomial and sigmoid kernels).
type Volume interface {
	// Contains reports whether p lies inside the volume (within tol).
	Contains(p []float64, tol float64) bool
	// MinDist2 returns a lower bound on dist(q,p)² for enclosed p.
	MinDist2(q []float64) float64
	// MaxDist2 returns an upper bound on dist(q,p)² for enclosed p.
	MaxDist2(q []float64) float64
	// IPMin returns a lower bound on q·p for enclosed p.
	IPMin(q []float64) float64
	// IPMax returns an upper bound on q·p for enclosed p.
	IPMax(q []float64) float64
}

// Rect is an axis-aligned bounding rectangle (Definition 2 in the paper).
type Rect struct {
	Lo []float64
	Hi []float64
}

// NewRect returns the degenerate rectangle around a single point.
func NewRect(p []float64) *Rect {
	return &Rect{Lo: vec.Clone(p), Hi: vec.Clone(p)}
}

// BoundRows returns the bounding rectangle of rows[idx[i]] for i in
// [start,end) of the index permutation. It panics on an empty range.
func BoundRows(m *vec.Matrix, idx []int, start, end int) *Rect {
	r := &Rect{Lo: make([]float64, m.Cols), Hi: make([]float64, m.Cols)}
	r.Bound(m, idx, start, end)
	return r
}

// Bound sets the rectangle, in the storage it already has, to the bounding
// rectangle BoundRows returns.
func (r *Rect) Bound(m *vec.Matrix, idx []int, start, end int) {
	if start >= end {
		panic(fmt.Sprintf("geom: empty row range [%d,%d)", start, end))
	}
	copy(r.Lo, m.Row(idx[start]))
	copy(r.Hi, r.Lo)
	for i := start + 1; i < end; i++ {
		r.Extend(m.Row(idx[i]))
	}
}

// Extend grows the rectangle to cover p.
func (r *Rect) Extend(p []float64) {
	for j, v := range p {
		if v < r.Lo[j] {
			r.Lo[j] = v
		}
		if v > r.Hi[j] {
			r.Hi[j] = v
		}
	}
}

// Dims returns the dimensionality of the rectangle.
func (r *Rect) Dims() int { return len(r.Lo) }

// WidestDim returns the dimension with the largest extent and that extent.
func (r *Rect) WidestDim() (dim int, width float64) {
	width = -1
	for j := range r.Lo {
		if w := r.Hi[j] - r.Lo[j]; w > width {
			width, dim = w, j
		}
	}
	return dim, width
}

// Contains implements Volume.
func (r *Rect) Contains(p []float64, tol float64) bool {
	for j, v := range p {
		if v < r.Lo[j]-tol || v > r.Hi[j]+tol {
			return false
		}
	}
	return true
}

// MinDist2 implements Volume: squared distance from q to the nearest face,
// zero when q is inside.
func (r *Rect) MinDist2(q []float64) float64 {
	var s float64
	for j, v := range q {
		switch {
		case v < r.Lo[j]:
			d := r.Lo[j] - v
			s += d * d
		case v > r.Hi[j]:
			d := v - r.Hi[j]
			s += d * d
		}
	}
	return s
}

// MaxDist2 implements Volume: squared distance from q to the farthest
// corner.
func (r *Rect) MaxDist2(q []float64) float64 {
	var s float64
	for j, v := range q {
		dLo := v - r.Lo[j]
		dHi := r.Hi[j] - v
		if dLo < 0 {
			dLo = -dLo
		}
		if dHi < 0 {
			dHi = -dHi
		}
		if dHi > dLo {
			dLo = dHi
		}
		s += dLo * dLo
	}
	return s
}

// IPMin implements Volume: per-dimension minimum of q_j·lo_j and q_j·hi_j.
func (r *Rect) IPMin(q []float64) float64 {
	var s float64
	for j, v := range q {
		s += math.Min(v*r.Lo[j], v*r.Hi[j])
	}
	return s
}

// IPMax implements Volume: per-dimension maximum of q_j·lo_j and q_j·hi_j.
func (r *Rect) IPMax(q []float64) float64 {
	var s float64
	for j, v := range q {
		s += math.Max(v*r.Lo[j], v*r.Hi[j])
	}
	return s
}

// Ball is a bounding hypersphere.
type Ball struct {
	Center []float64
	Radius float64
}

// BoundRowsBall returns the centroid ball of rows[idx[i]] for i in
// [start,end): center = mean, radius = max distance to the mean. It panics
// on an empty range.
func BoundRowsBall(m *vec.Matrix, idx []int, start, end int) *Ball {
	b := &Ball{Center: make([]float64, m.Cols)}
	b.Radius = BoundBall(b.Center, m, idx, start, end)
	return b
}

// BoundBall writes the centre of the ball BoundRowsBall returns into the
// zeroed c and returns its radius.
func BoundBall(c []float64, m *vec.Matrix, idx []int, start, end int) float64 {
	if start >= end {
		panic(fmt.Sprintf("geom: empty row range [%d,%d)", start, end))
	}
	for i := start; i < end; i++ {
		vec.AddTo(c, m.Row(idx[i]))
	}
	vec.ScaleTo(c, 1/float64(end-start))
	var r2 float64
	for i := start; i < end; i++ {
		if d := vec.Dist2(c, m.Row(idx[i])); d > r2 {
			r2 = d
		}
	}
	return math.Sqrt(r2)
}

// Contains implements Volume.
func (b *Ball) Contains(p []float64, tol float64) bool {
	return vec.Dist(b.Center, p) <= b.Radius+tol
}

// MinDist2 implements Volume: (max(0, dist(q,c) − r))².
func (b *Ball) MinDist2(q []float64) float64 {
	d := vec.Dist(q, b.Center) - b.Radius
	if d <= 0 {
		return 0
	}
	return d * d
}

// MaxDist2 implements Volume: (dist(q,c) + r)².
func (b *Ball) MaxDist2(q []float64) float64 {
	d := vec.Dist(q, b.Center) + b.Radius
	return d * d
}

// IPMin implements Volume: q·c − r‖q‖ (Cauchy–Schwarz).
func (b *Ball) IPMin(q []float64) float64 {
	return vec.Dot(q, b.Center) - b.Radius*vec.Norm(q)
}

// IPMax implements Volume: q·c + r‖q‖.
func (b *Ball) IPMax(q []float64) float64 {
	return vec.Dot(q, b.Center) + b.Radius*vec.Norm(q)
}
