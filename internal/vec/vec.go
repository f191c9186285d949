// Package vec provides the dense-vector primitives used throughout KARL:
// squared Euclidean distances, dot products, norms and a handful of in-place
// update helpers. All functions operate on []float64 slices of equal length
// and panic on dimension mismatch, mirroring the contract of the rest of the
// library (dimensions are fixed at dataset-build time).
package vec

import (
	"fmt"
	"math"
)

// checkLen panics when two vectors disagree in length. The engine validates
// query dimensionality once per query, so this is a programming-error guard,
// not an input-validation path.
func checkLen(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(a), len(b)))
	}
}

// Dot returns the inner product a·b. The loop is 4-way unrolled with
// independent accumulators so the multiplies pipeline instead of serializing
// on one running sum — this is the innermost operation of every fused leaf
// scan and every O(d) bound evaluation.
func Dot(a, b []float64) float64 {
	checkLen(a, b)
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm2 returns the squared Euclidean norm ‖a‖².
func Norm2(a []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * a[i]
		s1 += a[i+1] * a[i+1]
		s2 += a[i+2] * a[i+2]
		s3 += a[i+3] * a[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * a[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm returns the Euclidean norm ‖a‖.
func Norm(a []float64) float64 { return math.Sqrt(Norm2(a)) }

// Dist2 returns the squared Euclidean distance ‖a−b‖², 4-way unrolled like
// Dot.
func Dist2(a, b []float64) float64 {
	checkLen(a, b)
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// Dist returns the Euclidean distance ‖a−b‖.
func Dist(a, b []float64) float64 { return math.Sqrt(Dist2(a, b)) }

// Add returns a new vector a+b.
func Add(a, b []float64) []float64 {
	checkLen(a, b)
	out := make([]float64, len(a))
	for i, av := range a {
		out[i] = av + b[i]
	}
	return out
}

// Sub returns a new vector a−b.
func Sub(a, b []float64) []float64 {
	checkLen(a, b)
	out := make([]float64, len(a))
	for i, av := range a {
		out[i] = av - b[i]
	}
	return out
}

// Scale returns a new vector s·a.
func Scale(s float64, a []float64) []float64 {
	out := make([]float64, len(a))
	for i, av := range a {
		out[i] = s * av
	}
	return out
}

// AddTo accumulates src into dst in place: dst += src.
func AddTo(dst, src []float64) {
	checkLen(dst, src)
	for i, sv := range src {
		dst[i] += sv
	}
}

// Axpy computes dst += s·src in place, 4-way unrolled.
func Axpy(dst []float64, s float64, src []float64) {
	checkLen(dst, src)
	src = src[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] += s * src[i]
		dst[i+1] += s * src[i+1]
		dst[i+2] += s * src[i+2]
		dst[i+3] += s * src[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] += s * src[i]
	}
}

// ScaleTo scales dst in place: dst *= s.
func ScaleTo(dst []float64, s float64) {
	for i := range dst {
		dst[i] *= s
	}
}

// Clone returns a copy of a.
func Clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Equal reports whether a and b are element-wise within tol of each other.
func Equal(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, av := range a {
		if math.Abs(av-b[i]) > tol {
			return false
		}
	}
	return true
}

// Mean returns the element-wise mean of the rows. It panics on an empty
// input.
func Mean(rows [][]float64) []float64 {
	if len(rows) == 0 {
		panic("vec: mean of empty set")
	}
	out := make([]float64, len(rows[0]))
	for _, r := range rows {
		AddTo(out, r)
	}
	ScaleTo(out, 1/float64(len(rows)))
	return out
}

// Matrix is a dense row-major matrix backing a point set. Points are stored
// contiguously so tree nodes can refer to contiguous index ranges.
type Matrix struct {
	Data []float64 // len == Rows*Cols
	Rows int
	Cols int
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Data: make([]float64, rows*cols), Rows: rows, Cols: cols}
}

// FromRows copies a slice of rows into a new matrix. All rows must share one
// length; an empty input yields a 0×0 matrix.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return &Matrix{}
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("vec: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns the i-th row as a mutable slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// SwapRows exchanges rows i and j in place. The tree builders swap rows in
// their partitions, so it moves four columns a step: at d = 123 that builds
// about a tenth faster than one column a step.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	rj = rj[:len(ri)]
	k := 0
	for ; k+4 <= len(ri); k += 4 {
		a, b := ri[k:k+4:k+4], rj[k:k+4:k+4]
		a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3] = b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3]
	}
	for ; k < len(ri); k++ {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Clone deep-copies the matrix. Appending to an empty slice allocates the
// copy without zeroing it first, which at 16 MB is a pass over memory saved.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Data: append([]float64(nil), m.Data...), Rows: m.Rows, Cols: m.Cols}
}

// ColumnStats returns the per-column mean and standard deviation (population
// formula). Used by Scott's rule and by normalization.
func (m *Matrix) ColumnStats() (mean, std []float64) {
	mean = make([]float64, m.Cols)
	std = make([]float64, m.Cols)
	if m.Rows == 0 {
		return mean, std
	}
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		for j, v := range r {
			mean[j] += v
		}
	}
	inv := 1 / float64(m.Rows)
	for j := range mean {
		mean[j] *= inv
	}
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		for j, v := range r {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] * inv)
	}
	return mean, std
}

// NormalizeUnit rescales every column into [lo, hi] in place and reports the
// original per-column min/max. Constant columns map to lo.
func (m *Matrix) NormalizeUnit(lo, hi float64) (mins, maxs []float64) {
	mins = make([]float64, m.Cols)
	maxs = make([]float64, m.Cols)
	for j := range mins {
		mins[j] = math.Inf(1)
		maxs[j] = math.Inf(-1)
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		for j, v := range r {
			span := maxs[j] - mins[j]
			if span <= 0 {
				r[j] = lo
				continue
			}
			r[j] = lo + (hi-lo)*(v-mins[j])/span
		}
	}
	return mins, maxs
}
