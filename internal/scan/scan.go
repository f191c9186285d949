// Package scan provides the two non-indexed baselines of the paper's
// evaluation (Section V-A2): SCAN, the dense sequential evaluator that
// computes F_P(q) with no pruning, and a LIBSVM-style evaluator that stores
// points in sparse format and exploits sparsity during the dot-product /
// distance computations, as LibSVM does for its decision function.
package scan

import (
	"errors"
	"fmt"

	"karl/internal/kernel"
	"karl/internal/vec"
)

// Scanner evaluates kernel aggregation queries by a full pass over the
// point set — the reference implementation every indexed method is checked
// against.
type Scanner struct {
	kern    kernel.Params
	points  *vec.Matrix
	weights []float64
}

// NewScanner constructs a dense scanner. weights may be nil (unit weights).
func NewScanner(points *vec.Matrix, weights []float64, kern kernel.Params) (*Scanner, error) {
	if points == nil || points.Rows == 0 {
		return nil, errors.New("scan: empty point set")
	}
	if weights != nil && len(weights) != points.Rows {
		return nil, fmt.Errorf("scan: %d weights for %d points", len(weights), points.Rows)
	}
	if err := kern.Validate(); err != nil {
		return nil, err
	}
	return &Scanner{kern: kern, points: points, weights: weights}, nil
}

// Aggregate computes F_P(q) exactly.
func (s *Scanner) Aggregate(q []float64) float64 {
	return kernel.Aggregate(s.kern, q, s.points, s.weights)
}

// Threshold answers the TKAQ exactly.
func (s *Scanner) Threshold(q []float64, tau float64) bool {
	return s.Aggregate(q) > tau
}

// Approximate trivially satisfies the eKAQ by returning the exact value.
func (s *Scanner) Approximate(q []float64, _ float64) float64 {
	return s.Aggregate(q)
}

// SparseVector is a LibSVM-style sparse representation: parallel slices of
// strictly increasing feature indices and their values.
type SparseVector struct {
	Index []int32
	Value []float64
}

// FromDense converts a dense vector into sparse form, dropping zeros.
func FromDense(v []float64) SparseVector {
	var sv SparseVector
	for i, x := range v {
		if x != 0 {
			sv.Index = append(sv.Index, int32(i))
			sv.Value = append(sv.Value, x)
		}
	}
	return sv
}

// Dot returns the sparse-sparse inner product.
func (a SparseVector) Dot(b SparseVector) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.Index) && j < len(b.Index) {
		switch {
		case a.Index[i] == b.Index[j]:
			s += a.Value[i] * b.Value[j]
			i++
			j++
		case a.Index[i] < b.Index[j]:
			i++
		default:
			j++
		}
	}
	return s
}

// Norm2 returns ‖a‖².
func (a SparseVector) Norm2() float64 {
	var s float64
	for _, v := range a.Value {
		s += v * v
	}
	return s
}

// LibSVM is the sparse exact evaluator modelled on LibSVM's prediction
// path: points live in sparse format, per-point squared norms are
// precomputed, and the Gaussian distance uses ‖q‖²−2q·p+‖p‖².
type LibSVM struct {
	kern    kernel.Params
	points  []SparseVector
	norms   []float64
	weights []float64
	dims    int
}

// NewLibSVM builds the sparse evaluator from a dense matrix. weights may be
// nil (unit weights).
func NewLibSVM(points *vec.Matrix, weights []float64, kern kernel.Params) (*LibSVM, error) {
	if points == nil || points.Rows == 0 {
		return nil, errors.New("scan: empty point set")
	}
	if weights != nil && len(weights) != points.Rows {
		return nil, fmt.Errorf("scan: %d weights for %d points", len(weights), points.Rows)
	}
	if err := kern.Validate(); err != nil {
		return nil, err
	}
	l := &LibSVM{kern: kern, weights: weights, dims: points.Cols}
	l.points = make([]SparseVector, points.Rows)
	l.norms = make([]float64, points.Rows)
	for i := 0; i < points.Rows; i++ {
		l.points[i] = FromDense(points.Row(i))
		l.norms[i] = l.points[i].Norm2()
	}
	return l, nil
}

// Aggregate computes F_P(q) exactly through the sparse representation.
func (l *LibSVM) Aggregate(q []float64) float64 {
	sq := FromDense(q)
	qNorm := sq.Norm2()
	var s float64
	for i, p := range l.points {
		var x float64
		if l.kern.DistanceBased() {
			d2 := qNorm - 2*sq.Dot(p) + l.norms[i]
			if d2 < 0 {
				d2 = 0 // guard cancellation
			}
			x = l.kern.Gamma * d2
		} else {
			x = l.kern.Gamma*sq.Dot(p) + l.kern.Beta
		}
		v := l.kern.Outer(x)
		if l.weights != nil {
			v *= l.weights[i]
		}
		s += v
	}
	return s
}

// Threshold answers the TKAQ exactly, mirroring LibSVM's decision function
// sign test.
func (l *LibSVM) Threshold(q []float64, tau float64) bool {
	return l.Aggregate(q) > tau
}

// Sparsity reports the fraction of stored entries that are non-zero.
func (l *LibSVM) Sparsity() float64 {
	var nz int
	for _, p := range l.points {
		nz += len(p.Value)
	}
	total := len(l.points) * l.dims
	if total == 0 {
		return 0
	}
	return float64(nz) / float64(total)
}
