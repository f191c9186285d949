// Package kernel defines the kernel functions supported by KARL — Gaussian,
// polynomial, and sigmoid (Section II and Section IV-B of the paper) — and
// exact weighted kernel aggregation, the quantity F_P(q) = Σ w_i K(q, p_i)
// that every query variant bounds or computes.
//
// Each kernel factors as K(q,p) = Outer(Scalar(q,p)) where Scalar is either
// γ·dist(q,p)² (Gaussian) or γ·q·p + β (polynomial, sigmoid) and Outer is a
// scalar function (exp(−x), x^deg, tanh(x)). KARL's linear bounds operate on
// the Outer function over an interval of Scalar values; the factorization
// lives here so the bound and engine packages share one definition.
package kernel

import (
	"fmt"
	"math"

	"karl/internal/vec"
)

// Kind enumerates the supported kernel families.
type Kind int

const (
	// Gaussian is K(q,p) = exp(−γ·dist(q,p)²).
	Gaussian Kind = iota
	// Polynomial is K(q,p) = (γ·q·p + β)^Degree.
	Polynomial
	// Sigmoid is K(q,p) = tanh(γ·q·p + β).
	Sigmoid
	// Epanechnikov is K(q,p) = max(0, 1 − γ·dist(q,p)²), the
	// mean-square-optimal KDE kernel. Its outer function is piecewise
	// linear and convex, so KARL's chord/tangent bounds are extremely
	// tight (an extension beyond the paper's three kernels).
	Epanechnikov
	// Quartic is the biweight kernel K(q,p) = max(0, 1 − γ·dist(q,p)²)²,
	// also convex in the scalar argument.
	Quartic
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Gaussian:
		return "gaussian"
	case Polynomial:
		return "polynomial"
	case Sigmoid:
		return "sigmoid"
	case Epanechnikov:
		return "epanechnikov"
	case Quartic:
		return "quartic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params fully specifies a kernel. Beta and Degree are ignored by the
// Gaussian kernel; Degree is ignored by the sigmoid kernel.
type Params struct {
	Kind   Kind
	Gamma  float64
	Beta   float64
	Degree int
}

// NewGaussian returns Gaussian kernel parameters.
func NewGaussian(gamma float64) Params { return Params{Kind: Gaussian, Gamma: gamma} }

// NewPolynomial returns polynomial kernel parameters.
func NewPolynomial(gamma, beta float64, degree int) Params {
	return Params{Kind: Polynomial, Gamma: gamma, Beta: beta, Degree: degree}
}

// NewSigmoid returns sigmoid kernel parameters.
func NewSigmoid(gamma, beta float64) Params {
	return Params{Kind: Sigmoid, Gamma: gamma, Beta: beta}
}

// NewEpanechnikov returns Epanechnikov kernel parameters.
func NewEpanechnikov(gamma float64) Params { return Params{Kind: Epanechnikov, Gamma: gamma} }

// NewQuartic returns quartic (biweight) kernel parameters.
func NewQuartic(gamma float64) Params { return Params{Kind: Quartic, Gamma: gamma} }

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Gamma <= 0 {
		return fmt.Errorf("kernel: gamma must be positive, got %v", p.Gamma)
	}
	if p.Kind == Polynomial && p.Degree < 1 {
		return fmt.Errorf("kernel: polynomial degree must be >= 1, got %d", p.Degree)
	}
	switch p.Kind {
	case Gaussian, Polynomial, Sigmoid, Epanechnikov, Quartic:
		return nil
	default:
		return fmt.Errorf("kernel: unknown kind %d", int(p.Kind))
	}
}

// DistanceBased reports whether the kernel's scalar argument is γ·dist²
// (true) or γ·q·p+β (false).
func (p Params) DistanceBased() bool {
	switch p.Kind {
	case Gaussian, Epanechnikov, Quartic:
		return true
	default:
		return false
	}
}

// Scalar returns the inner scalar x for the pair (q, pt): γ·dist(q,pt)² for
// the Gaussian kernel and γ·q·pt+β for the dot-product kernels.
func (p Params) Scalar(q, pt []float64) float64 {
	if p.DistanceBased() {
		return p.Gamma * vec.Dist2(q, pt)
	}
	return p.Gamma*vec.Dot(q, pt) + p.Beta
}

// Outer evaluates the outer scalar function at x.
func (p Params) Outer(x float64) float64 {
	switch p.Kind {
	case Gaussian:
		return vec.Exp(-x)
	case Polynomial:
		return powInt(x, p.Degree)
	case Sigmoid:
		return math.Tanh(x)
	case Epanechnikov:
		if x >= 1 {
			return 0
		}
		return 1 - x
	case Quartic:
		if x >= 1 {
			return 0
		}
		u := 1 - x
		return u * u
	default:
		panic("kernel: unknown kind")
	}
}

// OuterDeriv evaluates the derivative of the outer scalar function at x.
// Used by the tangent-based bounds.
func (p Params) OuterDeriv(x float64) float64 {
	switch p.Kind {
	case Gaussian:
		return -vec.Exp(-x)
	case Polynomial:
		return float64(p.Degree) * powInt(x, p.Degree-1)
	case Sigmoid:
		th := math.Tanh(x)
		return 1 - th*th
	case Epanechnikov:
		// Subgradient at the kink x = 1; the bound machinery only uses
		// derivatives inside smooth regions.
		if x >= 1 {
			return 0
		}
		return -1
	case Quartic:
		if x >= 1 {
			return 0
		}
		return -2 * (1 - x)
	default:
		panic("kernel: unknown kind")
	}
}

// Eval returns K(q, pt).
func (p Params) Eval(q, pt []float64) float64 { return p.Outer(p.Scalar(q, pt)) }

// powInt computes x^n for n ≥ 0 by binary exponentiation; exact for the
// small integer degrees SVMs use and faster than math.Pow.
func powInt(x float64, n int) float64 {
	if n < 0 {
		panic("kernel: negative exponent")
	}
	r := 1.0
	for n > 0 {
		if n&1 == 1 {
			r *= x
		}
		x *= x
		n >>= 1
	}
	return r
}

// RowsFunc evaluates the exact weighted kernel aggregation
// Σ w_i·K(q, m.Row(i)) over the contiguous row range [start,end) — the
// single exact-evaluation primitive behind leaf refinement, Engine.Exact
// and the scan baseline. qNorm2 is the caller-computed ‖q‖². norms, when
// non-nil, carries the per-row squared norms ‖p_i‖² and enables the fused
// distance form ‖q−p‖² = ‖q‖² − 2·q·p + ‖p‖², turning the inner loop into
// a dot product plus a norm lookup. weights may be nil (w_i = 1).
type RowsFunc func(q []float64, qNorm2 float64, m *vec.Matrix, norms, weights []float64, start, end int) float64

// RowsEvaluator returns the specialized RowsFunc for these parameters. The
// kernel dispatch happens exactly once, here — the returned function runs
// dispatch-free, so callers on the query hot path hoist it out of the scan
// loop (the engine caches it at construction).
func (p Params) RowsEvaluator() RowsFunc {
	gamma, beta := p.Gamma, p.Beta
	switch p.Kind {
	case Gaussian:
		return gaussianRows(gamma)
	case Epanechnikov:
		return distanceRows(gamma, func(d2 float64) float64 {
			if x := gamma * d2; x < 1 {
				return 1 - x
			}
			return 0
		})
	case Quartic:
		return distanceRows(gamma, func(d2 float64) float64 {
			if x := gamma * d2; x < 1 {
				u := 1 - x
				return u * u
			}
			return 0
		})
	case Sigmoid:
		return dotRows(func(dot float64) float64 { return math.Tanh(gamma*dot + beta) })
	case Polynomial:
		deg := p.Degree
		return dotRows(func(dot float64) float64 { return powInt(gamma*dot+beta, deg) })
	default:
		panic("kernel: unknown kind")
	}
}

// distanceRows builds the range evaluator for distance-based kernels. outer
// maps the squared distance (not yet scaled by γ — the closure does that) to
// the kernel value. With norms available the squared distance comes from the
// fused three-term form; otherwise it falls back to a direct subtraction
// loop, which is also the reference the fused form is tested against.
func distanceRows(_ float64, outer func(d2 float64) float64) RowsFunc {
	return func(q []float64, qNorm2 float64, m *vec.Matrix, norms, weights []float64, start, end int) float64 {
		var s float64
		if norms != nil {
			cols := m.Cols
			data := m.Data
			if weights == nil {
				for i := start; i < end; i++ {
					row := data[i*cols : i*cols+cols]
					d2 := qNorm2 - 2*vec.Dot(q, row) + norms[i]
					if d2 < 0 {
						d2 = 0 // guard float cancellation
					}
					s += outer(d2)
				}
				return s
			}
			for i := start; i < end; i++ {
				row := data[i*cols : i*cols+cols]
				d2 := qNorm2 - 2*vec.Dot(q, row) + norms[i]
				if d2 < 0 {
					d2 = 0
				}
				s += weights[i] * outer(d2)
			}
			return s
		}
		if weights == nil {
			for i := start; i < end; i++ {
				s += outer(vec.Dist2(q, m.Row(i)))
			}
			return s
		}
		for i := start; i < end; i++ {
			s += weights[i] * outer(vec.Dist2(q, m.Row(i)))
		}
		return s
	}
}

// leafTile is how many rows gaussianRows hands vec.ExpTile at a time: 512
// bytes of stack, and a default 80-point leaf is two tiles.
const leafTile = 64

// gaussianRows is distanceRows for the Gaussian kernel with the fused form
// written out in two passes over a stack tile: the first (gaussArgs) writes
// −γ·d² a row; vec.ExpTile then takes the whole tile, so the exps of a leaf
// overlap instead of queueing behind the running sum; the second adds w·e in
// row order. That is the closure form's summation order and its exp, so the
// two return the same bits (1·k is k, so unit weights share the loop);
// without norms it is the closure form, which is also left to refuse a query
// of the wrong width the way vec.Dot does.
func gaussianRows(gamma float64) RowsFunc {
	closure := distanceRows(gamma, func(d2 float64) float64 { return vec.Exp(-gamma * d2) })
	return func(q []float64, qNorm2 float64, m *vec.Matrix, norms, weights []float64, start, end int) float64 {
		if norms == nil || len(q) != m.Cols {
			return closure(q, qNorm2, m, norms, weights, start, end)
		}
		var s float64
		var tile [leafTile]float64
		for ; start < end; start += leafTile {
			x := tile[:min(leafTile, end-start)]
			gaussArgs(x, q, qNorm2, gamma, m, norms, start)
			vec.ExpTile(x)
			for k, e := range x {
				w := 1.0
				if weights != nil {
					w = weights[start+k]
				}
				s += w * e
			}
		}
		return s
	}
}

// gaussArgs writes −γ·d² of rows start, start+1, … of m into x, the squared
// distance in the fused form with the dot product inlined in vec.Dot's four
// accumulators.
func gaussArgs(x, q []float64, qNorm2, gamma float64, m *vec.Matrix, norms []float64, start int) {
	cols := m.Cols
	for k := range x {
		i := start + k
		row := m.Data[i*cols : i*cols+cols][:len(q)]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= len(q); j += 4 {
			s0 += q[j] * row[j]
			s1 += q[j+1] * row[j+1]
			s2 += q[j+2] * row[j+2]
			s3 += q[j+3] * row[j+3]
		}
		for ; j < len(q); j++ {
			s0 += q[j] * row[j]
		}
		d2 := qNorm2 - 2*((s0+s1)+(s2+s3)) + norms[i]
		if d2 < 0 {
			d2 = 0 // guard float cancellation
		}
		x[k] = -gamma * d2
	}
}

// Span is the row range [Start,End) of one stored matrix with its norm cache
// and weights (nil = unit), every weight counting Scale times.
type Span struct {
	M              *vec.Matrix
	Norms, Weights []float64
	Scale          float64
	Start, End     int
}

// SpansFunc evaluates Σ_span Scale·Σ_i w_i·K(q, row i) over several row
// ranges at once — the leaf scan of a cell whose rows lie in several
// segments' matrices.
type SpansFunc func(q []float64, qNorm2 float64, spans []Span) float64

// SpansEvaluator returns the SpansFunc for these parameters. The Gaussian
// one fills one exp tile across span boundaries, so a cell scans like one
// leaf of its total size however its rows are spread; the others sum a
// RowsFunc per span.
func (p Params) SpansEvaluator() SpansFunc {
	rows := p.RowsEvaluator()
	each := func(q []float64, qNorm2 float64, sp *Span) float64 {
		return sp.Scale * rows(q, qNorm2, sp.M, sp.Norms, sp.Weights, sp.Start, sp.End)
	}
	if p.Kind != Gaussian {
		return func(q []float64, qNorm2 float64, spans []Span) float64 {
			var s float64
			for i := range spans {
				if spans[i].Start < spans[i].End {
					s += each(q, qNorm2, &spans[i])
				}
			}
			return s
		}
	}
	gamma := p.Gamma
	return func(q []float64, qNorm2 float64, spans []Span) float64 {
		var s float64
		var tile, wt [leafTile]float64
		k := 0
		for si := range spans {
			sp := &spans[si]
			if sp.Norms == nil || len(q) != sp.M.Cols {
				s += each(q, qNorm2, sp)
				continue
			}
			for i := sp.Start; i < sp.End; {
				n := min(leafTile-k, sp.End-i)
				gaussArgs(tile[k:k+n], q, qNorm2, gamma, sp.M, sp.Norms, i)
				for j := k; j < k+n; j++ {
					wt[j] = sp.Scale
					if sp.Weights != nil {
						wt[j] *= sp.Weights[i+j-k]
					}
				}
				if k, i = k+n, i+n; k == leafTile {
					s = expSum(s, tile[:], wt[:])
					k = 0
				}
			}
		}
		return expSum(s, tile[:k], wt[:k])
	}
}

// expSum exponentiates the tile x and adds Σ w·e to s in row order.
func expSum(s float64, x, w []float64) float64 {
	vec.ExpTile(x)
	for k, e := range x {
		s += w[k] * e
	}
	return s
}

// dotRows builds the range evaluator for dot-product kernels; norms are
// irrelevant for these.
func dotRows(outer func(dot float64) float64) RowsFunc {
	return func(q []float64, _ float64, m *vec.Matrix, _, weights []float64, start, end int) float64 {
		var s float64
		cols := m.Cols
		data := m.Data
		if weights == nil {
			for i := start; i < end; i++ {
				s += outer(vec.Dot(q, data[i*cols:i*cols+cols]))
			}
			return s
		}
		for i := start; i < end; i++ {
			s += weights[i] * outer(vec.Dot(q, data[i*cols:i*cols+cols]))
		}
		return s
	}
}

// AggregateRows is the one-shot form of RowsEvaluator for callers off the
// hot path.
func AggregateRows(p Params, q []float64, m *vec.Matrix, norms, weights []float64, start, end int) float64 {
	return p.RowsEvaluator()(q, vec.Norm2(q), m, norms, weights, start, end)
}

// Aggregate computes the exact kernel aggregation Σ_i w_i·K(q, rows[i])
// over all rows of m. weights may be nil, meaning w_i = 1. It routes
// through the same range primitive as leaf refinement (without a norm
// cache, so distance kernels use the direct subtraction form).
func Aggregate(p Params, q []float64, m *vec.Matrix, weights []float64) float64 {
	return AggregateRows(p, q, m, nil, weights, 0, m.Rows)
}
