// Package bound implements the lower/upper bound functions that drive
// kernel aggregation pruning: the state-of-the-art (SOTA) bounds of
// Gray & Moore / Gan & Bailis, which evaluate the kernel at the node's
// extreme distances, and KARL's linear bound functions (Section III of the
// paper), which bound the outer scalar function by straight lines over the
// node's scalar interval and aggregate them in O(d).
//
// The central observation that keeps every KARL bound O(d): a linear bound
// L(x) = m·x + c aggregates as Σ w_i·L(x_i) = W·L(x̄) where x̄ is the
// weighted mean of the scalar arguments, and x̄ is available from the
// precomputed node statistics of index.Agg (Lemmas 2 and 5). So each bound
// below reduces to evaluating one well-chosen linear function at x̄:
//
//   - Upper bound, convex region: the chord over [a,b] (Lemma 3, Figure 4).
//   - Lower bound, convex region: the optimal tangent — Theorems 1–2 show
//     the best tangency point is t = x̄, collapsing to W·f(x̄) (Jensen).
//   - Odd-degree polynomial and sigmoid kernels have one inflection point;
//     on an interval straddling it the bound line pivots on an endpoint and
//     rotates until tangent to the curved side (Section IV-B, Figure 8),
//     with the chord as the degenerate fallback.
package bound

import (
	"fmt"
	"math"

	"karl/internal/geom"
	"karl/internal/index"
	"karl/internal/kernel"
	"karl/internal/vec"
)

// Method selects the bounding technique.
type Method int

const (
	// SOTA evaluates the kernel at the node's extreme scalar values
	// (Section II-B): lb = W·min f, ub = W·max f over the interval.
	SOTA Method = iota
	// KARL uses the linear bound functions of Section III.
	KARL
	// KARLLowerOnly is an ablation: KARL's optimal-tangent lower bound
	// paired with SOTA's upper bound. It isolates the contribution of the
	// paper's Theorem 1/2 tangent construction.
	KARLLowerOnly
	// KARLUpperOnly is an ablation: KARL's chord upper bound paired with
	// SOTA's lower bound. It isolates the contribution of the Lemma 3
	// chord construction.
	KARLUpperOnly
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case SOTA:
		return "SOTA"
	case KARL:
		return "KARL"
	case KARLLowerOnly:
		return "KARL-LB-only"
	case KARLUpperOnly:
		return "KARL-UB-only"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// QueryCtx carries the per-query values shared by every node bound
// computation. Build one with NewQueryCtx, or embed a QueryCtx value in
// longer-lived state and re-arm it per query with Set — the engine does the
// latter so the query hot path performs no allocation.
type QueryCtx struct {
	Q     []float64
	Norm2 float64 // ‖q‖²
}

// NewQueryCtx precomputes the reusable query terms.
func NewQueryCtx(q []float64) *QueryCtx {
	qc := &QueryCtx{}
	qc.Set(q)
	return qc
}

// Set re-arms the context for a new query point, reusing the receiver.
func (qc *QueryCtx) Set(q []float64) {
	qc.Q = q
	qc.Norm2 = vec.Norm2(q)
}

// Interval returns the scalar interval [a,b] of x over the volume for the
// given kernel: γ·[mindist², maxdist²] for the Gaussian, γ·[IPmin,IPmax]+β
// for dot-product kernels (γ > 0 preserves order). It switches on the two
// volumes there are instead of calling through geom.Volume, so the view
// NodeBounds builds of a node's record stays on its stack.
func Interval(k kernel.Params, qc *QueryCtx, vol geom.Volume) (a, b float64) {
	q, dist := qc.Q, k.DistanceBased()
	switch v := vol.(type) {
	case *geom.Rect:
		if dist {
			return k.Gamma * v.MinDist2(q), k.Gamma * v.MaxDist2(q)
		}
		return k.Gamma*v.IPMin(q) + k.Beta, k.Gamma*v.IPMax(q) + k.Beta
	case *geom.Ball:
		if dist {
			return k.Gamma * v.MinDist2(q), k.Gamma * v.MaxDist2(q)
		}
		return k.Gamma*v.IPMin(q) + k.Beta, k.Gamma*v.IPMax(q) + k.Beta
	}
	panic("bound: volume is neither *geom.Rect nor *geom.Ball")
}

// mean returns the weighted mean x̄ of the scalar arguments over one sign
// class, clamped into [a,b] to absorb floating-point drift. Returns
// (0,false) for an empty class.
func mean(k kernel.Params, qc *QueryCtx, agg *index.Agg, a, b float64) (float64, bool) {
	if agg.Count == 0 || agg.W <= 0 {
		return 0, false
	}
	var xbar float64
	if k.DistanceBased() {
		xbar = k.Gamma * agg.WeightedDist2Sum(qc.Q, qc.Norm2) / agg.W
	} else {
		xbar = k.Gamma*agg.WeightedDotSum(qc.Q)/agg.W + k.Beta
	}
	return math.Min(math.Max(xbar, a), b), true
}

// ends carries the scalar interval [a,b] of a node with the outer function's
// values at its two endpoints, evaluated once and shared by the chord, the
// endpoint range and both sign classes.
type ends struct{ a, b, fa, fb float64 }

func endsOf(k kernel.Params, a, b float64) ends {
	return ends{a, b, k.Outer(a), k.Outer(b)}
}

// ClassBounds bounds the one-sign-class aggregation Σ |w_i|·K(q,p_i) over a
// node: lb ≤ Σ ≤ ub. The weights in agg are non-negative by construction.
func ClassBounds(m Method, k kernel.Params, qc *QueryCtx, vol geom.Volume, agg *index.Agg) (lb, ub float64) {
	if agg.Count == 0 {
		return 0, 0
	}
	a, b := Interval(k, qc, vol)
	return classBounds(m, k, qc, endsOf(k, a, b), agg)
}

// classBounds is ClassBounds on an interval already computed.
func classBounds(m Method, k kernel.Params, qc *QueryCtx, e ends, agg *index.Agg) (lb, ub float64) {
	if agg.Count == 0 {
		return 0, 0
	}
	sLo, sHi := outerRange(k, e)
	if m == SOTA {
		return agg.W * sLo, agg.W * sHi
	}
	xbar, ok := mean(k, qc, agg, e.a, e.b)
	if !ok {
		return 0, 0
	}
	lo, hi := linearBoundsAt(k, e, xbar)
	// The paper proves KARL tighter than SOTA for the Gaussian kernel
	// (Lemmas 3–4); for the pivot-rotation bounds of Section IV-B a
	// rotated line can locally dip outside the endpoint range, so clamp
	// against the (already computed endpoint) SOTA bounds to make
	// KARL's bounds never looser for any kernel.
	lo = math.Max(lo, sLo)
	hi = math.Min(hi, sHi)
	switch m {
	case KARL:
		return agg.W * lo, agg.W * hi
	case KARLLowerOnly:
		return agg.W * lo, agg.W * sHi
	case KARLUpperOnly:
		return agg.W * sLo, agg.W * hi
	default:
		panic("bound: unknown method")
	}
}

// NodeBounds bounds the full signed aggregation of a node, combining the
// positive and negative weight classes per Section IV-A:
// lb = lb⁺ − ub⁻, ub = ub⁺ − lb⁻. The Gaussian KARL bound of a rectangle —
// the paper's headline case — is computed by the one-pass form in fused.go,
// bitwise what the generic path below returns.
func NodeBounds(m Method, k kernel.Params, qc *QueryCtx, n *index.Node) (lb, ub float64) {
	if m == KARL && k.Kind == kernel.Gaussian && !n.IsBall() {
		return gaussRectBounds(k.Gamma, qc, n)
	}
	return genericNodeBounds(m, k, qc, n)
}

// genericNodeBounds is NodeBounds for every kernel, method and volume.
func genericNodeBounds(m Method, k kernel.Params, qc *QueryCtx, n *index.Node) (lb, ub float64) {
	var a, b float64
	if n.IsBall() {
		v := n.Ball()
		a, b = Interval(k, qc, &v)
	} else {
		v := n.Rect()
		a, b = Interval(k, qc, &v)
	}
	e := endsOf(k, a, b)
	pos := n.Pos()
	lbP, ubP := classBounds(m, k, qc, e, &pos)
	if n.NegCount == 0 {
		return lbP, ubP
	}
	neg := n.Neg()
	lbN, ubN := classBounds(m, k, qc, e, &neg)
	return lbP - ubN, ubP - lbN
}

// outerRange returns the min and max of the outer kernel function over
// [a,b] — the SOTA bounds per unit weight.
func outerRange(k kernel.Params, e ends) (lo, hi float64) {
	switch k.Kind {
	case kernel.Gaussian, kernel.Epanechnikov, kernel.Quartic:
		// All three are decreasing in the scalar argument.
		return e.fb, e.fa
	case kernel.Sigmoid:
		// tanh is increasing.
		return e.fa, e.fb
	case kernel.Polynomial:
		if k.Degree%2 == 1 {
			// Odd degree is increasing.
			return e.fa, e.fb
		}
		// Even degree: minimum at 0 when the interval straddles it.
		hi = math.Max(e.fa, e.fb)
		if e.a <= 0 && 0 <= e.b {
			return 0, hi
		}
		return math.Min(e.fa, e.fb), hi
	default:
		panic("bound: unknown kernel")
	}
}

// linearBoundsAt returns the values at x̄ of KARL's tightest linear lower
// and upper bound functions for the outer function over [a,b]. Because
// every linear bound aggregates to W·L(x̄), these two numbers are all the
// caller needs.
func linearBoundsAt(k kernel.Params, e ends, xbar float64) (lo, hi float64) {
	f := k.Outer
	if e.b-e.a <= degenerateWidth*(1+math.Abs(e.a)+math.Abs(e.b)) {
		v := f(xbar)
		return v, v
	}
	switch k.Kind {
	case kernel.Gaussian, kernel.Epanechnikov, kernel.Quartic:
		// exp(−x), max(0,1−x) and max(0,1−x)² are convex everywhere.
		return jensenLo(f, xbar), e.chordAt(xbar)
	case kernel.Polynomial:
		if k.Degree%2 == 0 {
			// Even degree is convex everywhere.
			return jensenLo(f, xbar), e.chordAt(xbar)
		}
		return inflectBounds(k, e, xbar, true)
	case kernel.Sigmoid:
		return inflectBounds(k, e, xbar, false)
	default:
		panic("bound: unknown kernel")
	}
}

// degenerateWidth is the relative interval width below which the chord and
// tangent constructions become numerically meaningless; the interval is
// then treated as a point.
const degenerateWidth = 1e-12

// jensenLo is the optimal-tangent lower bound of a convex f evaluated at
// the tangency point x̄ itself: tangent-at-x̄ evaluated at x̄ is f(x̄)
// (Theorems 1 and 2).
func jensenLo(f func(float64) float64, xbar float64) float64 { return f(xbar) }

// chordAt evaluates the chord of f over [a,b] at x.
func (e ends) chordAt(x float64) float64 {
	return e.fa + (e.fb-e.fa)*(x-e.a)/(e.b-e.a)
}

// inflectBounds handles outer functions with a single inflection point at
// x = 0 and monotone increase: odd-degree polynomials (concave then convex,
// convexRight=true) and tanh (convex then concave, convexRight=false).
// Returns the lower and upper linear bound values at x̄.
func inflectBounds(k kernel.Params, e ends, xbar float64, convexRight bool) (lo, hi float64) {
	f, fp := k.Outer, k.OuterDeriv
	a, b := e.a, e.b
	switch {
	case a >= 0:
		if convexRight {
			// Fully convex region.
			return jensenLo(f, xbar), e.chordAt(xbar)
		}
		// Fully concave region: mirror of the convex case.
		return e.chordAt(xbar), f(xbar)
	case b <= 0:
		if convexRight {
			// Fully concave region.
			return e.chordAt(xbar), f(xbar)
		}
		return jensenLo(f, xbar), e.chordAt(xbar)
	}
	// Mixed interval a < 0 < b: one bound comes from the convex-side rule
	// evaluated via a pivot-rotation line, the other likewise (Figure 8).
	if convexRight {
		// Upper bound: pivot at (b, f(b)), tangency on the concave side
		// [a, 0]; rotate-down construction.
		hi = pivotLineAt(f, fp, b, a, 0, e, xbar, true)
		// Lower bound: pivot at (a, f(a)), tangency on the convex side
		// [0, b]; rotate-up construction.
		lo = pivotLineAt(f, fp, a, 0, b, e, xbar, false)
		return lo, hi
	}
	// tanh: upper bound pivots at (a, f(a)) with tangency on the concave
	// side [0, b]; lower bound pivots at (b, f(b)) with tangency on the
	// convex side [a, 0].
	hi = pivotLineAt(f, fp, a, 0, b, e, xbar, true)
	lo = pivotLineAt(f, fp, b, a, 0, e, xbar, false)
	return lo, hi
}

// pivotLineAt constructs the line through (pivot, f(pivot)) that is tangent
// to f at some t in the curved search interval [searchLo, searchHi], and
// evaluates it at x. When no tangency exists inside the search interval the
// binding constraint is the opposite endpoint, so the chord e over [a, b] is
// the correct (and valid) line. upper selects which side of the residual
// tangency error is safe: an upper-bound line must satisfy
// L_t(pivot) ≥ f(pivot), a lower-bound line the reverse, so after bisection
// the bracket endpoint with the correctly-signed residual is used.
func pivotLineAt(f, fp func(float64) float64, pivot, searchLo, searchHi float64, e ends, x float64, upper bool) float64 {
	// g(t) = L_t(pivot) − f(pivot) where L_t is the tangent of f at t.
	g := func(t float64) float64 { return f(t) + fp(t)*(pivot-t) - f(pivot) }
	lineAt := func(t float64) float64 { return f(t) + fp(t)*(x-t) }
	gLo, gHi := g(searchLo), g(searchHi)
	if gLo == 0 {
		return lineAt(searchLo)
	}
	if gHi == 0 {
		return lineAt(searchHi)
	}
	if (gLo > 0) == (gHi > 0) {
		// No tangency in the curved region: the binding slope constraint is
		// the far endpoint, so the chord over the full interval is both
		// valid and tightest.
		return e.chordAt(x)
	}
	lo, hi := searchLo, searchHi
	for i := 0; i < tangencyIters; i++ {
		mid := 0.5 * (lo + hi)
		if (g(mid) > 0) == (gLo > 0) {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Land on the side whose residual keeps the line valid.
	t := lo
	if (g(t) >= 0) != upper {
		t = hi
	}
	return lineAt(t)
}

// tangencyIters bounds the bisection for the pivot-rotation tangency; 60
// halvings reach float64 resolution on any practical interval.
const tangencyIters = 60
