package bound

import (
	"math"

	"karl/internal/geom"
	"karl/internal/index"
	"karl/internal/kernel"
)

// Group bounds: the dual-tree batch executor certifies a whole rectangle of
// queries against a reference node at once. For every query q in the
// rectangle these bounds must satisfy lb ≤ Σ w_i·K(q,p_i) ≤ ub — they are
// the uniform (worst-case-over-the-group) analogue of ClassBounds.
//
// The construction lifts KARL's linear-bound algebra one level: the scalar
// interval [a,b] comes from pair-volume geometry (geom.Pair*) instead of
// point-volume geometry, and the single weighted mean x̄ becomes a range
// [x̄lo, x̄hi] of per-query means over the rectangle. For convex outer
// functions both the Jensen tangent and the chord remain valid uniformly:
//
//   - lower: Σ ≥ W·f(x̄(q)) ≥ W·min f over [x̄lo, x̄hi]  (Jensen per query)
//   - upper: every x_i(q) lies in the pair interval [a,b], so the chord of
//     f over [a,b] dominates f at each x_i; the aggregate is then at most
//     W·chord(x̄(q)) ≤ W·max(chord(x̄lo), chord(x̄hi)) (chord is linear).
//
// Kernels whose outer function has an inflection point (sigmoid, odd-degree
// polynomial) fall back to the SOTA endpoint range, which is uniform by
// construction — the pivot-rotation lines depend on the individual x̄ in a
// non-monotone way, so they do not lift cheaply.

// GroupInterval returns the scalar interval [a,b] of x over all (q, p) pairs
// with q in the query rectangle and p in the reference volume.
func GroupInterval(k kernel.Params, qrect *geom.Rect, vol geom.Volume) (a, b float64) {
	if k.DistanceBased() {
		return k.Gamma * geom.PairMinDist2(qrect, vol), k.Gamma * geom.PairMaxDist2(qrect, vol)
	}
	return k.Gamma*geom.PairIPMin(qrect, vol) + k.Beta, k.Gamma*geom.PairIPMax(qrect, vol) + k.Beta
}

// groupMeanRange bounds the per-query weighted mean x̄(q) over the query
// rectangle, clamped into the pair interval [a,b] (which contains every
// individual x̄(q) by construction, so clamping only absorbs float drift).
//
// For distance kernels x̄(q) = γ(‖q−ā‖² + B/W − ‖ā‖²) with ā = A/W the
// weighted centroid; ‖q−ā‖² decomposes per dimension, so its range over the
// rectangle is the sum of per-dimension interval ranges. For dot-product
// kernels x̄(q) = γ·q·ā + β, again separable.
func groupMeanRange(k kernel.Params, qrect *geom.Rect, agg *index.Agg, a, b float64) (xlo, xhi float64, ok bool) {
	if agg.Count == 0 || agg.W <= 0 {
		return 0, 0, false
	}
	w := agg.W
	if k.DistanceBased() {
		var dmin, dmax, abar2 float64
		for j := range qrect.Lo {
			abar := agg.A[j] / w
			abar2 += abar * abar
			lo := qrect.Lo[j] - abar
			hi := qrect.Hi[j] - abar
			lo2, hi2 := lo*lo, hi*hi
			if lo > 0 || hi < 0 {
				dmin += math.Min(lo2, hi2)
			}
			dmax += math.Max(lo2, hi2)
		}
		c := agg.B/w - abar2
		xlo = k.Gamma * (dmin + c)
		xhi = k.Gamma * (dmax + c)
	} else {
		var ipmin, ipmax float64
		for j := range qrect.Lo {
			abar := agg.A[j] / w
			p1, p2 := abar*qrect.Lo[j], abar*qrect.Hi[j]
			ipmin += math.Min(p1, p2)
			ipmax += math.Max(p1, p2)
		}
		xlo = k.Gamma*ipmin + k.Beta
		xhi = k.Gamma*ipmax + k.Beta
	}
	xlo = math.Min(math.Max(xlo, a), b)
	xhi = math.Min(math.Max(xhi, a), b)
	if xlo > xhi {
		xlo, xhi = xhi, xlo
	}
	return xlo, xhi, true
}

// convexKernel reports whether the kernel's outer function is convex on all
// of its domain, which is what makes the Jensen/chord pair lift uniformly.
func convexKernel(k kernel.Params) bool {
	switch k.Kind {
	case kernel.Gaussian, kernel.Epanechnikov, kernel.Quartic:
		return true
	case kernel.Polynomial:
		return k.Degree%2 == 0
	default:
		return false
	}
}

// minConvexOn returns min f over [xlo, xhi] for a convex outer function.
func minConvexOn(k kernel.Params, xlo, xhi float64) float64 {
	f := k.Outer
	switch k.Kind {
	case kernel.Gaussian, kernel.Epanechnikov, kernel.Quartic:
		// Decreasing in the scalar argument.
		return f(xhi)
	case kernel.Polynomial:
		// Even degree: minimum at 0 when the interval straddles it.
		if xlo <= 0 && 0 <= xhi {
			return f(0)
		}
		return math.Min(f(xlo), f(xhi))
	default:
		panic("bound: minConvexOn on non-convex kernel")
	}
}

// groupClassBounds bounds the one-sign-class aggregation Σ |w_i|·K(q,p_i)
// uniformly over every q in the query rectangle, given the pair interval and
// the outer function's values at its ends.
func groupClassBounds(m Method, k kernel.Params, qrect *geom.Rect, e ends, agg *index.Agg) (lb, ub float64) {
	if agg.Count == 0 {
		return 0, 0
	}
	sLo, sHi := outerRange(k, e)
	if m == SOTA {
		return agg.W * sLo, agg.W * sHi
	}
	kLo, kHi := sLo, sHi
	if convexKernel(k) && e.b-e.a > degenerateWidth*(1+math.Abs(e.a)+math.Abs(e.b)) {
		if xlo, xhi, ok := groupMeanRange(k, qrect, agg, e.a, e.b); ok {
			kLo = math.Max(minConvexOn(k, xlo, xhi), sLo)
			kHi = math.Min(math.Max(e.chordAt(xlo), e.chordAt(xhi)), sHi)
		}
	}
	switch m {
	case KARL:
		return agg.W * kLo, agg.W * kHi
	case KARLLowerOnly:
		return agg.W * kLo, agg.W * sHi
	case KARLUpperOnly:
		return agg.W * sLo, agg.W * kHi
	default:
		panic("bound: unknown method")
	}
}

// GroupNodeBounds bounds the full signed aggregation of a node uniformly
// over the query rectangle, combining the sign classes as NodeBounds does:
// lb = lb⁺ − ub⁻, ub = ub⁺ − lb⁻.
func GroupNodeBounds(m Method, k kernel.Params, qrect *geom.Rect, n *index.Node) (lb, ub float64) {
	var a, b float64
	if n.IsBall() {
		v := n.Ball()
		a, b = GroupInterval(k, qrect, &v)
	} else {
		v := n.Rect()
		a, b = GroupInterval(k, qrect, &v)
	}
	e := endsOf(k, a, b)
	pos := n.Pos()
	lbP, ubP := groupClassBounds(m, k, qrect, e, &pos)
	if n.NegCount == 0 {
		return lbP, ubP
	}
	neg := n.Neg()
	lbN, ubN := groupClassBounds(m, k, qrect, e, &neg)
	return lbP - ubN, ubP - lbN
}
