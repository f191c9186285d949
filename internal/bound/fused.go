package bound

import (
	"math"

	"karl/internal/index"
	"karl/internal/vec"
)

// gaussRectBounds is NodeBounds(KARL) for the Gaussian kernel over a kd-tree
// node, read front to back off the node's record lo|hi|a⁺|W⁺|B⁺[|a⁻|W⁻|B⁻]:
// one loop over lo|hi yields mindist² and maxdist² where the generic path
// makes two through geom.Volume, q·a is vec.Dot on the slots that follow, and
// exp runs once per distinct argument — exp(−a), exp(−b) shared by the chord,
// the endpoint clamp and both sign classes, then exp(−x̄) per class. Every
// sum takes the terms Rect.MinDist2, Rect.MaxDist2, mean, linearBoundsAt and
// classBounds give it, in their order, so the result is bitwise
// genericNodeBounds' — which TestFusedMatchesGeneric holds it to.
func gaussRectBounds(gamma float64, qc *QueryCtx, n *index.Node) (lb, ub float64) {
	q := qc.Q
	d := len(q)
	rec := n.Record()
	lo, hi := rec[:d], rec[d:2*d]
	var mn, mx float64
	for j, v := range q {
		// Rect.MinDist2 and Rect.MaxDist2 side by side: outside the slab the
		// farther face is the opposite one and |v−l| or |h−v| is the gap
		// already in hand, so two of their comparisons are decided.
		l, h := lo[j], hi[j]
		var far float64
		switch {
		case v < l:
			t := l - v
			mn += t * t
			far = h - v
		case v > h:
			t := v - h
			mn += t * t
			far = v - l
		default:
			far = v - l
			if dHi := h - v; dHi > far {
				far = dHi
			}
		}
		mx += far * far
	}
	e := ends{a: gamma * mn, b: gamma * mx}
	e.fa, e.fb = vec.Exp(-e.a), vec.Exp(-e.b)
	pos := rec[2*d:]
	lb, ub = gaussClass(gamma, qc.Norm2, e, n.PosCount, vec.Dot(q, pos[:d]), pos[d], pos[d+1])
	if n.NegCount == 0 {
		return lb, ub
	}
	neg := pos[d+2:]
	lbN, ubN := gaussClass(gamma, qc.Norm2, e, n.NegCount, vec.Dot(q, neg[:d]), neg[d], neg[d+1])
	return lb - ubN, ub - lbN
}

// gaussClass bounds one sign class from its q·a, W and B: mean's x̄ clamped
// into [a,b], then linearBoundsAt's Jensen value and chord (both f(x̄) on a
// degenerate interval) clamped against the endpoint range. The min and max
// builtins order NaN and signed zeros as math.Min and math.Max do.
func gaussClass(gamma, qNorm2 float64, e ends, count int32, dot, w, b float64) (lb, ub float64) {
	if count == 0 || w <= 0 {
		return 0, 0
	}
	xbar := gamma * (w*qNorm2 - 2*dot + b) / w
	xbar = min(max(xbar, e.a), e.b)
	fx := vec.Exp(-xbar)
	chord := e.chordAt(xbar)
	if e.b-e.a <= degenerateWidth*(1+math.Abs(e.a)+math.Abs(e.b)) {
		chord = fx
	}
	return w * max(fx, e.fb), w * min(chord, e.fa)
}
