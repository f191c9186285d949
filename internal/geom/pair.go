package geom

import "math"

// Pair bounds: the dual-tree executor certifies a whole GROUP of queries
// (bounded by an axis-aligned rectangle, the natural volume of a kd-tree
// over the query batch) against a whole reference node at once. That needs
// the two-volume generalizations of the point-to-volume bounds above:
// ranges of dist(q,p)² and q·p over every q in the query rectangle and
// every p in the reference volume. Each bound reduces to the classic
// single-volume bound plus a triangle-inequality (or Cauchy–Schwarz)
// correction for the reference volume's extent.

// errPairVolume is a constant so that the volume does not escape through the
// panic: the dual-tree passes views it builds on its stack.
const errPairVolume = "geom: pair bounds take a *Rect or a *Ball"

// PairMinDist2 returns a lower bound on dist(q,p)² over all q in the query
// rectangle and all p in the reference volume.
func PairMinDist2(q *Rect, v Volume) float64 {
	switch r := v.(type) {
	case *Rect:
		var s float64
		for j := range q.Lo {
			// Per-dimension gap between the two intervals (0 when they
			// overlap); squared gaps sum because dimensions are independent.
			if d := r.Lo[j] - q.Hi[j]; d > 0 {
				s += d * d
			} else if d := q.Lo[j] - r.Hi[j]; d > 0 {
				s += d * d
			}
		}
		return s
	case *Ball:
		d := math.Sqrt(q.MinDist2(r.Center)) - r.Radius
		if d <= 0 {
			return 0
		}
		return d * d
	default:
		panic(errPairVolume)
	}
}

// PairMaxDist2 returns an upper bound on dist(q,p)² over all q in the query
// rectangle and all p in the reference volume.
func PairMaxDist2(q *Rect, v Volume) float64 {
	switch r := v.(type) {
	case *Rect:
		var s float64
		for j := range q.Lo {
			// Farthest pair of points from two intervals is always a pair of
			// opposite endpoints.
			d := math.Max(q.Hi[j]-r.Lo[j], r.Hi[j]-q.Lo[j])
			s += d * d
		}
		return s
	case *Ball:
		d := math.Sqrt(q.MaxDist2(r.Center)) + r.Radius
		return d * d
	default:
		panic(errPairVolume)
	}
}

// MaxNorm returns an upper bound on ‖q‖ over the rectangle: each coordinate
// independently attains the endpoint of larger magnitude.
func MaxNorm(q *Rect) float64 {
	var s float64
	for j := range q.Lo {
		m := math.Max(q.Lo[j]*q.Lo[j], q.Hi[j]*q.Hi[j])
		s += m
	}
	return math.Sqrt(s)
}

// PairIPMin returns a lower bound on q·p over all q in the query rectangle
// and all p in the reference volume.
func PairIPMin(q *Rect, v Volume) float64 {
	switch r := v.(type) {
	case *Rect:
		var s float64
		for j := range q.Lo {
			// x·y over two intervals is bilinear: extremes at corner pairs.
			s += math.Min(
				math.Min(q.Lo[j]*r.Lo[j], q.Lo[j]*r.Hi[j]),
				math.Min(q.Hi[j]*r.Lo[j], q.Hi[j]*r.Hi[j]),
			)
		}
		return s
	case *Ball:
		// q·p ≥ q·c − Radius·‖q‖ (Cauchy–Schwarz), minimized over the rect.
		return q.IPMin(r.Center) - r.Radius*MaxNorm(q)
	default:
		panic(errPairVolume)
	}
}

// PairIPMax returns an upper bound on q·p over all q in the query rectangle
// and all p in the reference volume.
func PairIPMax(q *Rect, v Volume) float64 {
	switch r := v.(type) {
	case *Rect:
		var s float64
		for j := range q.Lo {
			s += math.Max(
				math.Max(q.Lo[j]*r.Lo[j], q.Lo[j]*r.Hi[j]),
				math.Max(q.Hi[j]*r.Lo[j], q.Hi[j]*r.Hi[j]),
			)
		}
		return s
	case *Ball:
		return q.IPMax(r.Center) + r.Radius*MaxNorm(q)
	default:
		panic(errPairVolume)
	}
}
