// Package shard places a weighted point set on cluster members — the
// data-placement half of the cluster layer. Kernel aggregation is
// additively decomposable, F_P(q) = Σ_S F_S(q), so ANY placement of the
// rows yields shards whose per-shard answers (and per-shard lower/upper
// bounds) sum to the global ones; the placement only affects balance and
// bound tightness, never correctness.
//
// There is one placement rule, the Manifest's Route (router.go), and two
// kinds of it:
//
//   - Hash: FNV-1a over the point's coordinate bits onto a slot table.
//     Content-addressed and order-independent, so the same point lands on
//     the same member no matter how the source index stored it. Members
//     receive statistically even, spatially mixed slices — every member
//     sees the whole space, so per-member bound gaps shrink roughly
//     uniformly.
//   - KDSplit: a tree of axis cuts on the widest dimension (Plane). Members
//     own compact spatial regions, so for a localized query most members'
//     root bounds are already tight and the coordinator's adaptive
//     refinement can leave them alone after the first round.
//
// Found founds the manifest over a point set and Engine.Shard cuts shard
// engines by it, so a hash coordinator founded over those shards in order
// routes every point back to the shard that holds it.
package shard

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Kind selects the routing rule.
type Kind int

const (
	// Hash routes by a content hash of the point coordinates.
	Hash Kind = iota
	// KDSplit routes by recursive axis cuts on the widest dimension
	// (spatially compact members).
	KDSplit
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Hash:
		return "hash"
	case KDSplit:
		return "kd-split"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps the manifest/CLI names back to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "hash":
		return Hash, nil
	case "kd-split", "kd":
		return KDSplit, nil
	default:
		return 0, fmt.Errorf("shard: unknown partitioner %q (want hash or kd)", s)
	}
}

// Found returns the manifest of an n-member cluster over points, members
// 1…n named shard-0…shard-(n−1). Under Hash it is the manifest a
// coordinator founds over n members. Under KDSplit one member grows by
// recursive cuts: a region bound for k members is cut by Plane at rank
// ⌊k/2⌋/k, the lower side keeping the region's first member id and ⌊k/2⌋
// members, the upper side the rest — so member ids run left to right in
// space. points is not modified.
func Found(kind Kind, points [][]float64, n int) (*Manifest, error) {
	if len(points) == 0 {
		return nil, errors.New("shard: empty point set")
	}
	if n < 1 || n > len(points) {
		return nil, fmt.Errorf("shard: cannot split %d points into %d shards", len(points), n)
	}
	member := func(id uint64) Member { return Member{ID: id, Name: fmt.Sprintf("shard-%d", id-1)} }
	if kind != KDSplit {
		members := make([]Member, n)
		for i := range members {
			members[i] = member(uint64(i + 1))
		}
		return NewManifest(kind, members)
	}
	man, err := NewManifest(KDSplit, []Member{member(1)})
	if err != nil {
		return nil, err
	}
	var grow func(id uint64, rows [][]float64, k int) error
	grow = func(id uint64, rows [][]float64, k int) error {
		if k == 1 {
			return nil
		}
		kl := k / 2
		dim, cut, err := Plane(rows, kl, k)
		if err != nil {
			return fmt.Errorf("shard: cannot cut %d points into %d kd shards: %w", len(rows), k, err)
		}
		right := id + uint64(kl)
		if man, err = man.ApplySplit(id, member(right), SplitRule{Kind: KDSplit, Dim: dim, Cut: cut}); err != nil {
			return err
		}
		// Move the rows Route sends left (p[dim] < cut) to the front.
		l := 0
		for i, p := range rows {
			if p[dim] < cut {
				rows[l], rows[i] = rows[i], rows[l]
				l++
			}
		}
		if err := grow(id, rows[:l], kl); err != nil {
			return err
		}
		return grow(right, rows[l:], k-kl)
	}
	if err := grow(1, append([][]float64(nil), points...), n); err != nil {
		return nil, err
	}
	return man, nil
}

// Plane picks one kd cut over rows: the dimension of widest spread and, on
// it, the coordinate at rank ⌊len·num/den⌋ of the sorted values — moved up
// to the next larger value when it ties the minimum, so the lower side is
// never empty. Points with p[dim] ≥ cut fall on the upper side, as Route
// sends them. Rows no axis cut can separate (none, or all identical) are
// refused, with an error for the caller to name its operation in.
func Plane(rows [][]float64, num, den int) (dim int, cut float64, err error) {
	if len(rows) == 0 {
		return 0, 0, errors.New("no points to cut")
	}
	width := -1.0
	for j := range rows[0] {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range rows {
			if p[j] < lo {
				lo = p[j]
			}
			if p[j] > hi {
				hi = p[j]
			}
		}
		if hi-lo > width {
			dim, width = j, hi-lo
		}
	}
	if width <= 0 {
		return 0, 0, errors.New("all points identical, no axis cut separates them")
	}
	vals := make([]float64, len(rows))
	for i, p := range rows {
		vals[i] = p[dim]
	}
	sort.Float64s(vals)
	cut = vals[len(vals)*num/den]
	if cut == vals[0] {
		// A positive width leaves a larger value to advance to.
		cut = vals[sort.Search(len(vals), func(i int) bool { return vals[i] > cut })]
	}
	return dim, cut, nil
}
