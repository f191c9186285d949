// Package shard partitions a weighted point set across N shard engines —
// the data-placement half of the cluster layer. Kernel aggregation is
// additively decomposable, F_P(q) = Σ_S F_S(q), so ANY partition of the
// rows yields shards whose per-shard answers (and per-shard lower/upper
// bounds) sum to the global ones; the partitioner only affects balance and
// bound tightness, never correctness.
//
// Two partitioners are provided:
//
//   - Hash: FNV-1a over the point's coordinate bits. Content-addressed and
//     order-independent, so the same point lands on the same shard no
//     matter how the source index stored it. Shards receive statistically
//     even, spatially mixed slices — every shard sees the whole space, so
//     per-shard bound gaps shrink roughly uniformly.
//   - KDSplit: recursive median splits on the widest dimension, shares
//     divided proportionally. Shards own compact spatial regions, so for a
//     localized query most shards' root bounds are already tight and the
//     coordinator's adaptive refinement can leave them alone after the
//     first round.
//
// The resulting Plan is the row list of every shard; a shard's cardinality
// and weight masses W_S⁺/W_S⁻ — what the coordinator's ε-budget allocation
// and degraded-mode accounting need — are read off the engine built over it.
package shard

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"karl/internal/vec"
)

// Kind selects the partitioning strategy.
type Kind int

const (
	// Hash partitions by a content hash of the point coordinates.
	Hash Kind = iota
	// KDSplit partitions by recursive median splits on the widest
	// dimension (spatially compact shards).
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

// Plan is a computed partition: per-shard row lists into the source matrix.
type Plan struct {
	Kind Kind
	Rows [][]int
}

// Partition splits the rows of m into n shards. Every shard is guaranteed
// non-empty; with the hash partitioner a pathological small dataset can
// leave a shard empty, which is reported as an error (the kd partitioner
// never produces empty shards when n ≤ rows).
func Partition(m *vec.Matrix, n int, kind Kind) (*Plan, error) {
	if m == nil || m.Rows == 0 {
		return nil, fmt.Errorf("shard: empty point set")
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count %d out of range", n)
	}
	if n > m.Rows {
		return nil, fmt.Errorf("shard: cannot split %d points into %d shards", m.Rows, n)
	}
	var rows [][]int
	switch kind {
	case Hash:
		rows = hashPartition(m, n)
	case KDSplit:
		all := make([]int, m.Rows)
		for i := range all {
			all[i] = i
		}
		rows = make([][]int, 0, n)
		kdPartition(m, all, n, &rows)
	default:
		return nil, fmt.Errorf("shard: unknown partitioner %d", int(kind))
	}
	for s, rs := range rows {
		if len(rs) == 0 {
			return nil, fmt.Errorf("shard: shard %d of %d is empty over %d points (try the kd partitioner)", s, n, m.Rows)
		}
	}
	return &Plan{Kind: kind, Rows: rows}, nil
}

// hashPartition assigns each row by an FNV-1a hash of its coordinate bits.
// Hashing content rather than row position makes the assignment stable
// across index rebuilds and storage reorderings: the same point always
// lands on the same shard.
func hashPartition(m *vec.Matrix, n int) [][]int {
	rows := make([][]int, n)
	var buf [8]byte
	for r := 0; r < m.Rows; r++ {
		h := fnv.New64a()
		for _, v := range m.Row(r) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		s := int(h.Sum64() % uint64(n))
		rows[s] = append(rows[s], r)
	}
	return rows
}

// kdPartition recursively splits rows into n spatially compact groups,
// appending them to out in order. Each split sorts the rows along the
// widest dimension and cuts at the position proportional to the left
// half's shard share, so shard sizes differ by at most ⌈rows/n⌉ vs
// ⌊rows/n⌋.
func kdPartition(m *vec.Matrix, rows []int, n int, out *[][]int) {
	if n == 1 {
		*out = append(*out, rows)
		return
	}
	dim := widestDim(m, rows)
	sort.Slice(rows, func(i, j int) bool {
		a, b := m.Row(rows[i])[dim], m.Row(rows[j])[dim]
		if a != b {
			return a < b
		}
		// Deterministic total order even with duplicate coordinates.
		return rows[i] < rows[j]
	})
	nl := n / 2
	cut := len(rows) * nl / n
	kdPartition(m, rows[:cut], nl, out)
	kdPartition(m, rows[cut:], n-nl, out)
}

// widestDim returns the dimension with the largest coordinate spread over
// the given rows.
func widestDim(m *vec.Matrix, rows []int) int {
	d := m.Cols
	best, bestSpread := 0, -1.0
	for j := 0; j < d; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			v := m.Row(r)[j]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if spread := hi - lo; spread > bestSpread {
			best, bestSpread = j, spread
		}
	}
	return best
}
