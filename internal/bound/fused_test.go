package bound

import (
	"math"
	"math/rand"
	"testing"

	"karl/internal/index"
	"karl/internal/kdtree"
	"karl/internal/kernel"
	"karl/internal/vec"
)

// fusedTree builds a kd-tree over n clustered points in d dimensions with
// Type I (nil), II (positive) or III (mixed-sign) weights; one row in eight
// repeats its predecessor, so leaves of duplicates have zero extent.
func fusedTree(t testing.TB, rng *rand.Rand, n, d, typ, leafCap int) *index.Tree {
	t.Helper()
	m := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		if i > 0 && i%8 < 3 {
			copy(row, m.Row(i-1))
			continue
		}
		for j := range row {
			row[j] = float64(i%4) + rng.NormFloat64()*0.3
		}
	}
	var w []float64
	if typ > 1 {
		w = make([]float64, n)
		for i := range w {
			w[i] = rng.Float64() + 0.01
			if typ == 3 && rng.Intn(3) == 0 {
				w[i] = -w[i]
			}
		}
	}
	tr, err := kdtree.Build(m, w, leafCap)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestFusedMatchesGeneric holds gaussRectBounds to genericNodeBounds bit for
// bit: it is the same arithmetic in the same order, so reordering any one
// operation of the fused pass (a sum, the clamp, the chord) shows here as a
// last-bit difference on some node.
func TestFusedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(2207))
	var nodes, degenerate, underflow int
	for _, d := range []int{1, 3, 8, 10, 123} {
		for typ := 1; typ <= 3; typ++ {
			tr := fusedTree(t, rng, 400, d, typ, 2)
			root := tr.Root().Rect()
			queries := [][]float64{
				vec.Clone(tr.Points.Row(7)), // inside
				vec.Clone(root.Lo),          // at a corner
				vec.Clone(root.Hi),
				make([]float64, d), // outside, far
				make([]float64, d), // on a face
			}
			for j := 0; j < d; j++ {
				queries[3][j] = root.Hi[j] + 1 + rng.Float64()
				queries[4][j] = root.Lo[j] + rng.Float64()*(root.Hi[j]-root.Lo[j])
			}
			queries[4][0] = root.Hi[0]
			for _, gamma := range []float64{0.05, 2, 1e6} {
				k := kernel.NewGaussian(gamma)
				for _, q := range queries {
					qc := NewQueryCtx(q)
					for i := range tr.Nodes {
						n := &tr.Nodes[i]
						lb, ub := NodeBounds(KARL, k, qc, n)
						wlb, wub := genericNodeBounds(KARL, k, qc, n)
						if math.Float64bits(lb) != math.Float64bits(wlb) || math.Float64bits(ub) != math.Float64bits(wub) {
							t.Fatalf("d=%d type %d γ=%v node %d: fused [%x,%x] generic [%x,%x] (%v,%v vs %v,%v)",
								d, typ, gamma, i, math.Float64bits(lb), math.Float64bits(ub),
								math.Float64bits(wlb), math.Float64bits(wub), lb, ub, wlb, wub)
						}
						nodes++
						r := n.Rect()
						if a, b := Interval(k, qc, &r); a == b {
							degenerate++
						} else if math.Exp(-b) == 0 {
							underflow++
						}
					}
				}
			}
		}
	}
	// The table must reach the regimes it is for, not pass by missing them.
	if degenerate == 0 || underflow == 0 {
		t.Fatalf("%d nodes compared, %d on a degenerate interval, %d with exp(−b) underflowing: want both regimes hit",
			nodes, degenerate, underflow)
	}
}

// BenchmarkNodeBoundsGaussian is the harness's bound.ns_per_node in-process:
// KARL Gaussian bounds over a preorder walk of a d=10 kd-tree, through
// NodeBounds (the fused pass) and through the generic path it must equal.
// It walks the tree for many queries in turn because one query over a small
// tree lets the branch predictor learn which side of every node it is on.
func BenchmarkNodeBoundsGaussian(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 200000
	if testing.Short() {
		n = 20000
	}
	tr := fusedTree(b, rng, n, 10, 1, 80)
	k := kernel.NewGaussian(0.5)
	qcs := make([]*QueryCtx, 32)
	for i := range qcs {
		qcs[i] = NewQueryCtx(vec.Clone(tr.Points.Row(rng.Intn(n))))
	}
	for _, c := range []struct {
		name string
		f    func(Method, kernel.Params, *QueryCtx, *index.Node) (float64, float64)
	}{{"fused", NodeBounds}, {"generic", genericNodeBounds}} {
		b.Run(c.name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				qc := qcs[i%len(qcs)]
				for j := range tr.Nodes {
					lb, ub := c.f(KARL, k, qc, &tr.Nodes[j])
					sink += ub - lb
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Nodes)), "ns/node")
			if math.IsNaN(sink) {
				b.Fatal("NaN bound")
			}
		})
	}
}
