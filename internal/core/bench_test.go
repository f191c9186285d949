package core

import (
	"math/rand"
	"testing"

	"karl/internal/bound"
	"karl/internal/index"
	"karl/internal/kdtree"
	"karl/internal/kernel"
)

// benchForest builds the leaf-heavy Gaussian workload the refinement
// benchmarks share, plus a query and borderline τ.
func benchForest(b *testing.B) (*Forest, []float64, float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	n, d := 20000, 16
	m := makeClustered(rng, n, d, 4, 0.05)
	tr, err := kdtree.Build(m, nil, 40)
	if err != nil {
		b.Fatal(err)
	}
	k := kernel.NewGaussian(20)
	f, err := NewForest(k, bound.KARL)
	if err != nil {
		b.Fatal(err)
	}
	if err := f.SetTrees([]*index.Tree{tr}, []float64{1}); err != nil {
		b.Fatal(err)
	}
	q := make([]float64, d)
	for j := range q {
		q[j] = rng.Float64()
	}
	exact, _, err := f.Exact(q, 0)
	if err != nil {
		b.Fatal(err)
	}
	return f, q, exact * 1.05
}

// BenchmarkFastPathThreshold measures the single-segment fast path: the
// plain Forest dispatches straight into the single-tree loop.
func BenchmarkFastPathThreshold(b *testing.B) {
	f, q, tau := benchForest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Threshold(q, tau, 0); err != nil {
			b.Fatal(err)
		}
	}
	if f.FastPathQueries() == 0 {
		b.Fatal("benchmark did not exercise the fast path")
	}
}

// BenchmarkGenericForestThreshold forces the generic multi-segment loop on
// the identical workload via a unit scale — the delta against
// BenchmarkFastPathThreshold is the dispatch tax the fast path reclaims.
func BenchmarkGenericForestThreshold(b *testing.B) {
	f, q, tau := benchForest(b)
	if err := f.SetScales([]float64{1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Threshold(q, tau, 0); err != nil {
			b.Fatal(err)
		}
	}
	if f.FastPathQueries() != 0 {
		b.Fatal("scaled forest must not take the fast path")
	}
}

// BenchmarkExactScan64 measures the full-tree exact aggregate — pure
// leaf-scan throughput.
func BenchmarkExactScan64(b *testing.B) {
	f, q, _ := benchForest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Exact(q, 0); err != nil {
			b.Fatal(err)
		}
	}
}
