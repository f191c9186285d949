// Ablation benchmarks for the design choices DESIGN.md calls out: which
// side of KARL's bound pair drives the speedup, and how the two index
// structures compare under identical workloads.
package karl

import (
	"testing"
)

// ablationEngine builds one engine over the shared benchmark cloud.
func ablationEngine(b *testing.B, kind IndexKind, method Method) (*Engine, []float64, float64) {
	b.Helper()
	pts, q := benchCloud(20000, 8)
	eng, err := Build(pts, Gaussian(20), WithIndex(kind, 40), WithMethod(method))
	if err != nil {
		b.Fatal(err)
	}
	exact, _ := eng.Aggregate(q)
	return eng, q, exact * 1.05
}

func runThresholdBench(b *testing.B, eng *Engine, q []float64, tau float64) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Threshold(q, tau); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexKDTree / BallTree: the same KARL TKAQ on each
// index structure (the Figure 7 / Table VIII ablation axis).
func BenchmarkIndexKDTree(b *testing.B) {
	eng, q, tau := ablationEngine(b, KDTree, MethodKARL)
	runThresholdBench(b, eng, q, tau)
}

func BenchmarkIndexBallTree(b *testing.B) {
	eng, q, tau := ablationEngine(b, BallTree, MethodKARL)
	runThresholdBench(b, eng, q, tau)
}

// BenchmarkKernelGaussian / Epanechnikov / Quartic: identical TKAQ under
// different kernel profiles (the compact-support kernels prune harder).
func benchKernel(b *testing.B, k Kernel) {
	b.Helper()
	pts, q := benchCloud(20000, 8)
	eng, err := Build(pts, k)
	if err != nil {
		b.Fatal(err)
	}
	exact, _ := eng.Aggregate(q)
	runThresholdBench(b, eng, q, exact*1.05)
}

func BenchmarkKernelGaussian(b *testing.B)     { benchKernel(b, Gaussian(20)) }
func BenchmarkKernelEpanechnikov(b *testing.B) { benchKernel(b, Epanechnikov(20)) }
func BenchmarkKernelQuartic(b *testing.B)      { benchKernel(b, Quartic(20)) }

// BenchmarkBatchParallel measures the batch API fan-out (on a single-core
// host this mostly measures coordination overhead; on multi-core it
// scales).
func BenchmarkBatchParallel(b *testing.B) {
	pts, _ := benchCloud(10000, 6)
	eng, err := Build(pts, Gaussian(20))
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]float64, 64)
	for i := range queries {
		queries[i] = pts[i*100]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.BatchApproximate(queries, 0.2, 0); err != nil {
			b.Fatal(err)
		}
	}
}
