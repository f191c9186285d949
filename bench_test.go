// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per artifact, per DESIGN.md §4), plus per-query
// micro-benchmarks contrasting SCAN, SOTA bounds and KARL bounds.
//
// The experiment benchmarks execute the full runner once per iteration at a
// reduced scale; run karl bench for the paper-shaped printed output and
// larger sizes.
package karl

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"karl/internal/dataset"
	"karl/internal/experiments"
	"karl/internal/index"
)

// benchConfig keeps each experiment iteration around a second or less.
func benchConfig() experiments.Config {
	return experiments.Config{
		Scale:      1,
		MaxN:       4000,
		Queries:    48,
		TuneSample: 16,
		Seed:       1,
		Grid: []experiments.Candidate{
			{Kind: index.KDTree, LeafCap: 40},
			{Kind: index.BallTree, LeafCap: 80},
		},
		DimSweep: []int{8, 16, 32},
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1DensityMap regenerates Figure 1 (KDE surface, miniboone).
func BenchmarkFig1DensityMap(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig6BoundTrace regenerates Figure 6 (bound convergence traces).
func BenchmarkFig6BoundTrace(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7LeafCapacity regenerates Figure 7 (leaf-capacity sweep).
func BenchmarkFig7LeafCapacity(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkTable7Throughput regenerates Table VII (all methods × query
// types × datasets).
func BenchmarkTable7Throughput(b *testing.B) { runExperiment(b, "tab7") }

// BenchmarkFig9ThresholdSweep regenerates Figure 9 (τ sensitivity).
func BenchmarkFig9ThresholdSweep(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10EpsilonSweep regenerates Figure 10 (ε sensitivity).
func BenchmarkFig10EpsilonSweep(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11SizeSweep regenerates Figure 11 (dataset-size sweep).
func BenchmarkFig11SizeSweep(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12DimSweep regenerates Figure 12 (PCA dimensionality sweep).
func BenchmarkFig12DimSweep(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13Tightness regenerates Figure 13 (bound tightness).
func BenchmarkFig13Tightness(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkTable8OfflineTuning regenerates Table VIII (offline tuning).
func BenchmarkTable8OfflineTuning(b *testing.B) { runExperiment(b, "tab8") }

// BenchmarkTable9InSitu regenerates Table IX (in-situ end-to-end).
func BenchmarkTable9InSitu(b *testing.B) { runExperiment(b, "tab9") }

// BenchmarkTable10Polynomial regenerates Table X (polynomial kernel).
func BenchmarkTable10Polynomial(b *testing.B) { runExperiment(b, "tab10") }

// --- per-query micro-benchmarks -----------------------------------------

// benchCloud builds a clustered dataset plus one query.
func benchCloud(n, d int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(99))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		base := float64(i%5) * 0.18
		for j := range pts[i] {
			pts[i][j] = base + rng.NormFloat64()*0.04
		}
	}
	q := make([]float64, d)
	for j := range q {
		q[j] = 0.2 + rng.Float64()*0.2
	}
	return pts, q
}

// BenchmarkQueryKARLThreshold measures one TKAQ with KARL bounds.
func BenchmarkQueryKARLThreshold(b *testing.B) {
	pts, q := benchCloud(20000, 8)
	eng, err := Build(pts, Gaussian(20))
	if err != nil {
		b.Fatal(err)
	}
	exact, _ := eng.Aggregate(q)
	tau := exact * 1.05
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Threshold(q, tau); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuerySOTAThreshold measures the same TKAQ with SOTA bounds.
func BenchmarkQuerySOTAThreshold(b *testing.B) {
	pts, q := benchCloud(20000, 8)
	eng, err := Build(pts, Gaussian(20), WithMethod(MethodSOTA))
	if err != nil {
		b.Fatal(err)
	}
	exact, _ := eng.Aggregate(q)
	tau := exact * 1.05
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Threshold(q, tau); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryScan measures the unpruned exact aggregation.
func BenchmarkQueryScan(b *testing.B) {
	pts, q := benchCloud(20000, 8)
	eng, err := Build(pts, Gaussian(20))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Aggregate(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryKARLApproximate measures one eKAQ (ε = 0.2).
func BenchmarkQueryKARLApproximate(b *testing.B) {
	pts, q := benchCloud(20000, 8)
	eng, err := Build(pts, Gaussian(20))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Approximate(q, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpsNorm contrasts the two approximate budgets on the 20k cloud:
// "rel" asks for relative error ε, "norm" for ε·W with the normalized stop.
// Both report the points their refinement scanned per query.
func BenchmarkEpsNorm(b *testing.B) {
	pts, q := benchCloud(20000, 8)
	eng, err := Build(pts, Gaussian(20))
	if err != nil {
		b.Fatal(err)
	}
	arms := []struct {
		name string
		run  func(eps float64) (float64, Stats, error)
	}{
		{"rel", func(eps float64) (float64, Stats, error) { return eng.ApproximateStats(q, eps) }},
		{"norm", func(eps float64) (float64, Stats, error) { return eng.ApproximateNormStats(q, eps) }},
	}
	for _, arm := range arms {
		for _, eps := range []float64{0.05, 0.1, 0.2} {
			b.Run(fmt.Sprintf("%s/eps=%.2f", arm.name, eps), func(b *testing.B) {
				var scanned int
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, st, err := arm.run(eps)
					if err != nil {
						b.Fatal(err)
					}
					scanned = st.PointsScanned
				}
				b.ReportMetric(float64(scanned), "points/op")
			})
		}
	}
}

// BenchmarkBuildKDTree measures index construction, the cost the in-situ
// scenario pays per epoch.
func BenchmarkBuildKDTree(b *testing.B) {
	pts, _ := benchCloud(20000, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pts, Gaussian(20), WithIndex(KDTree, 80)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildBallTree measures ball-tree construction.
func BenchmarkBuildBallTree(b *testing.B) {
	pts, _ := benchCloud(20000, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pts, Gaussian(20), WithIndex(BallTree, 80)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildWriteLoad times the three stages a model crosses from raw
// points to serving — Build, WriteTo and ReadEngine — on the stand-ins of
// the home (200 000 × 10, Type I) and a9a (11 772 × 123, Type III) sets, and
// reports each in µs per point.
func BenchmarkBuildWriteLoad(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"home", 200000}, {"a9a", 11772}} {
		spec, err := dataset.ByName(c.name)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := dataset.GenerateSized(spec, c.n, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		pts := make([][]float64, c.n)
		for i := range pts {
			pts[i] = ds.Points.Row(i)
		}
		b.Run(fmt.Sprintf("%s-%dx%d", c.name, c.n, spec.Dim), func(b *testing.B) {
			var build, write, load time.Duration
			var file bytes.Buffer
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				eng, err := Build(pts, Gaussian(ds.Gamma), WithWeights(ds.Weights))
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				file.Reset()
				if _, err := eng.WriteTo(&file); err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				if _, err := ReadEngine(bytes.NewReader(file.Bytes())); err != nil {
					b.Fatal(err)
				}
				build, write, load = build+t1.Sub(t0), write+t2.Sub(t1), load+time.Since(t2)
			}
			per := float64(b.N*c.n) / 1e6 // µs per point from seconds
			b.ReportMetric(build.Seconds()/per, "build-µs/pt")
			b.ReportMetric(write.Seconds()/per, "write-µs/pt")
			b.ReportMetric(load.Seconds()/per, "load-µs/pt")
		})
	}
}
