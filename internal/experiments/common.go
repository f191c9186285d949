// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the synthetic stand-in datasets. Each runner
// returns a structured result and can print rows shaped like the paper's;
// karl bench and the repository-root benchmarks drive them.
//
// Absolute numbers differ from the paper (different hardware, scaled-down
// synthetic data); the assertions that matter are the shapes: who wins,
// by roughly what factor, and how trends move with τ, ε, n, d and leaf
// capacity. EXPERIMENTS.md records paper-versus-measured for each artifact.
package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"karl/internal/balltree"
	"karl/internal/core"
	"karl/internal/dataset"
	"karl/internal/index"
	"karl/internal/kdtree"
	"karl/internal/kernel"
	"karl/internal/scan"
	"karl/internal/tuning"
	"karl/internal/vec"
)

// Config scales the experiment suite. The zero value gives a laptop-sized
// run; raise Scale/Queries to approach the paper's setting.
type Config struct {
	// Scale multiplies the paper's dataset cardinalities (default 1/64).
	Scale float64
	// MaxN caps every generated dataset (default 20000).
	MaxN int
	// Queries is the measured query-set size (default 100; paper: 10000).
	Queries int
	// TuneSample is the offline-tuning sample size (default 50; paper: 1000).
	TuneSample int
	// Seed drives all generators (default 1).
	Seed int64
	// MinMeasure is the minimum wall time per throughput cell; the query
	// set is replayed until it elapses, stabilizing small measurements
	// (default 25ms).
	MinMeasure time.Duration
	// Grid is the tuning grid (default: reduced {kd,ball}×{20,80,320}).
	Grid []tuning.Candidate
	// DimSweep is the Figure 12 dimensionality sweep (default {16,32,64,128}
	// on a 128-d mnist stand-in; the paper sweeps to 784).
	DimSweep []int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0 / 64
	}
	if c.MaxN <= 0 {
		c.MaxN = 20000
	}
	if c.Queries <= 0 {
		c.Queries = 100
	}
	if c.TuneSample <= 0 {
		c.TuneSample = 50
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MinMeasure <= 0 {
		c.MinMeasure = 25 * time.Millisecond
	}
	if len(c.Grid) == 0 {
		for _, kind := range []index.Kind{index.KDTree, index.BallTree} {
			for _, lc := range []int{20, 80, 320} {
				c.Grid = append(c.Grid, tuning.Candidate{Kind: kind, LeafCap: lc})
			}
		}
	}
	if len(c.DimSweep) == 0 {
		c.DimSweep = []int{16, 32, 64, 128}
	}
	return c
}

// genOptions converts the config into dataset options.
func (c Config) genOptions() dataset.Options {
	return dataset.Options{Scale: c.Scale, MaxN: c.MaxN, Queries: c.Queries, Seed: c.Seed}
}

// throughput measures queries-per-second of fn over the query set,
// replaying the set until minMeasure of wall time has elapsed so that fast
// configurations aren't measured by a handful of microseconds.
func (c Config) throughput(queries *vec.Matrix, fn func(q []float64) error) (float64, error) {
	var total int
	start := time.Now()
	for {
		for i := 0; i < queries.Rows; i++ {
			if err := fn(queries.Row(i)); err != nil {
				return 0, err
			}
		}
		total += queries.Rows
		if time.Since(start) >= c.MinMeasure {
			break
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(total) / elapsed.Seconds(), nil
}

// workloadFn adapts a tuning.Workload to a per-query closure over an engine.
func workloadFn(e *core.Engine, w tuning.Workload) func(q []float64) error {
	if w.Mode == tuning.Threshold {
		return func(q []float64) error {
			_, _, err := e.Threshold(q, w.Tau)
			return err
		}
	}
	return func(q []float64) error {
		_, _, err := e.Approximate(q, w.Eps)
		return err
	}
}

// buildTree constructs one candidate index.
func buildTree(cand tuning.Candidate, pts *vec.Matrix, weights []float64) (*index.Tree, error) {
	if cand.Kind == index.BallTree {
		return balltree.Build(pts, weights, cand.LeafCap)
	}
	return kdtree.Build(pts, weights, cand.LeafCap)
}

// bestIndexed measures every grid candidate directly on the query set and
// returns the best throughput — the paper's SOTAbest / KARLbest / Scikitbest
// columns.
func bestIndexed(cfg Config, ds *dataset.Dataset, w tuning.Workload, queries *vec.Matrix) (float64, error) {
	best := -1.0
	for _, cand := range cfg.Grid {
		tree, err := buildTree(cand, ds.Points, ds.Weights)
		if err != nil {
			return 0, err
		}
		eng, err := core.New(tree, w.Kernel, core.WithMethod(w.Method))
		if err != nil {
			return 0, err
		}
		tp, err := cfg.throughput(queries, workloadFn(eng, w))
		if err != nil {
			return 0, err
		}
		if tp > best {
			best = tp
		}
	}
	return best, nil
}

// autoIndexed tunes on a sample (the KARLauto protocol: pick the candidate
// by sampled throughput) and then measures the winner on the full query
// set.
func autoIndexed(cfg Config, ds *dataset.Dataset, w tuning.Workload, sample, queries *vec.Matrix) (float64, error) {
	results, err := tuning.Offline(ds.Points, ds.Weights, w, sample, cfg.Grid)
	if err != nil {
		return 0, err
	}
	winner := results[0]
	eng, err := core.New(winner.Tree, w.Kernel, core.WithMethod(w.Method))
	if err != nil {
		return 0, err
	}
	return cfg.throughput(queries, workloadFn(eng, w))
}

// tuneSample derives the offline-tuning query sample from the dataset, as
// the paper samples |S|=1000 vectors from each dataset.
func tuneSample(cfg Config, ds *dataset.Dataset) *vec.Matrix {
	return dataset.SampleQueries(ds.Points, cfg.TuneSample, 0.05, cfg.Seed+977)
}

// exactStats computes μ and σ of F_P(q) over the query set — the paper's
// recipe for Type I thresholds (τ = μ, sweeps in μ + kσ).
func exactStats(ds *dataset.Dataset, kern kernel.Params) (mu, sigma float64) {
	s, err := scan.NewScanner(ds.Points, ds.Weights, kern)
	if err != nil {
		return 0, 0
	}
	n := ds.Queries.Rows
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = s.Aggregate(ds.Queries.Row(i))
		mu += vals[i]
	}
	mu /= float64(n)
	for _, v := range vals {
		sigma += (v - mu) * (v - mu)
	}
	sigma = math.Sqrt(sigma / float64(n))
	return mu, sigma
}

// fprintf writes formatted output, ignoring nil writers so runners can be
// called silently from tests.
func fprintf(out io.Writer, format string, args ...any) {
	if out != nil {
		fmt.Fprintf(out, format, args...)
	}
}

// gaussianOf returns the dataset's Gaussian kernel.
func gaussianOf(ds *dataset.Dataset) kernel.Params { return kernel.NewGaussian(ds.Gamma) }
