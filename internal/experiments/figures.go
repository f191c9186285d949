package experiments

import (
	"fmt"
	"io"

	"karl/internal/bound"
	"karl/internal/core"
	"karl/internal/dataset"
	"karl/internal/kde"
	"karl/internal/kdtree"
	"karl/internal/kernel"
	"karl/internal/pca"
)

// Fig6Result holds the bound traces of Figure 6: global lower/upper bounds
// per refinement iteration for SOTA and KARL on one I-τ query.
type Fig6Result struct {
	Tau        float64
	SOTA, KARL []core.TracePoint
}

// Fig6BoundTrace reproduces Figure 6 on the home stand-in: trace the bound
// convergence of both methods on a borderline threshold query.
func Fig6BoundTrace(cfg Config, out io.Writer) (*Fig6Result, error) {
	cfg = cfg.withDefaults()
	ds, err := cfg.generate("home")
	if err != nil {
		return nil, err
	}
	kern := gaussianOf(ds)
	mu, _ := ExactStats(ds, kern)
	tree, err := kdtree.Build(ds.Points, ds.Weights, 80)
	if err != nil {
		return nil, err
	}
	q := ds.Queries.Row(0)
	res := &Fig6Result{Tau: mu}
	for _, method := range []bound.Method{bound.SOTA, bound.KARL} {
		eng, err := core.New(tree, kern, core.WithMethod(method))
		if err != nil {
			return nil, err
		}
		trace, err := eng.TraceThreshold(q, mu, 0)
		if err != nil {
			return nil, err
		}
		if method == bound.SOTA {
			res.SOTA = trace
		} else {
			res.KARL = trace
		}
	}
	fprintf(out, "Figure 6: bound values vs iteration (home, I-τ, τ=%.4g)\n", mu)
	fprintf(out, "KARL stops after %d iterations, SOTA after %d\n", len(res.KARL)-1, len(res.SOTA)-1)
	fprintf(out, "%10s %14s %14s %14s %14s\n", "iter", "LB_SOTA", "UB_SOTA", "LB_KARL", "UB_KARL")
	for i := 0; i < len(res.SOTA) || i < len(res.KARL); i += step(len(res.SOTA)) {
		line := fmt.Sprintf("%10d", i)
		if i < len(res.SOTA) {
			line += fmt.Sprintf(" %14.5g %14.5g", res.SOTA[i].LB, res.SOTA[i].UB)
		} else {
			line += fmt.Sprintf(" %14s %14s", "-", "-")
		}
		if i < len(res.KARL) {
			line += fmt.Sprintf(" %14.5g %14.5g", res.KARL[i].LB, res.KARL[i].UB)
		} else {
			line += fmt.Sprintf(" %14s %14s", "-", "-")
		}
		fprintf(out, "%s\n", line)
	}
	return res, nil
}

// step subsamples long traces for printing.
func step(n int) int {
	s := n / 20
	if s < 1 {
		s = 1
	}
	return s
}

// Fig7Point is one (index, leaf capacity) throughput measurement.
type Fig7Point struct {
	Kind       string
	LeafCap    int
	Throughput float64
}

// Fig7Result maps dataset name to its leaf-capacity sweep.
type Fig7Result struct {
	Sweeps map[string][]Fig7Point
}

// Fig7LeafCapacity reproduces Figure 7: KARL I-τ throughput as a function
// of leaf capacity for kd-tree and ball-tree on home and susy.
func Fig7LeafCapacity(cfg Config, out io.Writer) (*Fig7Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig7Result{Sweeps: map[string][]Fig7Point{}}
	fprintf(out, "Figure 7: KARL throughput vs leaf capacity (I-τ)\n")
	for _, name := range []string{"home", "susy"} {
		ds, err := cfg.generate(name)
		if err != nil {
			return nil, err
		}
		kern := gaussianOf(ds)
		mu, _ := ExactStats(ds, kern)
		w := Workload{Kernel: kern, Method: bound.KARL, Tau: mu}
		fprintf(out, "%-8s %-10s %8s %14s\n", "dataset", "index", "leaf", "queries/sec")
		one := cfg
		for _, cand := range DefaultGrid() {
			one.Grid = []Candidate{cand}
			r, err := one.Offline(ds, w, ds.Queries)
			if err != nil {
				return nil, err
			}
			tp := r[0].Throughput
			res.Sweeps[name] = append(res.Sweeps[name], Fig7Point{
				Kind: cand.Kind.String(), LeafCap: cand.LeafCap, Throughput: tp,
			})
			fprintf(out, "%-8s %-10s %8d %14.1f\n", name, cand.Kind, cand.LeafCap, tp)
		}
	}
	return res, nil
}

// SweepPoint is one x→throughput measurement of a parameter sweep, with
// one throughput per method.
type SweepPoint struct {
	X        float64
	SCAN     float64
	SOTABest float64
	KARLAuto float64
}

// Fig9Result maps dataset name to its threshold sweep (x = τ as μ+kσ, the
// k recorded in X).
type Fig9Result struct {
	Sweeps map[string][]SweepPoint
}

// fig9Offsets lists the τ offsets (in σ units) of Figure 9.
var fig9Offsets = []float64{-2, -1, 0, 1, 2, 3, 4}

// Fig9ThresholdSweep reproduces Figure 9: I-τ throughput across thresholds
// μ+kσ on miniboone, home and susy; negative thresholds are skipped exactly
// as the paper skips them for miniboone.
func Fig9ThresholdSweep(cfg Config, out io.Writer) (*Fig9Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig9Result{Sweeps: map[string][]SweepPoint{}}
	fprintf(out, "Figure 9: throughput vs threshold (I-τ)\n")
	fprintf(out, "%-10s %8s %12s %12s %12s\n", "dataset", "τ=μ+kσ", "SCAN", "SOTA_best", "KARL_auto")
	for _, name := range []string{"miniboone", "home", "susy"} {
		ds, err := cfg.generate(name)
		if err != nil {
			return nil, err
		}
		kern := gaussianOf(ds)
		mu, sigma := ExactStats(ds, kern)
		for _, k := range fig9Offsets {
			tau := mu + k*sigma
			if tau <= 0 {
				continue // the paper skips negative thresholds
			}
			pt, err := sweepPoint(cfg, ds, Workload{Kernel: kern, Tau: tau}, k)
			if err != nil {
				return nil, err
			}
			res.Sweeps[name] = append(res.Sweeps[name], pt)
			fprintf(out, "%-10s %8.1f %12.1f %12.1f %12.1f\n", name, k, pt.SCAN, pt.SOTABest, pt.KARLAuto)
		}
	}
	return res, nil
}

// Fig10Result maps dataset name to its ε sweep (X = ε).
type Fig10Result struct {
	Sweeps map[string][]SweepPoint
}

// Fig10EpsilonSweep reproduces Figure 10: I-ε throughput across relative
// errors 0.05..0.3.
func Fig10EpsilonSweep(cfg Config, out io.Writer) (*Fig10Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig10Result{Sweeps: map[string][]SweepPoint{}}
	fprintf(out, "Figure 10: throughput vs ε (I-ε)\n")
	fprintf(out, "%-10s %8s %12s %12s %12s\n", "dataset", "ε", "SCAN", "SOTA_best", "KARL_auto")
	for _, name := range []string{"miniboone", "home", "susy"} {
		ds, err := cfg.generate(name)
		if err != nil {
			return nil, err
		}
		kern := gaussianOf(ds)
		for _, eps := range []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3} {
			pt, err := sweepPoint(cfg, ds, Workload{Kernel: kern, Eps: eps}, eps)
			if err != nil {
				return nil, err
			}
			res.Sweeps[name] = append(res.Sweeps[name], pt)
			fprintf(out, "%-10s %8.2f %12.1f %12.1f %12.1f\n", name, eps, pt.SCAN, pt.SOTABest, pt.KARLAuto)
		}
	}
	return res, nil
}

// sweepPoint measures SCAN / SOTA-best / KARL-auto for one workload.
func sweepPoint(cfg Config, ds *dataset.Dataset, w Workload, x float64) (SweepPoint, error) {
	pt := SweepPoint{X: x}
	var err error
	if pt.SCAN, err = cfg.scanThroughput(ds, w); err != nil {
		return pt, err
	}
	if pt.SOTABest, err = bestIndexed(cfg, ds, w.with(bound.SOTA)); err != nil {
		return pt, err
	}
	pt.KARLAuto, err = autoIndexed(cfg, ds, w.with(bound.KARL))
	return pt, err
}

// Fig11Result holds the size sweeps for both query variants (X = n).
type Fig11Result struct {
	Tau []SweepPoint
	Eps []SweepPoint
}

// Fig11SizeSweep reproduces Figure 11: throughput on susy stand-ins of
// growing cardinality for I-τ (τ = μ) and I-ε (ε = 0.2).
func Fig11SizeSweep(cfg Config, out io.Writer) (*Fig11Result, error) {
	cfg = cfg.withDefaults()
	spec, err := dataset.ByName("susy")
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{}
	// Five sizes up to the configured cap, mirroring the paper's 1M..5M.
	maxN := cfg.MaxN
	fprintf(out, "Figure 11: throughput vs dataset size (susy)\n")
	fprintf(out, "%-8s %10s %12s %12s %12s\n", "variant", "n", "SCAN", "SOTA_best", "KARL_auto")
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		n := int(float64(maxN) * frac)
		ds, err := dataset.GenerateSized(spec, n, cfg.Queries, cfg.Seed)
		if err != nil {
			return nil, err
		}
		kern := gaussianOf(ds)
		mu, _ := ExactStats(ds, kern)
		tp, err := sweepPoint(cfg, ds, Workload{Kernel: kern, Tau: mu}, float64(n))
		if err != nil {
			return nil, err
		}
		res.Tau = append(res.Tau, tp)
		fprintf(out, "%-8s %10d %12.1f %12.1f %12.1f\n", "I-tau", n, tp.SCAN, tp.SOTABest, tp.KARLAuto)
		ep, err := sweepPoint(cfg, ds, Workload{Kernel: kern, Eps: 0.2}, float64(n))
		if err != nil {
			return nil, err
		}
		res.Eps = append(res.Eps, ep)
		fprintf(out, "%-8s %10d %12.1f %12.1f %12.1f\n", "I-eps", n, ep.SCAN, ep.SOTABest, ep.KARLAuto)
	}
	return res, nil
}

// Fig12Result is the dimensionality sweep (X = d after PCA).
type Fig12Result struct {
	Points []SweepPoint
}

// Fig12DimSweep reproduces Figure 12: I-τ throughput on the mnist stand-in
// reduced to each dimensionality by PCA. The default sweep tops out at 128
// dimensions (the paper's 784-d Jacobi decomposition is minutes of work on
// this substrate; raise Config.DimSweep to match the paper exactly).
func Fig12DimSweep(cfg Config, out io.Writer) (*Fig12Result, error) {
	cfg = cfg.withDefaults()
	maxDim := 0
	for _, d := range cfg.DimSweep {
		if d > maxDim {
			maxDim = d
		}
	}
	spec, err := dataset.ByName("mnist")
	if err != nil {
		return nil, err
	}
	spec.Dim = maxDim
	ds, err := dataset.Generate(spec, cfg.genOptions())
	if err != nil {
		return nil, err
	}
	model, err := pca.Fit(ds.Points)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{}
	fprintf(out, "Figure 12: throughput vs dimensionality (mnist, I-τ)\n")
	fprintf(out, "%8s %12s %12s %12s\n", "dim", "SCAN", "SOTA_best", "KARL_auto")
	for _, dim := range cfg.DimSweep {
		proj, err := model.Transform(ds.Points, dim)
		if err != nil {
			return nil, err
		}
		projQ, err := model.Transform(ds.Queries, dim)
		if err != nil {
			return nil, err
		}
		sub := &dataset.Dataset{Spec: spec, Points: proj, Queries: projQ}
		sub.Points.NormalizeUnit(0, 1)
		sub.Queries.NormalizeUnit(0, 1)
		kern, err := scottOf(sub)
		if err != nil {
			return nil, err
		}
		mu, _ := ExactStats(sub, kern)
		pt, err := sweepPoint(cfg, sub, Workload{Kernel: kern, Tau: mu}, float64(dim))
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
		fprintf(out, "%8d %12.1f %12.1f %12.1f\n", dim, pt.SCAN, pt.SOTABest, pt.KARLAuto)
	}
	return res, nil
}

// scottOf recomputes Scott's-rule γ for a transformed dataset.
func scottOf(ds *dataset.Dataset) (kernel.Params, error) {
	g, err := kde.ScottGamma(ds.Points)
	if err != nil {
		return kernel.Params{}, err
	}
	ds.Gamma = g
	return kernel.NewGaussian(g), nil
}
