package experiments

import (
	"fmt"
	"io"
	"math"

	"karl/internal/bound"
	"karl/internal/core"
	"karl/internal/dataset"
	"karl/internal/kernel"
	"karl/internal/scan"
	"karl/internal/tuning"
	"karl/internal/vec"
)

// Table8Row compares tuning outcomes for one workload (Table VIII):
// the worst grid candidate, the auto-tuned pick, and the best candidate,
// all measured on the full query set.
type Table8Row struct {
	Type    QueryType
	Dataset string
	Worst   float64
	Auto    float64
	Best    float64
}

// Table8Result aggregates all rows.
type Table8Result struct {
	Rows []Table8Row
}

// Table8OfflineTuning reproduces Table VIII: KARL_worst / KARL_auto /
// KARL_best using the offline sampling protocol of Section III-C.
func Table8OfflineTuning(cfg Config, out io.Writer) (*Table8Result, error) {
	cfg = cfg.withDefaults()
	res := &Table8Result{}
	fprintf(out, "Table VIII: offline tuning (|S|=%d sample)\n", cfg.TuneSample)
	fprintf(out, "%-8s %-10s %12s %12s %12s\n", "Type", "Dataset", "KARL_worst", "KARL_auto", "KARL_best")
	for _, group := range table7Plan() {
		for _, name := range group.datasets {
			spec, err := dataset.ByName(name)
			if err != nil {
				return nil, err
			}
			ds, err := dataset.Generate(spec, cfg.genOptions())
			if err != nil {
				return nil, err
			}
			kern := gaussianOf(ds)
			w := tuning.Workload{Kernel: kern, Method: bound.KARL, Mode: tuning.Threshold}
			switch group.qt {
			case TypeIEps:
				w.Mode = tuning.Approximate
				w.Eps = 0.2
			case TypeITau:
				mu, _ := exactStats(ds, kern)
				w.Tau = mu
			default:
				w.Tau = ds.Tau
			}
			row, err := table8Row(cfg, ds, w)
			if err != nil {
				return nil, err
			}
			row.Type, row.Dataset = group.qt, name
			res.Rows = append(res.Rows, row)
			fprintf(out, "%-8s %-10s %12.1f %12.1f %12.1f\n",
				row.Type, row.Dataset, row.Worst, row.Auto, row.Best)
		}
	}
	return res, nil
}

func table8Row(cfg Config, ds *dataset.Dataset, w tuning.Workload) (Table8Row, error) {
	var row Table8Row
	// The auto pick uses sampled throughput only.
	sample := tuneSample(cfg, ds)
	tuned, err := tuning.Offline(ds.Points, ds.Weights, w, sample, cfg.Grid)
	if err != nil {
		return row, err
	}
	autoCand := tuned[0].Candidate
	// Re-measure every candidate on the full query set.
	worst, best, auto := -1.0, -1.0, -1.0
	for _, r := range tuned {
		eng, err := core.New(r.Tree, w.Kernel, core.WithMethod(w.Method))
		if err != nil {
			return row, err
		}
		tp, err := cfg.throughput(ds.Queries, workloadFn(eng, w))
		if err != nil {
			return row, err
		}
		if worst < 0 || tp < worst {
			worst = tp
		}
		if tp > best {
			best = tp
		}
		if r.Candidate == autoCand {
			auto = tp
		}
	}
	row.Worst, row.Auto, row.Best = worst, auto, best
	return row, nil
}

// Table9Row compares in-situ solutions for one workload (Table IX):
// the scan baseline and the online-tuned SOTA/KARL end-to-end throughput.
type Table9Row struct {
	Type       QueryType
	Dataset    string
	Baseline   float64
	SOTAOnline float64
	KARLOnline float64
}

// Table9Result aggregates all rows.
type Table9Result struct {
	Rows []Table9Row
}

// Table9InSitu reproduces Table IX: end-to-end throughput (index build +
// tuning + queries) in the in-situ scenario of Section III-C.
func Table9InSitu(cfg Config, out io.Writer) (*Table9Result, error) {
	cfg = cfg.withDefaults()
	res := &Table9Result{}
	fprintf(out, "Table IX: in-situ end-to-end throughput\n")
	fprintf(out, "%-8s %-10s %12s %12s %12s\n", "Type", "Dataset", "baseline", "SOTA_online", "KARL_online")
	for _, group := range table7Plan() {
		for _, name := range group.datasets {
			spec, err := dataset.ByName(name)
			if err != nil {
				return nil, err
			}
			ds, err := dataset.Generate(spec, cfg.genOptions())
			if err != nil {
				return nil, err
			}
			kern := gaussianOf(ds)
			w := tuning.Workload{Kernel: kern, Mode: tuning.Threshold}
			switch group.qt {
			case TypeIEps:
				w.Mode = tuning.Approximate
				w.Eps = 0.2
			case TypeITau:
				mu, _ := exactStats(ds, kern)
				w.Tau = mu
			default:
				w.Tau = ds.Tau
			}
			row := Table9Row{Type: group.qt, Dataset: name}
			// Baseline: plain scan, no index to build.
			sc, err := scan.NewScanner(ds.Points, ds.Weights, kern)
			if err != nil {
				return nil, err
			}
			if w.Mode == tuning.Threshold {
				row.Baseline, err = cfg.throughput(ds.Queries, func(q []float64) error { sc.Threshold(q, w.Tau); return nil })
			} else {
				row.Baseline, err = cfg.throughput(ds.Queries, func(q []float64) error { sc.Approximate(q, w.Eps); return nil })
			}
			if err != nil {
				return nil, err
			}
			sw := w
			sw.Method = bound.SOTA
			sRep, err := tuning.Online(ds.Points, ds.Weights, sw, ds.Queries, 0.05)
			if err != nil {
				return nil, err
			}
			row.SOTAOnline = sRep.Throughput
			kw := w
			kw.Method = bound.KARL
			kRep, err := tuning.Online(ds.Points, ds.Weights, kw, ds.Queries, 0.05)
			if err != nil {
				return nil, err
			}
			row.KARLOnline = kRep.Throughput
			res.Rows = append(res.Rows, row)
			fprintf(out, "%-8s %-10s %12.1f %12.1f %12.1f\n",
				row.Type, row.Dataset, row.Baseline, row.SOTAOnline, row.KARLOnline)
		}
	}
	return res, nil
}

// Table10Row is one polynomial-kernel throughput row (Table X).
type Table10Row struct {
	Type     QueryType
	Dataset  string
	Baseline float64
	SOTABest float64
	KARLAuto float64
}

// Table10Result aggregates all rows.
type Table10Result struct {
	Rows []Table10Row
}

// Table10Polynomial reproduces Table X: II-τ and III-τ throughput with the
// degree-3 polynomial kernel on data normalized to [−1,1]^d, LibSVM's
// default polynomial setting.
func Table10Polynomial(cfg Config, out io.Writer) (*Table10Result, error) {
	cfg = cfg.withDefaults()
	res := &Table10Result{}
	fprintf(out, "Table X: polynomial kernel (degree 3) throughput\n")
	fprintf(out, "%-8s %-10s %12s %12s %12s\n", "Type", "Dataset", "baseline", "SOTA_best", "KARL_auto")
	plan := []struct {
		qt       QueryType
		datasets []string
	}{
		{TypeIITau, []string{"nsl-kdd", "kdd99", "covtype"}},
		{TypeIIITau, []string{"ijcnn1", "a9a", "covtype-b"}},
	}
	for _, group := range plan {
		for _, name := range group.datasets {
			spec, err := dataset.ByName(name)
			if err != nil {
				return nil, err
			}
			ds, err := dataset.Generate(spec, cfg.genOptions())
			if err != nil {
				return nil, err
			}
			// Renormalize to [−1,1]^d as the paper does for poly kernels.
			ds.Points.NormalizeUnit(-1, 1)
			ds.Queries.NormalizeUnit(-1, 1)
			kern := kernel.NewPolynomial(ds.Gamma, 0, 3)
			tau := polyThreshold(ds, kern)
			w := tuning.Workload{Kernel: kern, Mode: tuning.Threshold, Tau: tau}
			row := Table10Row{Type: group.qt, Dataset: name}
			sc, err := scan.NewScanner(ds.Points, ds.Weights, kern)
			if err != nil {
				return nil, err
			}
			row.Baseline, err = cfg.throughput(ds.Queries, func(q []float64) error { sc.Threshold(q, tau); return nil })
			if err != nil {
				return nil, err
			}
			sw := w
			sw.Method = bound.SOTA
			if row.SOTABest, err = bestIndexed(cfg, ds, sw, ds.Queries); err != nil {
				return nil, err
			}
			kw := w
			kw.Method = bound.KARL
			if row.KARLAuto, err = autoIndexed(cfg, ds, kw, tuneSample(cfg, ds), ds.Queries); err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
			fprintf(out, "%-8s %-10s %12.1f %12.1f %12.1f\n",
				row.Type, row.Dataset, row.Baseline, row.SOTABest, row.KARLAuto)
		}
	}
	return res, nil
}

// polyThreshold places τ at the median of F over a query subsample —
// the trained-ρ surrogate for the polynomial kernel.
func polyThreshold(ds *dataset.Dataset, kern kernel.Params) float64 {
	n := ds.Queries.Rows
	if n > 32 {
		n = 32
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = kernel.Aggregate(kern, ds.Queries.Row(i), ds.Points, ds.Weights)
	}
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			if vals[j] < vals[i] {
				vals[i], vals[j] = vals[j], vals[i]
			}
		}
	}
	return vals[len(vals)/2]
}

// Fig1Result is the rendered density grid of Figure 1.
type Fig1Result struct {
	Res  int
	Grid []float64 // row-major Res×Res
}

// Fig1DensityMap reproduces Figure 1: the kernel density surface over the
// first two dimensions of the miniboone stand-in on karl kde's grid, every
// cell one eKAQ within ε = 0.1 on the engine's approximate path.
func Fig1DensityMap(cfg Config, out io.Writer) (*Fig1Result, error) {
	cfg = cfg.withDefaults()
	spec, err := dataset.ByName("miniboone")
	if err != nil {
		return nil, err
	}
	ds, err := dataset.Generate(spec, cfg.genOptions())
	if err != nil {
		return nil, err
	}
	tree, err := buildTree(tuning.Candidate{Kind: cfg.Grid[0].Kind, LeafCap: 80}, ds.Points, nil)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(tree, gaussianOf(ds), core.WithMethod(bound.KARL))
	if err != nil {
		return nil, err
	}
	const res = 24
	queries, err := DensityQueries(ds.Points, 0, 1, res)
	if err != nil {
		return nil, err
	}
	grid := make([]float64, res*res)
	invN := 1 / float64(ds.Points.Rows)
	for i, q := range queries {
		v, _, err := eng.Approximate(q, 0.1)
		if err != nil {
			return nil, err
		}
		grid[i] = v * invN
	}
	if out != nil {
		fmt.Fprintf(out, "Figure 1: KDE density surface, miniboone dims 1–2 (%dx%d grid)\n", res, res)
		fmt.Fprintf(out, "peak density %.4g\n", PrintHeatmap(out, grid, res))
	}
	return &Fig1Result{Res: res, Grid: grid}, nil
}

// DensityQueries returns the query points of a density surface: a uniform
// row-major res×res grid (query iy*res+ix) spanning the data's range in
// dimensions dimX and dimY, every other dimension held at the dataset mean —
// the Figure 1 visualization. Out-of-range or equal dimensions and a
// resolution under 2 are refused before any column is read.
func DensityQueries(pts *vec.Matrix, dimX, dimY, res int) ([][]float64, error) {
	d := pts.Cols
	if dimX < 0 || dimX >= d || dimY < 0 || dimY >= d || dimX == dimY {
		return nil, fmt.Errorf("bad grid dims %d,%d for %d-dimensional data", dimX, dimY, d)
	}
	if res < 2 {
		return nil, fmt.Errorf("grid resolution must be >= 2, got %d", res)
	}
	loX, hiX := columnRange(pts, dimX)
	loY, hiY := columnRange(pts, dimY)
	mean, _ := pts.ColumnStats()
	queries := vec.NewMatrix(res*res, d)
	rows := make([][]float64, res*res)
	for iy := 0; iy < res; iy++ {
		y := loY + (hiY-loY)*float64(iy)/float64(res-1)
		for ix := 0; ix < res; ix++ {
			q := queries.Row(iy*res + ix)
			copy(q, mean)
			q[dimY] = y
			q[dimX] = loX + (hiX-loX)*float64(ix)/float64(res-1)
			rows[iy*res+ix] = q
		}
	}
	return rows, nil
}

func columnRange(m *vec.Matrix, col int) (lo, hi float64) {
	lo, hi = m.Row(0)[col], m.Row(0)[col]
	for i := 1; i < m.Rows; i++ {
		v := m.Row(i)[col]
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// PrintHeatmap writes a row-major res×res grid as ASCII shades, top row
// first, and returns the peak value the shades are scaled to.
func PrintHeatmap(w io.Writer, grid []float64, res int) (peak float64) {
	for _, v := range grid {
		peak = math.Max(peak, v)
	}
	scale := peak
	if scale == 0 {
		scale = 1
	}
	shades := []byte(" .:-=+*#%@")
	for iy := res - 1; iy >= 0; iy-- {
		line := make([]byte, res)
		for ix := 0; ix < res; ix++ {
			line[ix] = shades[int(grid[iy*res+ix]/scale*float64(len(shades)-1))]
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	return peak
}
