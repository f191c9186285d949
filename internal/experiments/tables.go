package experiments

import (
	"fmt"
	"io"
	"math"

	"karl/internal/bound"
	"karl/internal/core"
	"karl/internal/dataset"
	"karl/internal/kernel"
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
	// Pick is the candidate the offline tuner chose on the sample.
	Pick Candidate
}

// Table8Result aggregates all rows.
type Table8Result struct {
	Rows []Table8Row
}

// Table8OfflineTuning reproduces Table VIII: KARL_worst / KARL_auto /
// KARL_best using the offline sampling protocol of Section III-C, and names
// the candidate KARL_auto picked.
func Table8OfflineTuning(cfg Config, out io.Writer) (*Table8Result, error) {
	cfg = cfg.withDefaults()
	res := &Table8Result{}
	fprintf(out, "Table VIII: offline tuning (|S|=%d sample)\n", cfg.TuneSample)
	fprintf(out, "%-8s %-10s %12s %12s %12s  %s\n", "Type", "Dataset", "KARL_worst", "KARL_auto", "KARL_best", "auto_pick")
	for _, group := range table7Plan() {
		for _, name := range group.datasets {
			ds, w, err := cfg.workload(group.qt, name)
			if err != nil {
				return nil, err
			}
			row, err := table8Row(cfg, ds, w)
			if err != nil {
				return nil, err
			}
			row.Type, row.Dataset = group.qt, name
			res.Rows = append(res.Rows, row)
			fprintf(out, "%-8s %-10s %12.1f %12.1f %12.1f  %v\n",
				row.Type, row.Dataset, row.Worst, row.Auto, row.Best, row.Pick)
		}
	}
	return res, nil
}

// table8Row picks a candidate by sampled throughput, then measures every
// candidate on the full query set.
func table8Row(cfg Config, ds *dataset.Dataset, w Workload) (Table8Row, error) {
	var row Table8Row
	tuned, err := cfg.Offline(ds, w, tuneSample(cfg, ds))
	if err != nil {
		return row, err
	}
	full, err := cfg.Offline(ds, w, ds.Queries)
	if err != nil {
		return row, err
	}
	row.Pick = tuned[0].Candidate
	row.Best, row.Worst = full[0].Throughput, full[len(full)-1].Throughput
	for _, r := range full {
		if r.Candidate == row.Pick {
			row.Auto = r.Throughput
		}
	}
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
			ds, w, err := cfg.workload(group.qt, name)
			if err != nil {
				return nil, err
			}
			row := Table9Row{Type: group.qt, Dataset: name}
			// Baseline: plain scan, no index to build.
			if row.Baseline, err = cfg.scanThroughput(ds, w); err != nil {
				return nil, err
			}
			sRep, err := Online(ds, w.with(bound.SOTA), 0.05)
			if err != nil {
				return nil, err
			}
			kRep, err := Online(ds, w, 0.05)
			if err != nil {
				return nil, err
			}
			row.SOTAOnline, row.KARLOnline = sRep.Throughput, kRep.Throughput
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
			ds, err := cfg.generate(name)
			if err != nil {
				return nil, err
			}
			// Renormalize to [−1,1]^d as the paper does for poly kernels.
			ds.Points.NormalizeUnit(-1, 1)
			ds.Queries.NormalizeUnit(-1, 1)
			kern := kernel.NewPolynomial(ds.Gamma, 0, 3)
			w := Workload{Kernel: kern, Method: bound.KARL, Tau: polyThreshold(ds, kern)}
			row := Table10Row{Type: group.qt, Dataset: name}
			if row.Baseline, err = cfg.scanThroughput(ds, w); err != nil {
				return nil, err
			}
			if row.SOTABest, err = bestIndexed(cfg, ds, w.with(bound.SOTA)); err != nil {
				return nil, err
			}
			if row.KARLAuto, err = autoIndexed(cfg, ds, w); err != nil {
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
	ds, err := cfg.generate("miniboone")
	if err != nil {
		return nil, err
	}
	tree, err := Candidate{Kind: cfg.Grid[0].Kind, LeafCap: 80}.build(ds.Points, nil)
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
