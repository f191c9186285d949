// Command karl-kde renders the kernel density surface of a dataset over
// two chosen dimensions (the paper's Figure 1), reading points as
// whitespace-separated vectors from a file or stdin and writing either an
// ASCII heatmap or CSV.
//
// Usage:
//
//	karl-kde -in points.txt -dimx 0 -dimy 1 -res 40 -format csv
//	karl-kde -synthetic miniboone -res 32
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"karl"
	"karl/internal/dataset"
	"karl/internal/kde"
	"karl/internal/vec"
)

func main() {
	var (
		in        = flag.String("in", "", "input file of whitespace-separated vectors (default stdin)")
		synthetic = flag.String("synthetic", "", "use a synthetic stand-in dataset by name instead of -in")
		dimX      = flag.Int("dimx", 0, "first grid dimension")
		dimY      = flag.Int("dimy", 1, "second grid dimension")
		res       = flag.Int("res", 32, "grid resolution per axis")
		format    = flag.String("format", "ascii", "output format: ascii or csv")
		gamma     = flag.Float64("gamma", 0, "Gaussian gamma (default: Scott's rule)")
		eps       = flag.Float64("eps", 0.05, "relative error budget per grid cell (0 = exact aggregates)")
	)
	flag.Parse()

	pts, err := loadPoints(*in, *synthetic)
	if err != nil {
		fatal(err)
	}
	g := *gamma
	if g <= 0 {
		if g, err = kde.ScottGamma(pts); err != nil {
			fatal(err)
		}
	}
	grid, err := renderGrid(pts, g, *dimX, *dimY, *res, *eps)
	if err != nil {
		fatal(err)
	}
	switch *format {
	case "csv":
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		for iy := 0; iy < *res; iy++ {
			cells := make([]string, *res)
			for ix := 0; ix < *res; ix++ {
				cells[ix] = strconv.FormatFloat(grid[iy**res+ix], 'g', 6, 64)
			}
			fmt.Fprintln(w, strings.Join(cells, ","))
		}
	case "ascii":
		printASCII(os.Stdout, grid, *res)
		fmt.Printf("gamma=%.6g dims=(%d,%d) n=%d\n", g, *dimX, *dimY, pts.Rows)
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}
}

// renderGrid renders the density over a uniform row-major res×res grid
// (out[iy*res+ix]) spanning the data's range in dimensions dimX and dimY,
// every other dimension held at the dataset mean — the Figure 1
// visualization. The whole grid goes through one batch call on one engine,
// so the dual-tree executor shares bound refinement across the spatially
// coherent grid queries: exact at eps 0, each cell within relative error
// eps otherwise (density is the 1/n-scaled aggregate, so the relative
// guarantee survives the scaling).
func renderGrid(pts *vec.Matrix, gamma float64, dimX, dimY, res int, eps float64) ([]float64, error) {
	d := pts.Cols
	if dimX < 0 || dimX >= d || dimY < 0 || dimY >= d || dimX == dimY {
		return nil, fmt.Errorf("bad grid dims %d,%d for %d-dimensional data", dimX, dimY, d)
	}
	if res < 2 {
		return nil, fmt.Errorf("grid resolution must be >= 2, got %d", res)
	}
	rows := make([][]float64, pts.Rows)
	for i := range rows {
		rows[i] = pts.Row(i)
	}
	eng, err := karl.Build(rows, karl.Gaussian(gamma))
	if err != nil {
		return nil, err
	}
	loX, hiX := columnRange(pts, dimX)
	loY, hiY := columnRange(pts, dimY)
	mean, _ := pts.ColumnStats()
	queries := make([][]float64, 0, res*res)
	for iy := 0; iy < res; iy++ {
		y := loY + (hiY-loY)*float64(iy)/float64(res-1)
		for ix := 0; ix < res; ix++ {
			q := vec.Clone(mean)
			q[dimY] = y
			q[dimX] = loX + (hiX-loX)*float64(ix)/float64(res-1)
			queries = append(queries, q)
		}
	}
	var grid []float64
	if eps > 0 {
		grid, err = eng.BatchApproximate(queries, eps, 0)
	} else {
		grid, err = eng.BatchAggregate(queries, 0)
	}
	if err != nil {
		return nil, err
	}
	w := 1 / float64(pts.Rows)
	for i := range grid {
		grid[i] *= w
	}
	return grid, nil
}

func loadPoints(in, synthetic string) (*vec.Matrix, error) {
	if synthetic != "" {
		spec, err := dataset.ByName(synthetic)
		if err != nil {
			return nil, err
		}
		ds, err := dataset.Generate(spec, dataset.Options{})
		if err != nil {
			return nil, err
		}
		return ds.Points, nil
	}
	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	rows, err := dataset.ReadRows(r)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no input points")
	}
	return vec.FromRows(rows), nil
}

func columnRange(m *vec.Matrix, col int) (lo, hi float64) {
	lo, hi = m.Row(0)[col], m.Row(0)[col]
	for i := 1; i < m.Rows; i++ {
		v := m.Row(i)[col]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func printASCII(w io.Writer, grid []float64, res int) {
	var max float64
	for _, v := range grid {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	shades := []byte(" .:-=+*#%@")
	for iy := res - 1; iy >= 0; iy-- {
		line := make([]byte, res)
		for ix := 0; ix < res; ix++ {
			line[ix] = shades[int(grid[iy*res+ix]/max*float64(len(shades)-1))]
		}
		fmt.Fprintf(w, "%s\n", line)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "karl-kde: %v\n", err)
	os.Exit(1)
}
