package cli

import (
	"bufio"
	"flag"
	"fmt"
	"strconv"

	"karl"
	"karl/internal/dataset"
	"karl/internal/experiments"
	"karl/internal/vec"
)

// defineKDE is karl kde: the kernel density surface of a dataset over two
// chosen dimensions (the paper's Figure 1), from vectors in a file or on
// stdin or from a synthetic stand-in, as an ASCII heatmap or CSV.
func defineKDE(fs *flag.FlagSet, e *env) func() error {
	var (
		in     = inFlag(fs)
		synth  = fs.String("synthetic", "", "use a synthetic stand-in dataset by name instead of -in")
		dimX   = fs.Int("dimx", 0, "first grid dimension")
		dimY   = fs.Int("dimy", 1, "second grid dimension")
		res    = fs.Int("res", 32, "grid resolution per axis")
		format = fs.String("format", "ascii", "output format: ascii or csv")
		gamma  = gammaFlag(fs, 0, "Scott's rule, the default")
		eps    = fs.Float64("eps", 0.05, "relative error budget per grid cell (0 = exact aggregates)")
	)
	return func() error {
		if *format != "ascii" && *format != "csv" {
			return usagef("unknown -format %q (want ascii or csv)", *format)
		}
		var pts *vec.Matrix
		if *synth != "" {
			ds, err := generate(*synth, dataset.Options{})
			if err != nil {
				return err
			}
			pts = ds.Points
		} else {
			rows, err := e.readRows(*in)
			if err != nil {
				return err
			}
			pts = vec.FromRows(rows)
		}
		g, err := scottIfZero(*gamma, pts)
		if err != nil {
			return err
		}
		grid, err := renderGrid(pts, g, *dimX, *dimY, *res, *eps)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(e.stdout)
		if *format == "ascii" {
			experiments.PrintHeatmap(w, grid, *res)
			fmt.Fprintf(w, "gamma=%.6g dims=(%d,%d) n=%d\n", g, *dimX, *dimY, pts.Rows)
			return w.Flush()
		}
		for iy := 0; iy < *res; iy++ {
			for ix := 0; ix < *res; ix++ {
				if ix > 0 {
					w.WriteByte(',')
				}
				w.WriteString(strconv.FormatFloat(grid[iy**res+ix], 'g', 6, 64))
			}
			w.WriteByte('\n')
		}
		return w.Flush()
	}
}

// renderGrid renders the density over experiments.DensityQueries' res×res
// grid (out[iy*res+ix]). The whole grid goes through one batch call on one
// engine, so the dual-tree executor shares bound refinement across the
// spatially coherent grid queries and the batch spreads over every core:
// exact at eps 0, each cell within relative error eps otherwise (density is
// the 1/n-scaled aggregate, so the relative guarantee survives the
// scaling).
func renderGrid(pts *vec.Matrix, gamma float64, dimX, dimY, res int, eps float64) ([]float64, error) {
	queries, err := experiments.DensityQueries(pts, dimX, dimY, res)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, pts.Rows)
	for i := range rows {
		rows[i] = pts.Row(i)
	}
	eng, err := karl.Build(rows, karl.Gaussian(gamma))
	if err != nil {
		return nil, err
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
