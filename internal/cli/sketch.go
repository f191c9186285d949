package cli

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"karl"
	"karl/internal/coreset"
	"karl/internal/vec"
)

// defineSketch is karl sketch: an error-bounded coreset built offline, so
// the expensive reduction runs once and the small engine file ships to the
// serving fleet (karl shard -inspect prints the provenance it records), or
// with -curve the size-vs-ε curve of a dataset, writing nothing.
func defineSketch(fs *flag.FlagSet, e *env) func() error {
	var (
		points  = fs.String("points", "", "whitespace-separated vectors, one per line (required)")
		weights = fs.String("weights", "", "optional per-point weights, one per line (Type II)")
		gamma   = gammaFlag(fs, 1, "Scott's rule")
		eps     = fs.Float64("eps", 0.1, "normalized error bound ε of the sketch")
		method  = fs.String("method", "auto", "construction: auto, uniform, halving or sensitivity")
		seed    = fs.Int64("seed", 1, "construction seed (reproducible sketches)")
		out     = fs.String("out", "", "write the coreset engine to this file")
		curve   = fs.String("curve", "", "comma-separated ε list: print the size-vs-ε curve and exit")
	)
	return func() error {
		if *points == "" {
			return usagef("need -points")
		}
		m, err := coreset.ParseMethod(*method)
		if err != nil {
			return usageError{err}
		}
		rows, err := e.readRows(*points)
		if err != nil {
			return err
		}
		opts := []karl.Option{karl.WithCoresetMethod(karl.CoresetMethod(m)), karl.WithCoresetSeed(*seed)}
		if *weights != "" {
			w, err := e.readRows(*weights)
			if err != nil {
				return err
			}
			if len(w) != len(rows) {
				return fmt.Errorf("%d weights for %d points", len(w), len(rows))
			}
			scalars := make([]float64, len(w))
			for i, r := range w {
				if len(r) != 1 {
					return fmt.Errorf("weight line %d has %d fields, want 1", i+1, len(r))
				}
				scalars[i] = r[0]
			}
			opts = append(opts, karl.WithWeights(scalars))
		}
		g, err := scottIfZero(*gamma, vec.FromRows(rows))
		if err != nil {
			return err
		}
		kern := karl.Gaussian(g)

		if *curve != "" {
			fmt.Fprintf(e.stdout, "%10s %10s %12s\n", "eps", "points", "reduction")
			for _, field := range strings.Split(*curve, ",") {
				eps, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
				if err != nil {
					return usagef("bad -curve entry %q: %v", field, err)
				}
				eng, err := karl.BuildCoreset(rows, kern, eps, opts...)
				if err != nil {
					return err
				}
				info, _ := eng.SketchInfo()
				fmt.Fprintf(e.stdout, "%10.3f %10d %11.1fx\n", eps, info.Len, float64(info.SourceLen)/float64(info.Len))
			}
			return nil
		}

		eng, err := karl.BuildCoreset(rows, kern, *eps, opts...)
		if err != nil {
			return err
		}
		info, _ := eng.SketchInfo()
		fmt.Fprintf(e.stdout, "sketched %d -> %d points (%.1fx) with %s at ε=%g\n",
			info.SourceLen, info.Len, float64(info.SourceLen)/float64(info.Len), info.Method, info.Eps)
		if *out == "" {
			return nil
		}
		n, err := save(*out, eng)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.stdout, "wrote %s (%d bytes)\n", *out, n)
		return nil
	}
}
