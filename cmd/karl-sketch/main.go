// Command karl-sketch builds and inspects error-bounded coresets offline,
// so the expensive reduction runs once and the small engine ships to the
// serving fleet.
//
// Build a coreset engine file from raw vectors:
//
//	karl-sketch -points data.txt -gamma 2 -eps 0.1 -out sketch.karl
//	karl-sketch -points data.txt -scott -eps 0.1 -method halving -out sketch.karl
//	karl-sketch -points data.txt -weights w.txt -gamma 2 -eps 0.1 -out sketch.karl
//
// Inspect any saved engine (full or sketched — provenance is printed when
// present):
//
//	karl-sketch -inspect sketch.karl
//
// Print the size-vs-ε curve for a dataset without writing anything:
//
//	karl-sketch -points data.txt -gamma 2 -curve 0.05,0.1,0.2,0.3
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"karl"
)

func main() {
	var (
		points  = flag.String("points", "", "whitespace-separated vectors, one per line")
		weights = flag.String("weights", "", "optional per-point weights, one per line (Type II)")
		gamma   = flag.Float64("gamma", 1, "Gaussian kernel gamma")
		scott   = flag.Bool("scott", false, "derive gamma from Scott's rule instead of -gamma")
		eps     = flag.Float64("eps", 0.1, "normalized error bound ε of the sketch")
		method  = flag.String("method", "auto", "construction: auto, uniform, halving or sensitivity")
		seed    = flag.Int64("seed", 1, "construction seed (reproducible sketches)")
		out     = flag.String("out", "", "write the coreset engine to this file")
		inspect = flag.String("inspect", "", "print a saved engine's shape and sketch provenance")
		curve   = flag.String("curve", "", "comma-separated ε list: print the size-vs-ε curve and exit")
	)
	flag.Parse()

	switch {
	case *inspect != "":
		if err := runInspect(*inspect); err != nil {
			log.Fatalf("karl-sketch: %v", err)
		}
	case *points != "":
		if err := runBuild(*points, *weights, *gamma, *scott, *eps, *method, *seed, *out, *curve); err != nil {
			log.Fatalf("karl-sketch: %v", err)
		}
	default:
		fmt.Fprintln(os.Stderr, "karl-sketch: need -points or -inspect")
		flag.Usage()
		os.Exit(2)
	}
}

func runInspect(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	eng, err := karl.ReadEngine(f)
	if err != nil {
		return err
	}
	k := eng.Kernel()
	fmt.Printf("points:  %d\n", eng.Len())
	fmt.Printf("dims:    %d\n", eng.Dims())
	fmt.Printf("kernel:  %v (gamma %g)\n", k.Kind, k.Gamma)
	if info, ok := eng.SketchInfo(); ok {
		fmt.Printf("sketch:  %s coreset of %d source points (total weight %g)\n",
			info.Method, info.SourceLen, info.SourceWeight)
		fmt.Printf("         ε = %g, reduction %.1fx\n",
			info.Eps, float64(info.SourceLen)/float64(info.Len))
		switch info.Basis {
		case karl.SketchBasisHoeffding:
			fmt.Printf("         basis: hoeffding (per-query probability ≥ 1−δ, δ = %g)\n", info.Delta)
		case karl.SketchBasisExact:
			fmt.Println("         basis: exact (identity sketch, zero error)")
		case karl.SketchBasisEmpirical:
			fmt.Println("         basis: empirical (validation-backed, not a theorem)")
		default:
			fmt.Println("         basis: unknown (file predates basis recording)")
		}
	} else {
		fmt.Println("sketch:  none (full-set engine)")
	}
	return nil
}

func runBuild(pointsPath, weightsPath string, gamma float64, scott bool, eps float64, methodName string, seed int64, out, curve string) error {
	rows, err := readVectors(pointsPath)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("no vectors in %s", pointsPath)
	}
	method, err := parseMethod(methodName)
	if err != nil {
		return err
	}
	opts := []karl.Option{karl.WithCoresetMethod(method), karl.WithCoresetSeed(seed)}
	if weightsPath != "" {
		w, err := readScalars(weightsPath)
		if err != nil {
			return err
		}
		if len(w) != len(rows) {
			return fmt.Errorf("%d weights for %d points", len(w), len(rows))
		}
		opts = append(opts, karl.WithWeights(w))
	}
	kern := karl.Gaussian(gamma)
	if scott {
		k, err := karl.NewKDE(rows)
		if err != nil {
			return err
		}
		kern = karl.Gaussian(k.Gamma())
	}

	if curve != "" {
		return runCurve(rows, kern, curve, opts)
	}

	eng, err := karl.BuildCoreset(rows, kern, eps, opts...)
	if err != nil {
		return err
	}
	info, _ := eng.SketchInfo()
	fmt.Printf("sketched %d -> %d points (%.1fx) with %s at ε=%g\n",
		info.SourceLen, info.Len, float64(info.SourceLen)/float64(info.Len), info.Method, info.Eps)
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	n, err := eng.WriteTo(f)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", out, n)
	return nil
}

func runCurve(rows [][]float64, kern karl.Kernel, curve string, opts []karl.Option) error {
	fmt.Printf("%10s %10s %12s\n", "eps", "points", "reduction")
	for _, field := range strings.Split(curve, ",") {
		eps, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			return fmt.Errorf("bad curve entry %q: %w", field, err)
		}
		eng, err := karl.BuildCoreset(rows, kern, eps, opts...)
		if err != nil {
			return err
		}
		info, _ := eng.SketchInfo()
		fmt.Printf("%10.3f %10d %11.1fx\n", eps, info.Len, float64(info.SourceLen)/float64(info.Len))
	}
	return nil
}

func parseMethod(s string) (karl.CoresetMethod, error) {
	switch s {
	case "auto":
		return karl.CoresetAuto, nil
	case "uniform":
		return karl.CoresetUniform, nil
	case "halving":
		return karl.CoresetHalving, nil
	case "sensitivity":
		return karl.CoresetSensitivity, nil
	}
	return 0, fmt.Errorf("unknown method %q (want auto, uniform, halving or sensitivity)", s)
}

func readVectors(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows [][]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		row := make([]float64, len(fields))
		for i, fv := range fields {
			v, err := strconv.ParseFloat(fv, 64)
			if err != nil {
				return nil, fmt.Errorf("parse %q: %w", fv, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

func readScalars(path string) ([]float64, error) {
	rows, err := readVectors(path)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rows))
	for i, r := range rows {
		if len(r) != 1 {
			return nil, fmt.Errorf("weight line %d has %d fields, want 1", i+1, len(r))
		}
		out[i] = r[0]
	}
	return out, nil
}
