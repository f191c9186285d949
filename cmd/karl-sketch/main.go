// Command karl-sketch builds error-bounded coresets offline, so the
// expensive reduction runs once and the small engine ships to the serving
// fleet.
//
// Build a coreset engine file from raw vectors:
//
//	karl-sketch -points data.txt -gamma 2 -eps 0.1 -out sketch.karl
//	karl-sketch -points data.txt -scott -eps 0.1 -method halving -out sketch.karl
//	karl-sketch -points data.txt -weights w.txt -gamma 2 -eps 0.1 -out sketch.karl
//
// karl-shard -inspect sketch.karl prints the sketch provenance the file
// records.
//
// Print the size-vs-ε curve for a dataset without writing anything:
//
//	karl-sketch -points data.txt -gamma 2 -curve 0.05,0.1,0.2,0.3
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"karl"
	"karl/internal/dataset"
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
		curve   = flag.String("curve", "", "comma-separated ε list: print the size-vs-ε curve and exit")
	)
	flag.Parse()

	if *points == "" {
		fmt.Fprintln(os.Stderr, "karl-sketch: need -points")
		flag.Usage()
		os.Exit(2)
	}
	if err := runBuild(*points, *weights, *gamma, *scott, *eps, *method, *seed, *out, *curve); err != nil {
		log.Fatalf("karl-sketch: %v", err)
	}
}

func runBuild(pointsPath, weightsPath string, gamma float64, scott bool, eps float64, methodName string, seed int64, out, curve string) error {
	rows, err := dataset.ReadRowsFile(pointsPath)
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

func readScalars(path string) ([]float64, error) {
	rows, err := dataset.ReadRowsFile(path)
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
