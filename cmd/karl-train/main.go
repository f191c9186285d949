// Command karl-train trains an SVM (1-class or 2-class) on labelled
// vectors and reports the resulting kernel aggregation model: support
// vector count, ρ, and training/holdout accuracy. Input rows are
// whitespace-separated; for 2-class training the first column is the ±1
// label.
//
// Usage:
//
//	karl-train -mode 2class -in train.txt -c 1 -gamma 0.5
//	karl-train -mode 1class -in points.txt -nu 0.1
//	karl-train -mode 2class -demo          # built-in synthetic demo
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"karl"
	"karl/internal/dataset"
	"karl/internal/kernel"
	"karl/internal/svm"
	"karl/internal/vec"
)

func main() {
	var (
		mode  = flag.String("mode", "2class", "1class or 2class")
		in    = flag.String("in", "", "input file (default stdin)")
		demo  = flag.Bool("demo", false, "train on a built-in synthetic problem")
		c     = flag.Float64("c", 1, "2-class soft margin C")
		nu    = flag.Float64("nu", 0.5, "1-class nu")
		gamma = flag.Float64("gamma", 0, "Gaussian gamma (default 1/d)")
		out   = flag.String("out", "", "write the trained model (KARL engine + rho) to this file")
	)
	flag.Parse()

	var x *vec.Matrix
	var y []float64
	var err error
	if *demo {
		x, y = demoData(*mode)
	} else {
		x, y, err = loadData(*in, *mode == "2class")
		if err != nil {
			fatal(err)
		}
	}
	g := *gamma
	if g <= 0 {
		g = 1 / float64(x.Cols)
	}
	cfg := svm.Config{Kernel: kernel.NewGaussian(g), C: *c, Nu: *nu}

	var model *svm.Model
	switch *mode {
	case "2class":
		model, err = svm.TrainTwoClass(x, y, cfg)
	case "1class":
		model, err = svm.TrainOneClass(x, cfg)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fatal(err)
	}

	if *out != "" {
		if err := saveModel(*out, model); err != nil {
			fatal(err)
		}
		fmt.Printf("model written to %s\n", *out)
	}
	fmt.Printf("trained %s SVM: n=%d d=%d gamma=%.6g\n", *mode, x.Rows, x.Cols, g)
	fmt.Printf("support vectors: %d (%.1f%% of training set)\n",
		model.SV.Rows, 100*float64(model.SV.Rows)/float64(x.Rows))
	fmt.Printf("rho: %.6g   SMO iterations: %d   kernel evals: %d\n",
		model.Rho, model.Iters, model.KernelEvals)
	if *mode == "2class" {
		var correct int
		for i := 0; i < x.Rows; i++ {
			if float64(model.Predict(x.Row(i))) == y[i] {
				correct++
			}
		}
		fmt.Printf("training accuracy: %.2f%%\n", 100*float64(correct)/float64(x.Rows))
	} else {
		var inliers int
		for i := 0; i < x.Rows; i++ {
			if model.Predict(x.Row(i)) == 1 {
				inliers++
			}
		}
		fmt.Printf("training inlier rate: %.2f%% (1−ν ≈ %.2f%%)\n",
			100*float64(inliers)/float64(x.Rows), 100*(1-*nu))
	}
}

func demoData(mode string) (*vec.Matrix, []float64) {
	rng := rand.New(rand.NewSource(1))
	n := 400
	x := vec.NewMatrix(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sign := 1.0
		if mode == "2class" && i%2 == 1 {
			sign = -1
		}
		y[i] = sign
		for j := 0; j < 3; j++ {
			x.Row(i)[j] = sign + rng.NormFloat64()*0.4
		}
	}
	return x, y
}

func loadData(in string, labelled bool) (*vec.Matrix, []float64, error) {
	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		r = f
	}
	rows, err := dataset.ReadRows(r)
	if err != nil {
		return nil, nil, err
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("no input rows")
	}
	var labels []float64
	if labelled {
		labels = make([]float64, len(rows))
		for i, vals := range rows {
			labels[i], rows[i] = vals[0], vals[1:]
		}
	}
	return vec.FromRows(rows), labels, nil
}

// saveModel persists the trained model as a KARL SVM file readable by
// karl.ReadSVM (and karl-predict).
func saveModel(path string, model *svm.Model) error {
	rows := make([][]float64, model.SV.Rows)
	for i := range rows {
		rows[i] = model.SV.Row(i)
	}
	s, err := karl.NewSVM(rows, model.Weights, model.Rho, model.Kernel)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := s.WriteTo(f); err != nil {
		return err
	}
	return f.Sync()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "karl-train: %v\n", err)
	os.Exit(1)
}
