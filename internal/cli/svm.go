package cli

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"

	"karl"
	"karl/internal/dataset"
	"karl/internal/kernel"
	"karl/internal/svm"
	"karl/internal/vec"
)

// defineTrain is karl train: an SVM (1-class or 2-class) over whitespace
// separated rows — for 2-class the first column is the ±1 label — and a
// report of the kernel aggregation model it yields: support vector count,
// ρ, and training accuracy. -out writes the model for karl predict.
func defineTrain(fs *flag.FlagSet, e *env) func() error {
	var (
		mode  = fs.String("mode", "2class", "1class or 2class")
		in    = inFlag(fs)
		demo  = fs.Bool("demo", false, "train on a built-in synthetic problem")
		c     = fs.Float64("c", 1, "2-class soft margin C")
		nu    = fs.Float64("nu", 0.5, "1-class nu")
		gamma = gammaFlag(fs, 0, "1/d, the default")
		out   = fs.String("out", "", "write the trained model (KARL engine + rho) to this file")
	)
	return func() error {
		if *mode != "1class" && *mode != "2class" {
			return usagef("unknown -mode %q (want 1class or 2class)", *mode)
		}
		labelled := *mode == "2class"
		var x *vec.Matrix
		var y []float64
		if *demo {
			x, y = demoData(labelled)
		} else {
			rows, err := e.readRows(*in)
			if err != nil {
				return err
			}
			if labelled {
				y = make([]float64, len(rows))
				for i, vals := range rows {
					y[i], rows[i] = vals[0], vals[1:]
				}
			}
			x = vec.FromRows(rows)
		}
		g := *gamma
		if g <= 0 {
			g = 1 / float64(x.Cols)
		}
		cfg := svm.Config{Kernel: kernel.NewGaussian(g), C: *c, Nu: *nu}
		var model *svm.Model
		var err error
		if labelled {
			model, err = svm.TrainTwoClass(x, y, cfg)
		} else {
			model, err = svm.TrainOneClass(x, cfg)
		}
		if err != nil {
			return err
		}

		w := e.stdout
		if *out != "" {
			rows := make([][]float64, model.SV.Rows)
			for i := range rows {
				rows[i] = model.SV.Row(i)
			}
			s, err := karl.NewSVM(rows, model.Weights, model.Rho, model.Kernel)
			if err != nil {
				return err
			}
			if _, err := save(*out, s); err != nil {
				return err
			}
			fmt.Fprintf(w, "model written to %s\n", *out)
		}
		fmt.Fprintf(w, "trained %s SVM: n=%d d=%d gamma=%.6g\n", *mode, x.Rows, x.Cols, g)
		fmt.Fprintf(w, "support vectors: %d (%.1f%% of training set)\n",
			model.SV.Rows, 100*float64(model.SV.Rows)/float64(x.Rows))
		fmt.Fprintf(w, "rho: %.6g   SMO iterations: %d   kernel evals: %d\n",
			model.Rho, model.Iters, model.KernelEvals)
		var hits int // rows predicted as labelled, or as inliers
		for i := 0; i < x.Rows; i++ {
			want := 1.0
			if labelled {
				want = y[i]
			}
			if float64(model.Predict(x.Row(i))) == want {
				hits++
			}
		}
		if labelled {
			fmt.Fprintf(w, "training accuracy: %.2f%%\n", 100*float64(hits)/float64(x.Rows))
		} else {
			fmt.Fprintf(w, "training inlier rate: %.2f%% (1−ν ≈ %.2f%%)\n",
				100*float64(hits)/float64(x.Rows), 100*(1-*nu))
		}
		return nil
	}
}

// demoData is two Gaussian blobs around (1,1,1) and (−1,−1,−1), labelled
// ±1, or one blob for a 1-class problem.
func demoData(labelled bool) (*vec.Matrix, []float64) {
	rng := rand.New(rand.NewSource(1))
	n := 400
	x := vec.NewMatrix(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sign := 1.0
		if labelled && i%2 == 1 {
			sign = -1
		}
		y[i] = sign
		for j := 0; j < 3; j++ {
			x.Row(i)[j] = sign + rng.NormFloat64()*0.4
		}
	}
	return x, y
}

// definePredict is karl predict: each input vector's label (+1/−1) under a
// model karl train -out wrote, optionally with its decision value.
func definePredict(fs *flag.FlagSet, e *env) func() error {
	var (
		modelPath = fs.String("model", "", "saved SVM model file (required)")
		in        = inFlag(fs)
		values    = fs.Bool("values", false, "also print decision values")
	)
	return func() error {
		if *modelPath == "" {
			return usagef("-model is required")
		}
		model, err := load(*modelPath, karl.ReadSVM)
		if err != nil {
			return err
		}
		// Labels stream out as the vectors stream in; an error names the
		// input line.
		w := bufio.NewWriter(e.stdout)
		err = e.readInput(*in, func(r io.Reader) error {
			return dataset.ScanRows(r, func(line int, q []float64) error {
				positive, err := model.Classify(q)
				if err != nil {
					return fmt.Errorf("line %d: %w", line, err)
				}
				label := -1
				if positive {
					label = 1
				}
				if !*values {
					_, err = fmt.Fprintf(w, "%+d\n", label)
					return err
				}
				d, err := model.Decision(q)
				if err != nil {
					return fmt.Errorf("line %d: %w", line, err)
				}
				_, err = fmt.Fprintf(w, "%+d %.6g\n", label, d)
				return err
			})
		})
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
		return err
	}
}
