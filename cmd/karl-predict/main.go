// Command karl-predict classifies vectors with a saved SVM model (from
// karl-train -out). Input rows are whitespace-separated vectors on stdin
// or -in; each output line is the predicted label (+1/-1), optionally with
// the decision value.
//
// Usage:
//
//	karl-train -mode 2class -demo -out model.karl
//	karl-predict -model model.karl -values < queries.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"karl"
	"karl/internal/dataset"
)

func main() {
	var (
		modelPath = flag.String("model", "", "saved SVM model file (required)")
		in        = flag.String("in", "", "input vectors (default stdin)")
		values    = flag.Bool("values", false, "also print decision values")
	)
	flag.Parse()
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "karl-predict: -model is required")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		fatal(err)
	}
	model, err := karl.ReadSVM(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		inf, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer inf.Close()
		r = inf
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	err = dataset.ScanRows(r, func(line int, q []float64) error {
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
			return err
		}
		_, err = fmt.Fprintf(w, "%+d %.6g\n", label, d)
		return err
	})
	if err != nil {
		w.Flush()
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "karl-predict: %v\n", err)
	os.Exit(1)
}
