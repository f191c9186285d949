// Command karl-bench regenerates the paper's tables and figures on the
// synthetic stand-in datasets (EXPERIMENTS.md). Serving numbers come from
// the end-to-end harness instead: bash bench/run.sh.
//
// Usage:
//
//	karl-bench -list
//	karl-bench -run tab7
//	karl-bench -run all -scale 0.05 -queries 500 -maxn 50000
//
// Experiment IDs follow DESIGN.md §4 (fig1, fig6, fig7, fig9..fig13, tab7,
// tab8, tab9, tab10). Larger -scale/-queries values approach the paper's
// setting at the cost of runtime.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"karl/internal/experiments"
)

func main() {
	var (
		run     = flag.String("run", "", "experiment id to run, or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		scale   = flag.Float64("scale", 1.0/64, "dataset scale relative to the paper's sizes")
		maxN    = flag.Int("maxn", 20000, "cap on generated dataset cardinality")
		queries = flag.Int("queries", 100, "measured query-set size (paper: 10000)")
		sample  = flag.Int("tunesample", 50, "offline tuning sample size (paper: 1000)")
		seed    = flag.Int64("seed", 1, "generator seed")
		dims    = flag.String("dims", "", "comma-separated Fig.12 dimensionality sweep (e.g. 32,64,128,256)")
	)
	flag.Parse()

	if err := validateFlags(); err != nil {
		fmt.Fprintf(os.Stderr, "karl-bench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	cfg := experiments.Config{
		Scale:      *scale,
		MaxN:       *maxN,
		Queries:    *queries,
		TuneSample: *sample,
		Seed:       *seed,
	}
	if *dims != "" {
		for _, part := range strings.Split(*dims, ",") {
			var d int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &d); err != nil || d < 1 {
				fmt.Fprintf(os.Stderr, "karl-bench: bad -dims entry %q\n", part)
				os.Exit(2)
			}
			cfg.DimSweep = append(cfg.DimSweep, d)
		}
	}

	ids := []string{*run}
	if *run == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		fmt.Printf("=== %s ===\n", id)
		start := time.Now()
		if err := experiments.Run(id, cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "karl-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// validateFlags rejects contradictory invocations before any dataset is
// generated: exactly one of -run and -list, and no experiment flag beside
// -list — a typo'd invocation fails in milliseconds instead of after
// minutes of running the wrong thing.
func validateFlags() error {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case set["run"] == set["list"]:
		return errors.New("pick one mode: -run <id> or -list")
	case set["list"]:
		var wrong []string
		for _, name := range []string{"scale", "maxn", "queries", "tunesample", "seed", "dims"} {
			if set[name] {
				wrong = append(wrong, fmt.Sprintf("-%s only applies to -run", name))
			}
		}
		if len(wrong) > 0 {
			return errors.New(strings.Join(wrong, "; "))
		}
	}
	return nil
}
