package cli

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"karl/internal/bound"
	"karl/internal/dataset"
	"karl/internal/experiments"
	"karl/internal/kernel"
)

// defineBench is karl bench: the paper's tables and figures regenerated on
// the synthetic stand-in datasets (EXPERIMENTS.md). Experiment IDs follow
// DESIGN.md §4; larger -scale/-queries values approach the paper's setting
// at the cost of runtime. Serving numbers come from the end-to-end harness
// instead: bash bench/run.sh.
func defineBench(fs *flag.FlagSet, e *env) func() error {
	var (
		run    = fs.String("run", "", "experiment id to run, or 'all'")
		list   = fs.Bool("list", false, "list experiment ids and exit")
		synth  = syntheticFlags(fs)
		sample = fs.Int("tunesample", 50, "offline tuning sample size (paper: 1000)")
		dims   = fs.String("dims", "", "comma-separated Fig.12 dimensionality sweep (e.g. 32,64,128,256)")
	)
	return func() error {
		// Exactly one mode, and no experiment flag beside -list: a typo'd
		// invocation fails in milliseconds instead of after minutes of
		// running the wrong thing.
		o := ownership(fs)
		if o.set["run"] == o.set["list"] {
			return usagef("pick one mode: -run <id> or -list")
		}
		if *list {
			o.only("-run", "scale", "maxn", "queries", "tunesample", "seed", "dims")
			if err := o.err(); err != nil {
				return err
			}
			for _, id := range experiments.IDs() {
				fmt.Fprintln(e.stdout, id)
			}
			return nil
		}
		if *sample < 1 {
			return usagef("-tunesample must be at least 1, got %d", *sample)
		}
		ids := []string{*run}
		if *run == "all" {
			ids = experiments.IDs()
		} else if !slices.Contains(experiments.IDs(), *run) {
			return usagef("unknown experiment %q (karl bench -list names them)", *run)
		}
		cfg := experiments.Config{
			Scale:      synth.Scale,
			MaxN:       synth.MaxN,
			Queries:    synth.Queries,
			TuneSample: *sample,
			Seed:       synth.Seed,
		}
		if *dims != "" {
			for _, part := range strings.Split(*dims, ",") {
				d, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil || d < 1 {
					return usagef("bad -dims entry %q", part)
				}
				cfg.DimSweep = append(cfg.DimSweep, d)
			}
		}
		for _, id := range ids {
			fmt.Fprintf(e.stdout, "=== %s ===\n", id)
			start := time.Now()
			if err := experiments.Run(id, cfg, e.stdout); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Fprintf(e.stdout, "(%s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
		return nil
	}
}

// defineTune is karl tune: the throughput of every (index, leaf capacity)
// candidate for a workload on a synthetic stand-in dataset — the data
// behind Figure 7 and Table VIII — and the configuration the offline tuner
// would pick. The workload is TKAQ at the dataset's threshold (τ = μ, the
// mean aggregate over the queries, for Type I; the trained threshold for
// Types II and III), or eKAQ with -eps.
func defineTune(fs *flag.FlagSet, e *env) func() error {
	var (
		name   = fs.String("dataset", "home", "synthetic stand-in dataset name")
		synth  = syntheticFlags(fs)
		eps    = fs.Float64("eps", 0, "run an eKAQ workload with this relative error instead of TKAQ")
		method = fs.String("method", "karl", "bounding method: karl or sota")
	)
	return func() error {
		methods := map[string]bound.Method{"karl": bound.KARL, "sota": bound.SOTA}
		m, ok := methods[*method]
		if !ok {
			return usagef("unknown -method %q (want karl or sota)", *method)
		}
		if *eps < 0 || math.IsNaN(*eps) || math.IsInf(*eps, 1) {
			return usagef("-eps must be 0 (TKAQ) or a finite positive relative error, got %v", *eps)
		}
		ds, err := generate(*name, *synth)
		if err != nil {
			return err
		}
		w := experiments.Workload{Kernel: kernel.NewGaussian(ds.Gamma), Method: m, Tau: ds.Tau, Eps: *eps}
		workload := fmt.Sprintf("eKAQ(eps=%.3g)", w.Eps)
		if w.Eps == 0 {
			if ds.Spec.Weighting == dataset.TypeI {
				w.Tau, _ = experiments.ExactStats(ds, w.Kernel)
			}
			workload = fmt.Sprintf("TKAQ(tau=%.5g)", w.Tau)
		}

		results, err := experiments.Config{Grid: experiments.DefaultGrid()}.Offline(ds, w, ds.Queries)
		if err != nil {
			return err
		}
		out := e.stdout
		fmt.Fprintf(out, "dataset=%s n=%d d=%d method=%v workload=%s\n",
			*name, ds.Points.Rows, ds.Points.Cols, w.Method, workload)
		fmt.Fprintf(out, "%-10s %8s %14s %12s\n", "index", "leaf", "queries/sec", "build")
		for _, r := range results {
			fmt.Fprintf(out, "%-10s %8d %14.1f %12v\n",
				r.Candidate.Kind, r.Candidate.LeafCap, r.Throughput, r.BuildTime.Round(1000))
		}
		best := results[0]
		fmt.Fprintf(out, "\nrecommended: %s with leaf capacity %d (%.1f queries/sec)\n",
			best.Candidate.Kind, best.Candidate.LeafCap, best.Throughput)
		return nil
	}
}
