package cli

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"karl/internal/bound"
	"karl/internal/experiments"
	"karl/internal/kernel"
	"karl/internal/scan"
	"karl/internal/tuning"
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
// mean aggregate over the queries, for Type I), or eKAQ with -eps.
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
		ds, err := generate(*name, *synth)
		if err != nil {
			return err
		}
		kern := kernel.NewGaussian(ds.Gamma)
		w := tuning.Workload{Kernel: kern, Method: m}
		workload := fmt.Sprintf("eKAQ(eps=%.3g)", *eps)
		if *eps > 0 {
			w.Mode = tuning.Approximate
			w.Eps = *eps
		} else {
			w.Mode = tuning.Threshold
			w.Tau = ds.Tau
			if ds.Tau == 0 { // Type I: τ = μ over the query set
				sc, err := scan.NewScanner(ds.Points, ds.Weights, kern)
				if err != nil {
					return err
				}
				var mu float64
				for i := 0; i < ds.Queries.Rows; i++ {
					mu += sc.Aggregate(ds.Queries.Row(i))
				}
				w.Tau = mu / float64(ds.Queries.Rows)
			}
			workload = fmt.Sprintf("TKAQ(tau=%.5g)", w.Tau)
		}

		results, err := tuning.Offline(ds.Points, ds.Weights, w, ds.Queries, nil)
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
