// Command bench is the repository's one benchmark: it builds
// cmd/karl-serve, deploys real server processes per workload, drives them
// over HTTP, checks every class of answer against its own exact-scan
// oracle, and prints every metric by name. See README.md in this
// directory for the workloads, the metric schema and the host
// normalisation.
//
//	go run . -seed 1                        # all workloads, both modes
//	go run . -workload svm-wire -trace 0    # one workload, end-to-end only
//	go run . -sets 2                        # repeatability self-check
//
// With -workload and -trace both given, the last line of standard output
// is one JSON object {correct, attempted, failed, metrics}: the driver
// contract of BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all four)")
		seed    = flag.Int64("seed", 1, "decides the order the query pool is cycled in and draws the write stream")
		seconds = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace   = flag.Int("trace", -1, "0 = end-to-end run, 1 = per-layer (traced) run, -1 = both")
		sets    = flag.Int("sets", 1, "run the suite this many times, interleaved, and compare the medians of the first and second half of the sets against the bounds")
		out     = flag.String("out", "", "also write the results as JSON to this file")
		schema  = flag.Bool("schema", false, "print BENCHMARK.json as this source declares it, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *schema {
		os.Stdout.Write(benchmarkJSON())
		return
	}

	ws := workloads()
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		ws = []workload{w}
	}

	e, err := newEnv()
	if err != nil {
		fatal(err)
	}
	// Children die with the harness however it ends: normal return, a
	// failed run, a panic (deferred close), or a signal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	code := 0
	func() {
		defer e.close()
		code = run(e, ws, *seed, *seconds, *trace, *sets, *out, *name != "" && *trace >= 0)
	}()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// run executes the requested sets and returns the exit code.
func run(e *env, ws []workload, seed int64, seconds float64, trace, sets int, out string, contract bool) int {
	var all [][]*result
	for s := 0; s < sets; s++ {
		// Both halves of a repeatability check run the same seeds.
		seed := seed + int64(s%max(sets/2, 1))
		var set []*result
		for _, w := range ws {
			if trace != 1 {
				res, err := runE2E(e, w, seed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				printResult(res)
				set = append(set, res)
			}
			if trace != 0 {
				res, err := runLayers(e, w, seed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				printResult(res)
				set = append(set, res)
			}
		}
		all = append(all, set)
	}
	if out != "" {
		b, _ := json.MarshalIndent(all, "", "  ")
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if sets > 1 && !compareSets(all) {
		return 1
	}
	if contract {
		defs := endToEnd
		if trace == 1 {
			defs = perLayer
		}
		printContract(all[0][0], defs)
	}
	return 0
}

// printContract writes the driver's result line: exactly the declared
// metrics of the mode that ran.
func printContract(res *result, defs []metricDef) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
}

// compareSets is the repeatability self-check, the driver's own rule in
// small: for every end-to-end metric of every workload it prints the median
// over the first half of the sets and over the second half, how much worse
// the second is than the first, and the bound, and reports whether every
// pair agrees within its bound in either direction. With two sets the
// halves are single runs.
func compareSets(all [][]*result) bool {
	ok := true
	half := len(all) / 2
	fmt.Printf("== repeatability: medians of sets 1..%d vs sets %d..%d\n", half, half+1, 2*half)
	fmt.Printf("  %-14s %-16s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i, a := range all[0] {
		if a.Trace {
			continue
		}
		for _, d := range endToEnd {
			var v [2][]float64
			for s := 0; s < 2*half; s++ {
				v[s/half] = append(v[s/half], all[s][i].Metrics[d.Name])
			}
			v1, v2 := median(v[0]), median(v[1])
			diff := (v2 - v1) / v1
			verdict := ""
			if diff > d.Bound || diff < -d.Bound {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Printf("  %-14s %-16s %12.5g %12.5g %+7.1f%% %5.0f%%%s\n", a.Workload, d.Name, v1, v2, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok
}
