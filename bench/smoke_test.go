package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"

	"karl/bench/hostunit"
)

// TestSchemaMatchesBenchmarkJSON keeps the repository's BENCHMARK.json and
// the declarations in this package one schema: the file is exactly what
// `bench -schema` prints.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !bytes.Equal(file, want) {
		t.Fatalf("BENCHMARK.json differs from the declarations in metrics.go and workload.go; regenerate it with `go run . -schema > ../BENCHMARK.json`\nwant:\n%s", want)
	}
}

// TestDeclarationsAreWellFormed checks what the driver's schema demands of
// names, units, directions and bounds.
func TestDeclarationsAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef, gated bool) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: direction %q", d.Name, d.Better)
		}
		if gated && (d.Bound <= 0 || d.Bound > 0.25) {
			t.Errorf("metric %q: bound %v out of (0, 0.25]", d.Name, d.Bound)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		check(d, true)
	}
	for _, d := range perLayer {
		check(d, false)
	}
	for _, d := range reportOnly {
		check(d, false)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, w := range workloads() {
		if !name.MatchString(w.name) || len(w.why) > 200 || seen[w.name] {
			t.Errorf("workload %q: malformed name, duplicate, or why of %d characters", w.name, len(w.why))
		}
		seen[w.name] = true
	}
}

// TestSmoke runs every workload at toy size through the in-process hosting
// only — no child process — and checks that each mode emits exactly the
// metrics it declares, with no failed operation.
func TestSmoke(t *testing.T) {
	ref := hostunit.NewSmall()
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			in, err := w.generate(1, true)
			if err != nil {
				t.Fatal(err)
			}
			w.seedBatch = min(w.seedBatch, 512)

			// End-to-end mode, against the stack hosted bare.
			hd, err := host(w, in, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer hd.close()
			r := &runner{w: w, in: in, t: &hd.target, ref: ref, toy: true}
			e2e := newResult(w, 1, false)
			e2e.set("setup_s", 1, 1, 1)
			if err := r.measure(e2e, 0.25); err != nil {
				t.Fatal(err)
			}
			expectMetrics(t, e2e, endToEnd, true)

			// Per-layer mode: the counts off the same hosting, then the
			// traced pass and the micro-runs.
			layers := newResult(w, 1, true)
			if err := r.countLayers(layers, 0.25); err != nil {
				t.Fatal(err)
			}
			if w.shape == shapeCluster {
				multi := w
				multi.seedBatch = 256
				mhd, err := host(multi, in, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer mhd.close()
				mr := &runner{w: multi, in: in, t: &mhd.target, toy: true}
				if err := mr.multiSeedCheck(layers); err != nil {
					t.Fatal(err)
				}
				// What only child processes can tell, and this test starts
				// none: memory by role, and a follower process attached
				// afterwards (freshFollower).
				for _, name := range []string{"proc.rss_mb.coordinator", "proc.rss_mb.leader", "proc.rss_mb.follower", "replica.catchup_points_per_s"} {
					layers.Metrics[name] = 0
				}
			}
			spans, err := tracedLayers(layers, w, in, ref, 60)
			if err != nil {
				t.Fatal(err)
			}
			if len(spans) == 0 {
				t.Error("traced pass recorded no span")
			}
			if err := microRuns(layers, w, in, ref); err != nil {
				t.Fatal(err)
			}
			// Only the metrics of layers the deployment lacks may be left
			// for fillLacking; every other one a measurement must have set.
			if err := fillLacking(layers, w); err != nil {
				t.Fatal(err)
			}
			expectMetrics(t, layers, perLayer, false)
			if v := layers.Metrics["client.request_us"]; v <= 0 {
				t.Errorf("client.request_us = %v", v)
			}
		})
	}
}

// expectMetrics checks a result against the declarations of its mode: every
// declared metric present (and, when gated, not zero), nothing undeclared,
// no failed operation.
func expectMetrics(t *testing.T, res *result, defs []metricDef, nonZero bool) {
	t.Helper()
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("attempted=%d failed=%d notes=%v", res.Attempted, res.Failed, res.Notes)
	}
	allowed := map[string]bool{}
	for _, d := range defs {
		allowed[d.Name] = true
		v, ok := res.Metrics[d.Name]
		if !ok || nonZero && v == 0 {
			t.Errorf("metric %q: present=%v value=%v", d.Name, ok, v)
		}
	}
	for _, d := range reportOnly {
		allowed[d.Name] = true
	}
	for name := range res.Metrics {
		if !allowed[name] {
			t.Errorf("metric %q emitted but not declared", name)
		}
	}
}
