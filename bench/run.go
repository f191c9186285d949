package main

import (
	"fmt"
	"sort"
	"time"

	"karl/bench/hostunit"
)

// result is one run of one workload in one mode.
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Metrics  map[string]float64 `json:"metrics"`
	// Raw holds the un-normalised twin of every host-normalised metric,
	// under the same name. Never gated.
	Raw map[string]float64 `json:"raw"`
	// Samples is how many measurements stand behind a metric.
	Samples   map[string]int `json:"samples"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Notes     []string       `json:"notes,omitempty"`
}

func newResult(w workload, seed int64, trace bool) *result {
	return &result{Workload: w.name, Seed: seed, Trace: trace,
		Metrics: map[string]float64{}, Raw: map[string]float64{}, Samples: map[string]int{}}
}

func (r *result) set(name string, v, raw float64, n int) {
	r.Metrics[name] = v
	if raw != v {
		r.Raw[name] = raw
	}
	if n > 0 {
		r.Samples[name] = n
	}
}

func (r *result) absorb(p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Notes = append(r.Notes, p.failures...)
}

// A run deploys at least minSetups times, and goes on while its set-ups
// have taken less than setupBudget together, up to maxSetups: a 50 ms
// set-up (stream-churn) is a process launch and six requests, too little
// work for seven of them to give a steady median. setup_s is the median,
// and the last deployment is the one measured.
const (
	minSetups   = 7
	maxSetups   = 21
	setupBudget = 2 * time.Second
)

// deployTimed deploys repeatedly, tearing down all but the last
// deployment, and returns it, the median set-up time in seconds, as
// measured, and the number of set-ups behind it.
func deployTimed(e *env, w workload, in *inputs) (*target, float64, int, error) {
	var raw []float64
	var total float64
	var fl *target
	for i := 0; i < minSetups || i < maxSetups && total < setupBudget.Seconds(); i++ {
		if fl != nil {
			e.teardown(fl)
		}
		t0 := time.Now()
		var err error
		if fl, err = e.deploy(w, in); err != nil {
			return nil, 0, 0, err
		}
		raw = append(raw, time.Since(t0).Seconds())
		total += raw[i]
	}
	return fl, median(raw), len(raw), nil
}

// runE2E is the untraced run: the set-ups, the timed phase, the
// verification pass, and the end-to-end metrics.
func runE2E(e *env, w workload, seed int64, seconds float64) (*result, error) {
	res := newResult(w, seed, false)
	in, err := w.generate(seed, false)
	if err != nil {
		return nil, err
	}
	fl, setupRaw, setups, err := deployTimed(e, w, in)
	if err != nil {
		return nil, err
	}
	defer e.teardown(fl)

	r := &runner{w: w, in: in, t: fl, ref: hostunit.New()}
	// Set-up is the one time reported as measured. What moves the unit and
	// request latency by 1.6x from one quarter of an hour to the next moves
	// a set-up — process launches, page faults, copies through the page
	// cache — hardly at all: over runs whose slowness ranged 0.65–1.1 the
	// raw medians stayed within ±5 % (cluster-rw ±1.5 %), and divided by
	// slowness they ranged ±25 %.
	res.set("setup_s", setupRaw, setupRaw, setups)
	return res, r.measure(res, seconds)
}

// measure runs the timed phase and the verification pass against the
// runner's target and derives the end-to-end metrics.
func (r *runner) measure(res *result, seconds float64) error {
	static := r.w.shape == shapeStatic
	p, err := r.timed(seconds, static)
	if err != nil {
		return err
	}
	res.absorb(p)
	if static {
		// Nothing changes a static model, so every timed answer can be
		// judged too, at one oracle value per distinct query.
		c := r.checkAnswers(p.answers, r.in.f, r.in.fBatch, r.in.set.W())
		res.Failed += c.Violations()
		res.Notes = append(res.Notes, c.First...)
	}
	vp, check, err := r.verify()
	if err != nil {
		return err
	}
	res.absorb(vp)
	res.Failed += check.Violations()
	res.Notes = append(res.Notes, check.First...)
	e2eMetrics(res, p)
	return nil
}

// e2eMetrics derives the end-to-end metrics from a timed phase. Every
// request latency is divided by its own block's slowness before any
// percentile is taken; a block's rate is multiplied, and its CPU divided,
// by the same. The raw twins are the same statistics undivided.
func e2eMetrics(res *result, p *phase) {
	quiet := p.quiet()
	for _, c := range []opClass{opTKAQ, opEKAQ, opBatch, opWrite} {
		norm, raw := p.latencies(c, quiet)
		if len(norm) == 0 {
			continue
		}
		res.set(c.String()+"_p50_ms", quantile(norm, 0.5), quantile(raw, 0.5), len(norm))
		if c != opBatch {
			res.set(c.String()+"_p95_ms", quantile(norm, 0.95), quantile(raw, 0.95), len(norm))
		}
		// p99 needs ten samples beyond it.
		if len(norm) >= 1000 {
			res.set(c.String()+"_p99_ms", quantile(norm, 0.99), quantile(raw, 0.99), len(norm))
		}
	}
	// Throughput per class is the median over that class's blocks; the two
	// read classes share the connection's time equally, so the overall rate
	// is their mean. A median per class, not one pooled rate: the classes
	// differ in cost, and a pooled median would sit on whichever has more
	// blocks.
	var qps, qpsRaw [2][]float64
	for i := range p.blocks {
		b := &p.blocks[i]
		if b.class > opEKAQ || b.window <= 0 || !quiet[i] {
			continue
		}
		rate := float64(b.reads) / b.window.Seconds()
		qpsRaw[b.class] = append(qpsRaw[b.class], rate)
		qps[b.class] = append(qps[b.class], rate*b.slow())
	}
	res.set("read_qps", (median(qps[0])+median(qps[1]))/2, (median(qpsRaw[0])+median(qpsRaw[1]))/2, len(qps[0])+len(qps[1]))
	cpu, cpuRaw, ops := p.cpuPerOp(quiet)
	res.set("cpu_ms_per_op", sumMap(cpu)*1e3, sumMap(cpuRaw)*1e3, ops)
	res.set("rss_mb", sumMap(p.rss), sumMap(p.rss), 0)
}

// cpuPerOp is the servers' CPU seconds per completed operation, by role,
// with each block's CPU divided by its slowness, and raw. A ratio of sums
// over the quiet blocks, not a median of per-block ratios: a block holds
// few write ops and fewer batches.
func (p *phase) cpuPerOp(quiet []bool) (norm, raw map[string]float64, ops int) {
	norm, raw = map[string]float64{}, map[string]float64{}
	for _, s := range p.samples[opWrite] {
		if quiet[s.block] {
			ops++
		}
	}
	for i := range p.blocks {
		if !quiet[i] {
			continue
		}
		b := &p.blocks[i]
		ops += b.reads
		for role, cpu := range b.cpu {
			raw[role] += cpu
			norm[role] += cpu / b.slow()
		}
	}
	for role := range raw {
		raw[role] /= float64(max(ops, 1))
		norm[role] /= float64(max(ops, 1))
	}
	return norm, raw, ops
}

// printResult writes every metric by name with its unit, normalised value,
// raw value and sample count.
func printResult(res *result) {
	defs := append(append(append([]metricDef(nil), endToEnd...), perLayer...), reportOnly...)
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer"
	}
	fmt.Printf("== %s seed=%d %s: attempted=%d failed=%d\n", res.Workload, res.Seed, mode, res.Attempted, res.Failed)
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-34s %14.6g %-8s", d.Name, v, d.Unit)
		if raw, ok := res.Raw[d.Name]; ok {
			line += fmt.Sprintf(" raw=%-12.6g", raw)
		}
		if n, ok := res.Samples[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Println(line)
	}
	var extra []string
	for name := range res.Metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("  %-34s %14.6g (undeclared)\n", name, res.Metrics[name])
	}
	for _, n := range res.Notes {
		fmt.Printf("  ! %s\n", n)
	}
}
