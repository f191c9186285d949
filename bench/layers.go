package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"karl/bench/hostunit"
	"karl/bench/span"
)

// The per-layer run. Counts come from /v1/stats deltas on the real
// processes, *_us spans from the traced pass in the harness's own process,
// ns_per_* from the micro-runs.

// serverStats is what the harness reads of a karl-serve's GET /v1/stats.
type serverStats struct {
	Pool struct {
		Clones int64 `json:"clones"`
	} `json:"pool"`
	Endpoints map[string]struct {
		Queries       int64 `json:"queries"`
		Iterations    int64 `json:"iterations"`
		NodesExpanded int64 `json:"nodes_expanded"`
		PointsScanned int64 `json:"points_scanned"`
	} `json:"endpoints"`
	Mutable *struct {
		Epoch       uint64 `json:"epoch"`
		Segments    int    `json:"segments"`
		Seals       int    `json:"seals"`
		Compactions int    `json:"compactions"`
		Tombstones  int    `json:"tombstones"`
	} `json:"mutable"`
}

// clusterStats is what it reads of a coordinator's.
type clusterStats struct {
	Partials int64 `json:"partials"`
	Shards   []struct {
		Requests int64 `json:"requests"`
		Retries  int64 `json:"retries"`
		Hedges   int64 `json:"hedges"`
	} `json:"shards"`
}

// counters is one snapshot of every count the layer metrics are deltas of.
type counters struct {
	clones, iterations, nodes, points  int64 // summed over engine servers, query endpoints only
	seals, compactions, epoch          int64
	segments, tombstones               int64
	shardCalls, retries, hedges, parts int64
}

func (t *target) counters() (counters, error) {
	var c counters
	for _, url := range t.engines {
		var st serverStats
		cn := newConn(url)
		err := cn.call("GET", "/v1/stats", nil, &st, 0)
		cn.close()
		if err != nil {
			return c, err
		}
		c.clones += st.Pool.Clones
		for _, name := range []string{"threshold", "approximate", "bounds", "aggregate"} {
			ep := st.Endpoints[name]
			c.iterations += ep.Iterations
			c.nodes += ep.NodesExpanded
			c.points += ep.PointsScanned
		}
		if m := st.Mutable; m != nil {
			c.seals += int64(m.Seals)
			c.compactions += int64(m.Compactions)
			c.epoch += int64(m.Epoch)
			c.segments += int64(m.Segments)
			c.tombstones += int64(m.Tombstones)
		}
	}
	if t.front != t.engines[0] {
		var st clusterStats
		if err := t.ctl.call("GET", "/v1/stats", nil, &st, 0); err != nil {
			return c, err
		}
		c.parts = st.Partials
		for _, s := range st.Shards {
			c.shardCalls += s.Requests
			c.retries += s.Retries
			c.hedges += s.Hedges
		}
	}
	return c, nil
}

// poller samples, every 100 ms while a phase runs, the manifest shape of
// the engine servers and the followers' replication lag.
type poller struct {
	segments, tombstones, lag []float64
	stop                      chan struct{}
	done                      sync.WaitGroup
}

func (t *target) poll() *poller {
	p := &poller{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			if c, err := t.counters(); err == nil {
				p.segments = append(p.segments, float64(c.segments)/float64(len(t.engines)))
				p.tombstones = append(p.tombstones, float64(c.tombstones)/float64(len(t.engines)))
			}
			// Lag is the leader's sequence number now minus the follower's:
			// the follower's own account of it is taken as a pull completes,
			// when it is zero by construction.
			for i, f := range t.followers {
				ls, err := replStatus(t.engines[i])
				if err != nil {
					continue
				}
				if fs, err := replStatus(f); err == nil && ls.NextSeq >= fs.NextSeq {
					p.lag = append(p.lag, float64(ls.NextSeq-fs.NextSeq))
				}
			}
		}
	}()
	return p
}

func (p *poller) finish() {
	close(p.stop)
	p.done.Wait()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runLayers is the traced run: a short untraced phase on real processes
// for the counts, the traced pass for the spans, the micro-runs.
func runLayers(e *env, w workload, seed int64, seconds float64) (*result, error) {
	res := newResult(w, seed, true)
	in, err := w.generate(seed, false)
	if err != nil {
		return nil, err
	}
	ref := hostunit.New()
	if err := realProcessLayers(e, res, w, in, ref, seconds*0.4); err != nil {
		return nil, err
	}
	if w.shape == shapeCluster {
		if err := multiSeedLayers(e, res, w, in); err != nil {
			return nil, err
		}
	}
	spans, err := tracedLayers(res, w, in, ref, tracedOps)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.root, ".bench_build", "spans-"+w.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := span.Write(f, spans); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d spans written to %s", len(spans), path))
	if err := microRuns(res, w, in, ref); err != nil {
		return nil, err
	}
	return res, fillLacking(res, w)
}

// realProcessLayers deploys once and reads everything that only a real
// karl-serve process can tell: work counters, process CPU and memory by
// role, the loopback floor, replication lag and catch-up.
func realProcessLayers(e *env, res *result, w workload, in *inputs, ref *hostunit.Ref, seconds float64) error {
	fl, err := e.deploy(w, in)
	if err != nil {
		return err
	}
	defer e.teardown(fl)
	r := &runner{w: w, in: in, t: fl, ref: ref}
	if err := r.countLayers(res, seconds); err != nil {
		return err
	}
	if w.shape == shapeCluster {
		if err := freshFollower(e, res, fl, ref); err != nil {
			return err
		}
	}
	return died(fl.procs)
}

// multiSeedLayers deploys the cluster a second time, seeded in
// multiSeedBatch-point requests, for multiSeedCheck.
func multiSeedLayers(e *env, res *result, w workload, in *inputs) error {
	w.seedBatch = multiSeedBatch
	fl, err := e.deploy(w, in)
	if err != nil {
		return err
	}
	defer e.teardown(fl)
	r := &runner{w: w, in: in, t: fl}
	return r.multiSeedCheck(res)
}

// multiSeedCheck runs the verification pass against the runner's target, a
// cluster seeded in several insert requests rather than the workload's one,
// and reports what the oracle finds as check.multiseed_*. These are not
// operations of the workload and do not count as attempted or failed: the
// coordinator's frozen shard masses (README, finding) make them wrong at
// this commit, and a fix shows here as a count going to 0.
func (r *runner) multiSeedCheck(res *result) error {
	_, check, err := r.verify()
	if err != nil {
		return err
	}
	res.Metrics["check.multiseed_ekaq_violations"] = float64(check.EkaqViolations)
	res.Metrics["check.multiseed_max_err_over_eps"] = check.MaxErrOverEps
	for _, n := range check.First {
		res.Notes = append(res.Notes, "multiseed: "+n)
	}
	return nil
}

// countLayers runs a short untraced phase and the verification pass against
// the runner's target and reads the count-based layer metrics off them.
func (r *runner) countLayers(res *result, seconds float64) error {
	fl, w, ref := r.t, r.w, r.ref
	c0, err := fl.counters()
	if err != nil {
		return err
	}
	pl := fl.poll()
	p, err := r.timed(seconds, false)
	pl.finish()
	if err != nil {
		return err
	}
	res.absorb(p)
	c1, err := fl.counters()
	if err != nil {
		return err
	}
	cpu, cpuRaw, _ := p.cpuPerOp(p.quiet())
	for role := range cpu {
		res.set("proc.cpu_us_per_op."+role, cpu[role]*1e6, cpuRaw[role]*1e6, 0)
	}
	ops := len(p.samples[opWrite])
	for _, b := range p.blocks {
		ops += b.reads
	}
	if ops > 0 {
		res.Metrics["client.req_bytes_per_op"] = float64(p.sent) / float64(ops)
		res.Metrics["client.resp_bytes_per_op"] = float64(p.recv) / float64(ops)
	}
	for role, mb := range p.rss {
		res.Metrics["proc.rss_mb."+role] = mb
	}
	units := p.units()
	res.set("client.hostunit_ms", median(units), median(units), len(units))
	res.Metrics["client.hostunit_iqr"] = (quantile(units, 0.75) - quantile(units, 0.25)) / median(units)
	res.Metrics["server.pool_clones"] = float64(c1.clones - c0.clones)
	res.Metrics["karl.seals"] = float64(c1.seals - c0.seals)
	res.Metrics["karl.compactions"] = float64(c1.compactions - c0.compactions)
	res.Metrics["karl.epochs_per_s"] = float64(c1.epoch-c0.epoch) / p.wall.Seconds()
	res.Metrics["karl.segments_mean"] = mean(pl.segments)
	res.Metrics["karl.tombstones_mean"] = mean(pl.tombstones)
	res.Metrics["replica.lag_seqs_p50"] = median(pl.lag)
	res.Metrics["replica.lag_seqs_max"] = quantile(pl.lag, 1)
	if n := len(p.late); n > 0 {
		res.Metrics["client.writer_late_ms_p99"] = quantile(p.late, 0.99)
		var late int
		for _, l := range p.late {
			if l > 1 {
				late++
			}
		}
		res.Metrics["client.writer_late_share"] = float64(late) / float64(n)
	}
	e2e := newResult(w, 0, false)
	e2eMetrics(e2e, p)
	for _, d := range reportOnly {
		if v, ok := e2e.Metrics[d.Name]; ok {
			res.set(d.Name, v, e2e.Raw[d.Name], e2e.Samples[d.Name])
		}
	}

	// The loopback + net/http floor: the cheapest request the front door
	// answers, on its real process.
	var floor []float64
	u := ref.Unit(scansPerBlock)
	for i := 0; i < 400; i++ {
		_, _, d, err := fl.ctl.do("GET", "/v1/healthz", nil, 0)
		if err != nil {
			return err
		}
		floor = append(floor, float64(d)/1e3)
	}
	u = (u + ref.Unit(scansPerBlock)) / 2
	res.set("net.floor_us", median(floor)/hostunit.Slowness(u), median(floor), len(floor))

	// The verification pass is a fixed list of queries, so on a static
	// model the work counters over it repeat exactly from run to run.
	v0, err := fl.counters()
	if err != nil {
		return err
	}
	vp, check, err := r.verify()
	if err != nil {
		return err
	}
	v1, err := fl.counters()
	if err != nil {
		return err
	}
	res.absorb(vp)
	res.Failed += check.Violations()
	res.Notes = append(res.Notes, check.First...)
	n, _ := r.verifySize()
	reads := float64(2 * n)
	res.Metrics["core.iterations_per_query"] = float64(v1.iterations-v0.iterations) / reads
	res.Metrics["core.nodes_per_query"] = float64(v1.nodes-v0.nodes) / reads
	res.Metrics["core.points_per_query"] = float64(v1.points-v0.points) / reads
	res.Metrics["cluster.shard_calls_per_query"] = float64(v1.shardCalls-v0.shardCalls) / reads
	res.Metrics["cluster.retries_per_query"] = float64(v1.retries-v0.retries) / reads
	res.Metrics["cluster.hedges_per_query"] = float64(v1.hedges-v0.hedges) / reads
	res.Metrics["cluster.partial_share"] = float64(v1.parts-v0.parts) / reads
	res.Metrics["check.verified_ops"] = float64(check.Verified)
	res.Metrics["check.ekaq_violations"] = float64(check.EkaqViolations)
	res.Metrics["check.tkaq_wrong_verdicts"] = float64(check.TkaqWrongVerdicts)
	res.Metrics["check.max_err_over_eps"] = check.MaxErrOverEps
	res.Metrics["check.unflagged_partials"] = float64(check.UnflaggedPartials)

	return nil
}

// freshFollower attaches a new follower process to the first leader after
// the run and times start → live: process launch, snapshot transfer and
// the first full pull.
func freshFollower(e *env, res *result, fl *target, ref *hostunit.Ref) error {
	u := ref.Unit(scansPerBlock)
	t0 := time.Now()
	f, err := e.start("follower", "-mutable", "-replica-of", fl.engines[0])
	if f != nil {
		fl.procs = append(fl.procs, f)
	}
	if err != nil {
		return err
	}
	for {
		st, err := replStatus(f.url)
		if err != nil {
			return err
		}
		ls, err := replStatus(fl.engines[0])
		if err != nil {
			return err
		}
		if st.State == "live" && st.NextSeq == ls.NextSeq {
			break
		}
		if time.Since(t0) > 60*time.Second {
			return fmt.Errorf("fresh follower not live after 60s: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d := time.Since(t0).Seconds() / hostunit.Slowness(u)
	var info struct {
		Points int `json:"points"`
	}
	cn := newConn(f.url)
	err = cn.call("GET", "/v1/info", nil, &info, 0)
	cn.close()
	if err != nil {
		return err
	}
	res.Metrics["replica.catchup_points_per_s"] = float64(info.Points) / d
	return nil
}

// tracedOps is the length of the traced pass.
const tracedOps = 1200

// tracedOp is one client operation of the in-process passes.
type tracedOp struct {
	rid   int64
	class opClass
	slow  float64
	lat   float64 // ns
	wire  int64   // coordinator↔shard bytes during it
}

// inProcessPass drives hd with one request in flight: TKAQ and eKAQ
// alternate, every 100th op is a batch and every 10th a write where the
// workload has them.
func (r *runner) inProcessPass(hd *hosted, ops int, p *phase) ([]tracedOp, error) {
	c := newConn(hd.front)
	defer c.close()
	out := make([]tracedOp, 0, ops)
	slow := 1.0
	for i := 0; i < ops; i++ {
		if i%100 == 0 {
			slow = hostunit.Slowness(r.ref.Unit(scansPerBlock))
		}
		class := opClass(i % 2)
		switch {
		case r.w.hasBatch && i%100 == 99:
			class = opBatch
		case r.w.writeEvery > 0 && i%10 == 9:
			class = opWrite
		}
		op := tracedOp{rid: int64(i + 1), class: class, slow: slow}
		var wire0 int64
		if hd.wire != nil {
			wire0 = hd.wire.bytes.Load()
		}
		var t0 int64
		if hd.rec != nil {
			hd.rec.Begin(op.rid)
			t0 = hd.rec.Now()
		}
		start := time.Now()
		p.attempted++
		var err error
		if class == opWrite {
			pts := make([][]float64, writeChunk)
			for j := range pts {
				pts[j] = r.in.newPoint()
			}
			if err = hd.insert(c, pts, op.rid); err == nil {
				err = hd.deleteOldest(c, writeChunk, op.rid)
			}
		} else {
			_, _, err = r.send(c, class, i/2, op.rid)
		}
		op.lat = float64(time.Since(start))
		if hd.rec != nil {
			hd.rec.Add(span.Span{Name: spanClient, Op: class.String(), Start: t0, End: hd.rec.Now(), Request: op.rid})
			hd.rec.Begin(0)
		}
		if err != nil {
			p.fail("in-process %s: %v", class, err)
			continue
		}
		if hd.wire != nil {
			op.wire = hd.wire.bytes.Load() - wire0
		}
		if hd.rec != nil && hd.replay != nil {
			r.replay(hd, class, i/2, op.rid)
		}
		out = append(out, op)
	}
	return out, nil
}

// replay re-runs the query just served on the harness's own clone of the
// static engine: server.New takes the concrete *karl.Engine, so there is
// no seam to time the engine call through. The span is placed at the end
// of the handler span it stands for.
func (r *runner) replay(hd *hosted, class opClass, i int, rid int64) {
	h := hd.frontSpan.last.Load()
	if h == nil || h.Request != rid {
		return
	}
	idx, _ := r.body(class, i)
	t0 := time.Now()
	switch class {
	case opTKAQ:
		_, _, _ = hd.replay.ThresholdStats(r.in.queries[idx], r.in.tau)
	case opEKAQ:
		_, _, _ = hd.replay.ApproximateStats(r.in.queries[idx], r.w.eps)
	case opBatch:
		_, _, _ = hd.replay.BatchApproximateStats(r.in.batches[idx], r.w.eps, 0)
	}
	d := int64(time.Since(t0))
	hd.rec.Add(span.Span{Name: spanEngine, Op: "replay", Start: max(h.Start, h.End-d), End: h.End, Request: rid})
}

// tracedLayers hosts the stack in-process twice — bare, for the overhead
// baseline, then with every seam wrapped — and turns the spans into the
// *_us layer metrics.
func tracedLayers(res *result, w workload, in *inputs, ref *hostunit.Ref, ops int) ([]span.Span, error) {
	r := &runner{w: w, in: in, ref: ref}
	p := &phase{}
	pass := func(rec *span.Recorder, ops int) ([]tracedOp, *hosted, error) {
		hd, err := host(w, in, rec)
		if err != nil {
			return nil, nil, err
		}
		got, err := r.inProcessPass(hd, ops, p)
		return got, hd, err
	}
	bare, hd, err := pass(nil, ops/3)
	if hd != nil {
		hd.close()
	}
	if err != nil {
		return nil, err
	}
	rec := span.NewRecorder()
	traced, hd, err := pass(rec, ops)
	if hd != nil {
		defer hd.close()
	}
	if err != nil {
		return nil, err
	}
	res.absorb(p)

	p50 := func(ops []tracedOp, class opClass) float64 {
		var xs []float64
		for _, op := range ops {
			if op.class == class {
				xs = append(xs, op.lat/op.slow)
			}
		}
		return median(xs)
	}
	if b := p50(bare, opTKAQ); b > 0 {
		res.Metrics["trace.overhead_ratio"] = p50(traced, opTKAQ) / b
	}

	spans := rec.Finish()
	self := span.SelfTimes(spans)
	byRid := make(map[int64]*tracedOp, len(traced))
	for i := range traced {
		byRid[traced[i].rid] = &traced[i]
	}
	// Per-span samples in normalised µs, for the two read classes.
	dur, own := map[string][]float64{}, map[string][]float64{}
	var insertUS []float64
	calls, rounds := map[int64]int{}, map[int64]map[string]int{}
	for i := range spans {
		s := &spans[i]
		op := byRid[s.Request]
		if op == nil {
			continue
		}
		us := func(ns int64) float64 { return float64(ns) / 1e3 / op.slow }
		switch {
		case op.class <= opEKAQ:
			dur[s.Name] = append(dur[s.Name], us(s.Dur()))
			own[s.Name] = append(own[s.Name], us(self[s.ID]))
			if s.Name == spanShardCall {
				calls[s.Request]++
				if rounds[s.Request] == nil {
					rounds[s.Request] = map[string]int{}
				}
				// L0 and F0 are the same member: a hedge is not a round.
				rounds[s.Request][strings.TrimLeft(s.Shard, "LF")]++
			}
		case op.class == opWrite && s.Name == spanCluster && s.Op == "/v1/insert":
			insertUS = append(insertUS, us(s.Dur())/writeChunk)
		}
	}
	res.set("client.request_us", median(dur[spanClient]), median(dur[spanClient]), len(dur[spanClient]))
	res.Metrics["net.self_us"] = median(own[spanClient])
	res.Metrics["server.handler_us"] = median(dur[spanServer])
	res.Metrics["server.self_us"] = median(own[spanServer])
	res.Metrics["karl.engine_us"] = median(dur[spanEngine])
	if w.shape == shapeCluster {
		res.Metrics["cluster.handler_us"] = median(dur[spanCluster])
		res.Metrics["cluster.self_us"] = median(own[spanCluster])
		res.Metrics["cluster.shard_call_us"] = median(dur[spanShardCall])
		res.Metrics["cluster.insert_us_per_point"] = median(insertUS)
		var nr, nc, wire float64
		var reads int
		for _, op := range traced {
			if op.class <= opEKAQ {
				reads++
				nc += float64(calls[op.rid])
				wire += float64(op.wire)
				most := 0
				for _, n := range rounds[op.rid] {
					most = max(most, n)
				}
				nr += float64(most)
			}
		}
		res.Metrics["cluster.rounds_per_query"] = nr / float64(reads)
		res.Metrics["cluster.wire_bytes_per_query"] = wire / float64(reads)
	}
	if w.shape != shapeStatic {
		var fast int64
		for _, v := range hd.views {
			fast += v.fastPath()
		}
		if n := len(dur[spanEngine]); n > 0 {
			res.Metrics["core.fastpath_share"] = float64(fast) / float64(n)
		}
	}
	return spans, nil
}
