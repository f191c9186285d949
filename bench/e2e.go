package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"karl/bench/hostunit"
	"karl/bench/oracle"
)

type opClass int

const (
	opTKAQ opClass = iota
	opEKAQ
	opBatch
	opWrite
	numClasses
)

func (c opClass) String() string { return [...]string{"tkaq", "ekaq", "batch", "write"}[c] }

func (c opClass) path() string {
	return [...]string{"/v1/threshold", "/v1/approximate", "/v1/batch", ""}[c]
}

const (
	// Each block is a host-unit measurement followed by a window of
	// requests of one class: about 8 blocks a second, 190 in a 24 s run.
	scansPerBlock = 3
	blockWindow   = 110 * time.Millisecond
	warmup        = 600 * time.Millisecond
)

// answer is one timed reply kept for the post-hoc check.
type answer struct {
	class opClass
	idx   int // query index, or batch set index
	over  bool
	value float64
	batch []float64
}

// block is one window's outcome.
type block struct {
	class  opClass
	unit0  float64            // host unit measured just before the window, ms
	unit1  float64            // and just after it (the next block's unit0)
	window time.Duration      // wall time the readers were sending
	reads  int                // completed requests
	cpu    map[string]float64 // server CPU seconds since the previous window closed, by role
	steal  float64            // CPU seconds the hypervisor withheld from the guest during the window
}

// slow is the host's slowness over the block: its two units' mean, as a
// multiple of the nominal unit.
func (b *block) slow() float64 { return (b.unit0 + b.unit1) / 2 / hostunit.NominalMS }

// sample is one request: its latency as measured and the block it ran in.
type sample struct {
	ms    float64
	block int
}

// phase collects what a timed phase observed.
type phase struct {
	blocks  []block
	samples [numClasses][]sample
	late    []float64 // writer lateness per op, ms
	answers []answer
	wall    time.Duration
	rss     map[string]float64 // peak RSS at the end of the phase, MB by role
	sent    int64              // bytes the client connections wrote
	recv    int64              // and read

	attempted, failed int
	failures          []string
}

// quietShare is the share of a phase's blocks, the ones with the least
// steal, that is always kept.
const quietShare = 0.4

// quiet marks the blocks the end-to-end metrics are taken from: those
// during which the hypervisor withheld no more than one 10 ms tick of CPU
// from the guest, or — when steal comes in bursts that leave few such —
// the quietShare of the blocks that lost least. Steal is the one kind of
// interference the guest is told about: a stolen vCPU stretches whatever
// runs then by milliseconds, a 3 ms reference scan far more often than a
// 0.2 ms request, so dividing by the unit cannot cancel it and the tail
// percentiles of a run under steal are the host's. Every block's requests
// still count as attempted and are still checked.
func (p *phase) quiet() []bool {
	steal := make([]float64, len(p.blocks))
	for i := range p.blocks {
		steal[i] = p.blocks[i].steal
	}
	limit := math.Max(0.0101, quantile(steal, quietShare))
	q := make([]bool, len(p.blocks))
	for i, s := range steal {
		q[i] = s <= limit
	}
	return q
}

// latencies returns a class's latencies in the quiet blocks in ms, as
// measured (raw) and each divided by its own block's slowness (norm).
func (p *phase) latencies(c opClass, quiet []bool) (norm, raw []float64) {
	for _, s := range p.samples[c] {
		if quiet[s.block] {
			raw = append(raw, s.ms)
			norm = append(norm, s.ms/p.blocks[s.block].slow())
		}
	}
	return norm, raw
}

// units lists every block's host unit, ms.
func (p *phase) units() []float64 {
	var u []float64
	for i := range p.blocks {
		u = append(u, p.blocks[i].unit0)
	}
	return u
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 3 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// runner drives one deployed workload.
type runner struct {
	w   workload
	in  *inputs
	t   *target
	ref *hostunit.Ref
	toy bool // smoke-test sizes: a short verification pass
}

// classOf rotates the block classes: TKAQ and eKAQ alternate, and every
// 8th block is a batch block where the front door has the endpoint.
func (r *runner) classOf(b int) opClass {
	if r.w.hasBatch && b%8 == 7 {
		return opBatch
	}
	if b%2 == 0 {
		return opTKAQ
	}
	return opEKAQ
}

func (r *runner) body(class opClass, i int) (idx int, body []byte) {
	switch class {
	case opTKAQ:
		idx = r.in.order[i%len(r.in.order)]
		return idx, r.in.tkaqBody[idx]
	case opEKAQ:
		idx = r.in.order[i%len(r.in.order)]
		return idx, r.in.ekaqBody[idx]
	default:
		idx = i % len(r.in.batchBody)
		return idx, r.in.batchBody[idx]
	}
}

// send issues one read and returns its latency and parsed answer.
func (r *runner) send(c *conn, class opClass, i int, rid int64) (time.Duration, answer, error) {
	idx, body := r.body(class, i)
	status, raw, d, err := c.do("POST", class.path(), body, rid)
	if err != nil {
		return d, answer{}, err
	}
	want := 0
	if class == opBatch {
		want = len(r.in.batches[idx])
	}
	rep, err := parse(class, status, raw, want)
	if err != nil {
		return d, answer{}, err
	}
	a := answer{class: class, idx: idx, batch: rep.Values}
	if rep.Over != nil {
		a.over = *rep.Over
	}
	if rep.Value != nil {
		a.value = *rep.Value
	}
	if covered := rep.Covered; rep.Partial || covered != nil && *covered < 1 {
		if covered == nil {
			covered = new(float64)
		}
		return d, a, fmt.Errorf("partial answer (covered=%g) with every server up", *covered)
	}
	return d, a, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timed runs blocks for the given duration: one closed-loop read
// connection, and, for the writable shapes, one paced writer beside it.
// (One reader, not one per core: with client and server threads
// outnumbering two vCPUs, latency stops repeating — see the README.)
func (r *runner) timed(seconds float64, keepAnswers bool) (*phase, error) {
	p := &phase{}
	c := newConn(r.t.front)
	defer c.close()
	// Warm up: pooled clones, connections, lazy set-up. Not recorded.
	cursor := 0
	warm, length := warmup, blockWindow
	if r.toy {
		warm, length = warmup/20, blockWindow/5
	}
	r.window(p, c, &cursor, opTKAQ, warm/2, false)
	r.window(p, c, &cursor, opEKAQ, warm/2, false)
	*p = phase{sent: -c.sent.Load(), recv: -c.recv.Load()}

	before, err := usage(r.t.procs)
	if err != nil {
		return nil, err
	}
	var pc pacer
	unit := pc.unit(r.ref)    // before the writer starts: it sets the writer's clock rate
	var blockNow atomic.Int64 // index of the block in progress, for the writer's samples
	stopWriter := make(chan struct{})
	var writerDone sync.WaitGroup
	var wp phase
	if r.w.writeEvery > 0 {
		writerDone.Add(1)
		go func() {
			defer writerDone.Done()
			r.writer(&wp, &pc, &blockNow, stopWriter)
		}()
	}

	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for b := 0; time.Now().Before(deadline); b++ {
		blockNow.Store(int64(b))
		r.window(p, c, &cursor, r.classOf(b), length, keepAnswers)
		after, err := usage(r.t.procs)
		if err != nil {
			close(stopWriter)
			writerDone.Wait()
			return nil, err
		}
		blk := &p.blocks[b]
		blk.cpu = map[string]float64{}
		for role, cpu := range after.cpu {
			blk.cpu[role] = cpu - before.cpu[role]
		}
		before, p.rss = after, after.rss
		blk.unit0, unit = unit, pc.unit(r.ref)
		blk.unit1 = unit

	}
	p.wall = time.Since(start)
	close(stopWriter)
	writerDone.Wait()

	p.sent += c.sent.Load() + wp.sent
	p.recv += c.recv.Load() + wp.recv
	p.samples[opWrite], p.late = wp.samples[opWrite], wp.late
	p.attempted += wp.attempted
	p.failed += wp.failed
	p.failures = append(p.failures, wp.failures...)
	return p, nil
}

// window sends requests of one class, one after the other, until the
// window closes, and folds the samples into p.
func (r *runner) window(p *phase, c *conn, cursor *int, class opClass, length time.Duration, keep bool) {
	b := block{class: class, steal: -stealSeconds()}
	t0 := time.Now()
	for end := t0.Add(length); time.Now().Before(end); *cursor++ {
		d, a, err := r.send(c, class, *cursor, 0)
		p.attempted++
		if err != nil {
			p.fail("%s: %v", class, err)
			continue
		}
		b.reads++
		p.samples[class] = append(p.samples[class], sample{ms(d), len(p.blocks)})
		if keep {
			p.answers = append(p.answers, a)
		}
	}
	b.window = time.Since(t0)
	b.steal += stealSeconds()
	p.blocks = append(p.blocks, b)
}

// pacer keeps the paced writer and the host-unit scans out of each other's
// way: no write op is in flight while the reference scan runs (so the unit
// measures the host, not the harness's own write traffic), and the time a
// scan takes does not count on the writer's clock (so a scan is never
// charged to the system as a late write).
//
// It also gives the writer its clock rate. The write period is writeEvery
// host units, not wall milliseconds: this host runs at either of two
// speeds 1.6x apart for minutes at a time, and a writer paced by the wall
// clock loads a server on the slow host 1.6x as heavily, which read
// latency divided by slowness does not undo (stream-churn's normalised
// p50 sat 20 % apart between the two speeds).
type pacer struct {
	scan   sync.RWMutex
	paused atomic.Int64  // total ns spent scanning so far
	slow   atomic.Uint64 // the latest unit's slowness, as float64 bits
}

// unit measures the host unit, in ms, with the writer held off.
func (pc *pacer) unit(ref *hostunit.Ref) float64 {
	pc.scan.Lock()
	defer pc.scan.Unlock()
	t0 := time.Now()
	u := ref.Unit(scansPerBlock)
	pc.paused.Add(int64(time.Since(t0)))
	pc.slow.Store(math.Float64bits(hostunit.Slowness(u)))
	return ms(u)
}

// period stretches a nominal duration by the host's current slowness.
func (pc *pacer) period(d time.Duration) time.Duration {
	return time.Duration(float64(d) * math.Float64frombits(pc.slow.Load()))
}

// writer is the paced connection: one write op — a bulk insert of 64 new
// points, then a delete of the 64 oldest live ones — every writeEvery on
// the pacer's clock, timed from the instant it was due, so a stall charges
// the ops queued behind it. The schedule depends on how fast the host is,
// never on how fast the server is.
func (r *runner) writer(p *phase, pc *pacer, blockNow *atomic.Int64, stop <-chan struct{}) {
	c := newConn(r.t.front)
	defer c.close()
	start := time.Now()
	var offset time.Duration // op k's due time on the pacer's clock
	dueAt := func() time.Time {
		return start.Add(offset + time.Duration(pc.paused.Load()))
	}
	for k := 0; ; k++ {
		var due time.Time
		for {
			select {
			case <-stop:
				p.sent, p.recv = c.sent.Load(), c.recv.Load()
				return
			case <-time.After(time.Until(dueAt())):
			}
			pc.scan.RLock() // waits out a scan in progress, which moves the due time
			if due = dueAt(); !time.Now().Before(due) {
				break
			}
			pc.scan.RUnlock()
		}
		offset += pc.period(r.w.writeEvery)
		pts := make([][]float64, writeChunk)
		for i := range pts {
			pts[i] = r.in.newPoint()
		}
		sent := time.Now()
		p.attempted++
		err := r.t.insert(c, pts, 0)
		if err == nil {
			err = r.t.deleteOldest(c, writeChunk, 0)
		}
		pc.scan.RUnlock()
		if err != nil {
			p.fail("write op %d: %v", k, err)
			continue
		}
		p.samples[opWrite] = append(p.samples[opWrite], sample{ms(time.Since(due)), int(blockNow.Load())})
		p.late = append(p.late, ms(sent.Sub(due)))
	}
}

// checkAnswers judges kept answers against precomputed oracle values.
func (r *runner) checkAnswers(answers []answer, f []float64, fBatch [][]float64, w float64) *oracle.Check {
	c := &oracle.Check{}
	for _, a := range answers {
		switch a.class {
		case opTKAQ:
			c.Threshold("tkaq q"+strconv.Itoa(a.idx), a.over, f[a.idx], r.in.tau, w)
		case opEKAQ:
			c.Approx("ekaq q"+strconv.Itoa(a.idx), a.value, f[a.idx], r.w.eps, w)
		case opBatch:
			for j, v := range a.batch {
				c.Approx("batch "+strconv.Itoa(a.idx)+"/"+strconv.Itoa(j), v, fBatch[a.idx][j], r.w.eps, w)
			}
		}
	}
	return c
}

// verify is the pass every workload ends with: writers stopped, followers
// caught up, one connection, every answer judged against the oracle over
// what should be live now.
func (r *runner) verify() (*phase, *oracle.Check, error) {
	if err := r.t.awaitFollowers(); err != nil {
		return nil, nil, err
	}
	set := r.t.liveSet(r.in)
	f, fBatch := r.in.f, r.in.fBatch
	if set != r.in.set {
		f = set.FAll(r.in.queries, 2)
		fBatch = nil
		if r.w.hasBatch {
			for _, qs := range r.in.batches {
				fBatch = append(fBatch, set.FAll(qs, 2))
			}
		}
	}
	p := &phase{}
	c := newConn(r.t.front)
	defer c.close()
	reads, batches := r.verifySize()
	for i := 0; i < 2*reads+batches; i++ {
		class := opClass(i % 2)
		if i >= 2*reads {
			class = opBatch
		}
		p.attempted++
		_, a, err := r.send(c, class, i/2, 0)
		if err != nil {
			p.fail("verify %s: %v", class, err)
			continue
		}
		p.answers = append(p.answers, a)
	}
	check := r.checkAnswers(p.answers, f, fBatch, set.W())
	if r.w.shape == shapeCluster {
		// The coordinator reports coverage, and every one of these answers
		// claimed it was complete.
		check.UnflaggedPartials = check.TkaqWrongVerdicts + check.EkaqViolations
	}
	return p, check, died(r.t.procs)
}

// verifySize is the verification pass's length: reads of each class, and
// batches.
func (r *runner) verifySize() (reads, batches int) {
	reads, batches = verifyReads, verifyBatch
	if r.toy {
		reads, batches = 30, 1
	}
	if !r.w.hasBatch {
		batches = 0
	}
	return reads, batches
}

// quantile of an unsorted sample, by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
