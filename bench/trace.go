package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"karl"
	"karl/bench/span"
	"karl/internal/cluster"
	"karl/internal/replica"
	"karl/internal/server"
	"karl/internal/shard"
)

// The traced pass hosts the workload's stack inside the harness, through
// the constructors cmd/karl-serve uses, on loopback listeners, and puts a
// span around every call that crosses a public seam. No file outside
// bench/ knows about it.

// Span names are layer names; the README's self-time ledger reads them.
const (
	spanClient    = "client.request"
	spanServer    = "server.handler"
	spanEngine    = "karl.engine"
	spanCluster   = "cluster.handler"
	spanShardCall = "cluster.shard_call"
)

// spanHandler records one span per request around an http.Handler.
type spanHandler struct {
	name, shard string
	rec         *span.Recorder
	next        http.Handler
	last        atomic.Pointer[span.Span]
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid, _ := strconv.ParseInt(r.Header.Get(ridHeader), 10, 64)
	// A coordinator does not forward headers to its shards, but with one
	// request in flight whatever reaches a shard belongs to it — except a
	// follower's pull, which nobody asked for.
	if rid == 0 && !strings.HasPrefix(r.URL.Path, "/v1/replicate") {
		rid = h.rec.Current()
	}
	t0 := h.rec.Now()
	h.next.ServeHTTP(w, r)
	s := span.Span{Name: h.name, Op: r.URL.Path, Start: t0, End: h.rec.Now(), Request: rid, Shard: h.shard}
	h.rec.Add(s)
	h.last.Store(&s)
}

// tracedEngine decorates a dynamic engine where the server constructor
// takes the karl.MutableEngine interface. The embedded engine supplies
// everything not timed here (and the optional introspection and
// replication surfaces server.NewMutable looks for).
type tracedEngine struct {
	*karl.DynamicEngine
	rec   *span.Recorder
	shard string
	views *viewList
}

// viewList remembers every clone the server's pool made, so their
// per-view fast-path counters can be summed afterwards.
type viewList struct {
	mu    sync.Mutex
	views []*karl.DynamicEngine
}

func (v *viewList) add(d *karl.DynamicEngine) {
	v.mu.Lock()
	v.views = append(v.views, d)
	v.mu.Unlock()
}

func (v *viewList) fastPath() (n int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, d := range v.views {
		n += d.FastPathQueries()
	}
	return n
}

func newTracedEngine(d *karl.DynamicEngine, rec *span.Recorder, shard string) *tracedEngine {
	t := &tracedEngine{DynamicEngine: d, rec: rec, shard: shard, views: &viewList{}}
	t.views.add(d)
	return t
}

func (t *tracedEngine) time(op string, fn func()) {
	req, t0 := t.rec.Current(), t.rec.Now()
	fn()
	t.rec.Add(span.Span{Name: spanEngine, Op: op, Start: t0, End: t.rec.Now(), Request: req, Shard: t.shard})
}

func (t *tracedEngine) CloneQuery() karl.QueryEngine {
	c := t.DynamicEngine.Clone()
	t.views.add(c)
	return &tracedEngine{DynamicEngine: c, rec: t.rec, shard: t.shard, views: t.views}
}

func (t *tracedEngine) AggregateStats(q []float64) (v float64, st karl.Stats, err error) {
	t.time("AggregateStats", func() { v, st, err = t.DynamicEngine.AggregateStats(q) })
	return
}

func (t *tracedEngine) ThresholdStats(q []float64, tau float64) (over bool, st karl.Stats, err error) {
	t.time("ThresholdStats", func() { over, st, err = t.DynamicEngine.ThresholdStats(q, tau) })
	return
}

func (t *tracedEngine) ApproximateStats(q []float64, eps float64) (v float64, st karl.Stats, err error) {
	t.time("ApproximateStats", func() { v, st, err = t.DynamicEngine.ApproximateStats(q, eps) })
	return
}

func (t *tracedEngine) BatchApproximateStats(qs [][]float64, eps float64, workers int) (v []float64, st karl.Stats, err error) {
	t.time("BatchApproximateStats", func() { v, st, err = t.DynamicEngine.BatchApproximateStats(qs, eps, workers) })
	return
}

func (t *tracedEngine) InsertBulk(points [][]float64, weights []float64) (ids []uint64, err error) {
	t.time("InsertBulk", func() { ids, err = t.DynamicEngine.InsertBulk(points, weights) })
	return
}

func (t *tracedEngine) InsertID(p []float64, w float64) (id uint64, err error) {
	t.time("InsertID", func() { id, err = t.DynamicEngine.InsertID(p, w) })
	return
}

func (t *tracedEngine) Delete(id uint64) (err error) {
	t.time("Delete", func() { err = t.DynamicEngine.Delete(id) })
	return
}

// tracedShard decorates the coordinator's client for one leader.
type tracedShard struct {
	cluster.MutableShardClient
	rec   *span.Recorder
	shard string
}

func shardSpan(rec *span.Recorder, shard, op string, fn func()) {
	req, t0 := rec.Current(), rec.Now()
	fn()
	rec.Add(span.Span{Name: spanShardCall, Op: op, Start: t0, End: rec.Now(), Request: req, Shard: shard})
}

func (t *tracedShard) Aggregate(ctx context.Context, q []float64) (v float64, err error) {
	shardSpan(t.rec, t.shard, "Aggregate", func() { v, err = t.MutableShardClient.Aggregate(ctx, q) })
	return
}

func (t *tracedShard) Bounds(ctx context.Context, q []float64, eps float64) (b cluster.Bounds, err error) {
	shardSpan(t.rec, t.shard, "Bounds", func() { b, err = t.MutableShardClient.Bounds(ctx, q, eps) })
	return
}

func (t *tracedShard) Insert(ctx context.Context, points [][]float64, weights []float64) (ids []uint64, err error) {
	shardSpan(t.rec, t.shard, "Insert", func() { ids, err = t.MutableShardClient.Insert(ctx, points, weights) })
	return
}

func (t *tracedShard) Delete(ctx context.Context, id uint64) (err error) {
	shardSpan(t.rec, t.shard, "Delete", func() { err = t.MutableShardClient.Delete(ctx, id) })
	return
}

// tracedFollower decorates the coordinator's client for one follower: the
// target of hedged and failed-over reads.
type tracedFollower struct {
	cluster.FollowerClient
	rec   *span.Recorder
	shard string
}

func (t *tracedFollower) Aggregate(ctx context.Context, q []float64) (v float64, err error) {
	shardSpan(t.rec, t.shard, "Aggregate", func() { v, err = t.FollowerClient.Aggregate(ctx, q) })
	return
}

func (t *tracedFollower) Bounds(ctx context.Context, q []float64, eps float64) (b cluster.Bounds, err error) {
	shardSpan(t.rec, t.shard, "Bounds", func() { b, err = t.FollowerClient.Bounds(ctx, q, eps) })
	return
}

// countingRT counts the bytes the coordinator exchanges with its shards.
type countingRT struct {
	next  http.RoundTripper
	bytes atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (c *countingRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		c.bytes.Add(r.ContentLength)
	}
	resp, err := c.next.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, &c.bytes}
	}
	return resp, err
}

// hosted is a workload's stack running inside the harness.
type hosted struct {
	target
	rec *span.Recorder // nil: same hosting, no wrappers (the overhead baseline)

	frontSpan *spanHandler          // the handler the client reaches
	replay    *karl.Engine          // static shape: a clone the harness replays each query on
	views     []*viewList           // mutable shapes: the engines' pooled clones
	dyn       []*karl.DynamicEngine // every dynamic engine built, to close
	wire      *countingRT

	servers []*http.Server
	cancel  context.CancelFunc
	pulls   sync.WaitGroup
}

// serve puts h on a loopback listener, wrapped in a span recorder when
// tracing.
func (hd *hosted) serve(name, shardName string, h http.Handler) (string, *spanHandler, error) {
	var sh *spanHandler
	if hd.rec != nil {
		sh = &spanHandler{name: name, shard: shardName, rec: hd.rec, next: h}
		h = sh
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	hd.servers = append(hd.servers, srv)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), sh, nil
}

func (hd *hosted) close() {
	if hd.ctl != nil {
		hd.ctl.close()
	}
	if hd.cancel != nil {
		hd.cancel()
	}
	hd.pulls.Wait()
	for _, s := range hd.servers {
		_ = s.Close()
	}
	for _, d := range hd.dyn {
		_ = d.Close()
	}
}

// mutableEngine builds an empty dynamic engine with default policy, and
// its decorated twin when tracing.
func (hd *hosted) mutableEngine(gamma float64, shardName string) (*karl.DynamicEngine, karl.MutableEngine, error) {
	d, err := karl.NewDynamic(karl.Gaussian(gamma))
	if err != nil {
		return nil, nil, err
	}
	hd.dyn = append(hd.dyn, d)
	if hd.rec == nil {
		return d, d, nil
	}
	t := newTracedEngine(d, hd.rec, shardName)
	hd.views = append(hd.views, t.views)
	return d, t, nil
}

// host builds the in-process twin of deploy.
func host(w workload, in *inputs, rec *span.Recorder) (*hosted, error) {
	hd := &hosted{rec: rec}
	fail := func(err error) (*hosted, error) {
		hd.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	hd.cancel = cancel

	switch w.shape {
	case shapeStatic:
		var opts []karl.Option
		if in.set.Weights != nil {
			opts = append(opts, karl.WithWeights(in.set.Weights))
		}
		eng, err := karl.Build(in.set.Points, karl.Gaussian(in.set.Gamma), opts...)
		if err != nil {
			return fail(err)
		}
		srv, err := server.New(eng)
		if err != nil {
			return fail(err)
		}
		hd.replay = eng.Clone()
		if hd.front, hd.frontSpan, err = hd.serve(spanServer, "", srv); err != nil {
			return fail(err)
		}
		hd.engines, hd.ctl = []string{hd.front}, newConn(hd.front)
		return hd, nil

	case shapeMutable:
		_, eng, err := hd.mutableEngine(in.set.Gamma, "")
		if err != nil {
			return fail(err)
		}
		srv, err := server.NewMutable(eng)
		if err != nil {
			return fail(err)
		}
		if hd.front, hd.frontSpan, err = hd.serve(spanServer, "", srv); err != nil {
			return fail(err)
		}
		hd.engines = []string{hd.front}

	case shapeCluster:
		hd.wire = &countingRT{next: &http.Transport{MaxIdleConnsPerHost: 64}}
		hc := &http.Client{Transport: hd.wire}
		var members []cluster.WritableShard
		for i := 0; i < 2; i++ {
			lname, fname := fmt.Sprintf("L%d", i), fmt.Sprintf("F%d", i)
			_, eng, err := hd.mutableEngine(in.set.Gamma, lname)
			if err != nil {
				return fail(err)
			}
			lsrv, err := server.NewMutable(eng)
			if err != nil {
				return fail(err)
			}
			lurl, _, err := hd.serve(spanServer, lname, lsrv)
			if err != nil {
				return fail(err)
			}

			fd, feng, err := hd.mutableEngine(in.set.Gamma, fname)
			if err != nil {
				return fail(err)
			}
			a := replica.NewApplier(fd, replica.NewHTTPSource(lurl))
			a.BootstrapFromSnapshot()
			fsrv, err := server.NewMutable(feng, server.WithReplicaApplier(a))
			if err != nil {
				return fail(err)
			}
			furl, _, err := hd.serve(spanServer, fname, fsrv)
			if err != nil {
				return fail(err)
			}
			hd.pulls.Add(1)
			go func() {
				defer hd.pulls.Done()
				_ = a.Run(ctx, 0)
			}()

			hd.engines, hd.followers = append(hd.engines, lurl), append(hd.followers, furl)
			var leader cluster.MutableShardClient = cluster.NewHTTPShardClient(lurl, hc)
			var follower cluster.FollowerClient = cluster.NewHTTPShardClient(furl, hc)
			if rec != nil {
				leader = &tracedShard{leader, rec, lname}
				follower = &tracedFollower{follower, rec, fname}
			}
			members = append(members, cluster.WritableShard{Client: leader, Followers: []cluster.FollowerClient{follower}})
		}
		if err := hd.awaitFollowers(); err != nil {
			return fail(err)
		}
		co, err := cluster.NewWritable(ctx, shard.Hash, members, nil, cluster.WritableConfig{Config: cluster.Config{Timeout: 2 * time.Second}})
		if err != nil {
			return fail(err)
		}
		if hd.front, hd.frontSpan, err = hd.serve(spanCluster, "", cluster.NewWritableHTTPServer(co)); err != nil {
			return fail(err)
		}
	}

	hd.ctl = newConn(hd.front)
	if err := hd.seed(in, w.seedBatch); err != nil {
		return fail(err)
	}
	return hd, nil
}
