package main

import (
	"bytes"
	"net/http"
	"runtime"
	"time"

	"karl"
	"karl/bench/hostunit"
	"karl/internal/bound"
	"karl/internal/core"
	"karl/internal/index"
	"karl/internal/kdtree"
	"karl/internal/kernel"
	"karl/internal/segment"
	"karl/internal/server"
	"karl/internal/shard"
	"karl/internal/vec"
)

// The micro-runs time one layer's public functions on the workload's own
// points, from outside, one goroutine. Each is bracketed by a host-unit
// measurement and normalised like everything else.

const leafCap = 80 // karl.Build's default, which is what ships

type micro struct {
	res *result
	ref *hostunit.Ref
}

// timeIt runs fn and returns its normalised duration in nanoseconds.
func (m *micro) timeIt(fn func()) float64 {
	u0 := m.ref.Unit(scansPerBlock)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	u1 := m.ref.Unit(scansPerBlock)
	return float64(d) / hostunit.Slowness((u0+u1)/2)
}

func (m *micro) set(name string, v float64) { m.res.Metrics[name] = v }

// microRuns fills the ns_per_* and *_per_point layer metrics.
func microRuns(res *result, w workload, in *inputs, ref *hostunit.Ref) error {
	m := &micro{res: res, ref: ref}
	n := len(in.set.Points)
	kern := kernel.NewGaussian(in.set.Gamma)
	mat := vec.FromRows(in.set.Points)

	// internal/index + internal/kdtree.
	var tree *index.Tree
	var err error
	ns := m.timeIt(func() { tree, err = kdtree.Build(mat, in.set.Weights, leafCap) })
	if err != nil {
		return err
	}
	m.set("index.build_us_per_point", ns/1e3/float64(n))
	m.set("index.nodes_per_point", float64(tree.NodeCount())/float64(n))

	// internal/bound: KARL bounds of every node, for 64 queries.
	qs := in.queries[:min(64, len(in.queries))]
	var sink float64
	ns = m.timeIt(func() {
		for _, q := range qs {
			qc := bound.NewQueryCtx(q)
			for i := range tree.Nodes {
				lb, ub := bound.NodeBounds(bound.KARL, kern, qc, &tree.Nodes[i])
				sink += lb + ub
			}
		}
	})
	boundNS := ns / float64(len(qs)*len(tree.Nodes))
	m.set("bound.ns_per_node", boundNS)

	// internal/kernel (+vec): the leaf-scan primitive over the whole matrix.
	rows := kern.RowsEvaluator()
	scans := qs[:min(8, len(qs))]
	ns = m.timeIt(func() {
		for _, q := range scans {
			sink += rows(q, vec.Norm2(q), tree.Points, tree.Norms, tree.Weights, 0, n)
		}
	})
	kernelNS := ns / float64(len(scans)*n)
	m.set("kernel.ns_per_point", kernelNS)

	// internal/core (+pqueue): best-first refinement on that tree.
	ce, err := core.New(tree, kern)
	if err != nil {
		return err
	}
	var work core.Stats
	ns = m.timeIt(func() {
		for _, q := range in.queries {
			_, st, _ := ce.Threshold(q, in.tau)
			work.NodesExpanded += st.NodesExpanded
			work.PointsScanned += st.PointsScanned
			_, st, _ = ce.Approximate(q, w.eps)
			work.NodesExpanded += st.NodesExpanded
			work.PointsScanned += st.PointsScanned
		}
	})
	calls := float64(2 * len(in.queries))
	refineUS := ns / 1e3 / calls
	m.set("core.refine_us", refineUS)
	// Expanding a node scores its two children.
	m.set("core.self_us", refineUS-(2*float64(work.NodesExpanded)*boundNS+float64(work.PointsScanned)*kernelNS)/1e3/calls)
	if w.shape == shapeStatic {
		m.set("core.fastpath_share", float64(ce.FastPathQueries())/calls)
	}

	// karl root: build and persistence of the static engine.
	var opts []karl.Option
	if in.set.Weights != nil {
		opts = append(opts, karl.WithWeights(in.set.Weights))
	}
	var eng *karl.Engine
	ns = m.timeIt(func() { eng, err = karl.Build(in.set.Points, karl.Gaussian(in.set.Gamma), opts...) })
	if err != nil {
		return err
	}
	m.set("karl.build_us_per_point", ns/1e3/float64(n))
	var model bytes.Buffer
	ns = m.timeIt(func() { _, err = eng.WriteTo(&model) })
	if err != nil {
		return err
	}
	m.set("karl.persist_write_us_per_point", ns/1e3/float64(n))
	m.set("karl.persist_bytes_per_point", float64(model.Len())/float64(n))
	ns = m.timeIt(func() { _, err = karl.ReadEngine(bytes.NewReader(model.Bytes())) })
	if err != nil {
		return err
	}
	m.set("karl.persist_load_us_per_point", ns/1e3/float64(n))

	// internal/dualtree, through the engine's batch entry point.
	var queries int
	ns = m.timeIt(func() {
		for _, b := range in.batches {
			_, _, err = eng.BatchApproximateStats(b, w.eps, 0)
			queries += len(b)
		}
	})
	if err != nil {
		return err
	}
	m.set("dualtree.us_per_query", ns/1e3/float64(queries))
	if dt := eng.DualTreeStats(); dt.Queries > 0 {
		m.set("dualtree.node_pairs_per_query", float64(dt.NodePairs)/float64(dt.Queries))
		m.set("dualtree.group_certified_share", float64(dt.GroupCertified)/float64(dt.Queries))
		m.set("dualtree.fallback_share", float64(dt.Fallbacks)/float64(dt.Queries))
	}

	if err := m.dynamic(w, in, eng); err != nil {
		return err
	}
	if err := m.segments(in, mat); err != nil {
		return err
	}
	if err := m.handler(w, in, eng); err != nil {
		return err
	}

	// internal/shard: the routing decision of a two-member hash manifest.
	man, err := shard.NewManifest(shard.Hash, []shard.Member{{ID: 1, Name: "a"}, {ID: 2, Name: "b"}})
	if err != nil {
		return err
	}
	var routed uint64
	ns = m.timeIt(func() {
		for _, p := range in.set.Points {
			routed += man.Route(p)
		}
	})
	m.set("shard.route_ns_per_point", ns/float64(n))
	_ = sink + float64(routed)
	return nil
}

// dynamic times the segmented engine's write path, and what reading
// through it costs next to a static engine over the same points.
func (m *micro) dynamic(w workload, in *inputs, static *karl.Engine) error {
	pts, ws := in.set.Points, in.set.Weights
	if len(pts) > 32768 {
		// Enough for several compaction tiers; the ratio below is then
		// taken against a static engine over the same prefix.
		pts = pts[:32768]
		if ws != nil {
			ws = ws[:32768]
		}
		var opts []karl.Option
		if ws != nil {
			opts = append(opts, karl.WithWeights(ws))
		}
		var err error
		if static, err = karl.Build(pts, karl.Gaussian(in.set.Gamma), opts...); err != nil {
			return err
		}
	}
	d, err := karl.NewDynamic(karl.Gaussian(in.set.Gamma))
	if err != nil {
		return err
	}
	defer d.Close()
	var ids []uint64
	ns := m.timeIt(func() {
		for lo := 0; lo < len(pts) && err == nil; lo += writeChunk {
			hi := min(lo+writeChunk, len(pts))
			var cw []float64
			if ws != nil {
				cw = ws[lo:hi]
			}
			var got []uint64
			got, err = d.InsertBulk(pts[lo:hi], cw)
			ids = append(ids, got...)
		}
	})
	if err != nil {
		return err
	}
	m.set("karl.insert_us_per_point", ns/1e3/float64(len(pts)))
	if err := d.Compact(); err != nil {
		return err
	}

	query := func(e karl.QueryEngine) func() {
		return func() {
			for _, q := range in.queries {
				_, _, _ = e.ThresholdStats(q, in.tau)
				_, _, _ = e.ApproximateStats(q, w.eps)
			}
		}
	}
	dyn, stat := m.timeIt(query(d)), m.timeIt(query(static))
	m.set("karl.dynamic_overhead_ratio", dyn/stat)

	dels := ids[:min(2048, len(ids))]
	ns = m.timeIt(func() {
		for _, id := range dels {
			if err == nil {
				err = d.Delete(id)
			}
		}
	})
	if err != nil {
		return err
	}
	m.set("karl.delete_us", ns/1e3/float64(len(dels)))
	return nil
}

// segments times internal/segment directly: sealing default-size memtable
// runs, and merging four sealed segments into one.
func (m *micro) segments(in *inputs, mat *vec.Matrix) error {
	pol := segment.DefaultPolicy()
	cfg := segment.BuildConfig{Kind: index.KDTree, LeafCap: leafCap}
	// Default-size runs; smaller ones only where the data (the smoke test's)
	// has fewer rows than one merge of those takes.
	size := min(pol.SealSize, mat.Rows/pol.Fanout)
	run := func(i int) segment.MemRun {
		lo := i * size
		r := segment.MemRun{M: &vec.Matrix{Data: mat.Data[lo*mat.Cols : (lo+size)*mat.Cols], Rows: size, Cols: mat.Cols}, N: size}
		if in.set.Weights != nil {
			r.W = in.set.Weights[lo : lo+size]
		}
		return r
	}
	groups := min(8, mat.Rows/(pol.Fanout*size))
	var sealNS, mergeNS float64
	var err error
	for g := 0; g < groups; g++ {
		segs := make([]*segment.Segment, pol.Fanout)
		sealNS += m.timeIt(func() {
			for i := range segs {
				if err == nil {
					segs[i], err = segment.Seal(run(g*pol.Fanout+i), 0, cfg, uint64(i+1))
				}
			}
		})
		mergeNS += m.timeIt(func() {
			if err == nil {
				_, err = segment.Merge(segs, segment.MemRun{}, segment.MergeOpts{}, cfg, 99)
			}
		})
	}
	if err != nil {
		return err
	}
	rows := float64(groups * pol.Fanout * size)
	m.set("segment.seal_us_per_point", sealNS/1e3/rows)
	m.set("segment.merge_us_per_point", mergeNS/1e3/rows)
	return nil
}

// discard is the cheapest possible ResponseWriter.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// handler calls internal/server's handler directly — no socket, no
// net/http server — to count what one request allocates and what a batch
// costs above its engine call.
func (m *micro) handler(w workload, in *inputs, eng *karl.Engine) error {
	srv, err := server.New(eng)
	if err != nil {
		return err
	}
	request := func(path string, body []byte) *http.Request {
		req, _ := http.NewRequest("POST", path, bytes.NewReader(body))
		return req
	}
	out := &discard{h: http.Header{}}
	// The requests are built before the counters are read, so only what
	// the handler allocates is counted.
	n := min(200, len(in.tkaqBody))
	reqs := make([]*http.Request, 0, 3*n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, request(opTKAQ.path(), in.tkaqBody[i]))
	}
	for i := 0; i < n; i++ {
		reqs = append(reqs, request(opTKAQ.path(), in.tkaqBody[i]), request(opEKAQ.path(), in.ekaqBody[i]))
	}
	for _, req := range reqs[:n] { // warm the pool and the decoder's caches
		srv.ServeHTTP(out, req)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs[n:] {
		srv.ServeHTTP(out, req)
	}
	runtime.ReadMemStats(&after)
	m.set("server.allocs_per_req", float64(after.Mallocs-before.Mallocs)/float64(2*n))
	m.set("server.alloc_bytes_per_req", float64(after.TotalAlloc-before.TotalAlloc)/float64(2*n))

	// A batch's handler cost above its engine call is a small difference
	// of two large times: alternate the two and compare medians.
	c := eng.Clone()
	var whole, engine []float64
	for i := 0; i < 5; i++ {
		batch := request(opBatch.path(), in.batchBody[0])
		whole = append(whole, m.timeIt(func() { srv.ServeHTTP(out, batch) }))
		engine = append(engine, m.timeIt(func() { _, _, _ = c.BatchApproximateStats(in.batches[0], w.eps, 0) }))
	}
	m.set("server.batch_self_us_per_query", (median(whole)-median(engine))/1e3/float64(len(in.batches[0])))
	return nil
}
