package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"karl/bench/oracle"
	"karl/internal/dataset"
)

// shape is how a workload's servers are deployed.
type shape int

const (
	shapeStatic  shape = iota // one karl-serve -model
	shapeMutable              // one karl-serve -mutable, seeded by inserts
	shapeCluster              // coordinator over two leaders, one follower each
)

// workload is one traffic mix. Sizes are fixed here, not on the command
// line: the benchmark measures what ships and sweeps nothing.
type workload struct {
	name  string
	why   string
	shape shape

	spec    dataset.Spec
	n       int     // points served (seeded, for the mutable shapes)
	queries int     // distinct single queries, cycled
	eps     float64 // eKAQ relative error
	tauZero bool    // TKAQ τ = 0 (Type III decision) instead of τ = mean F

	hasBatch   bool          // every 8th block is /v1/batch
	writeEvery time.Duration // paced writer period; 0 = read-only
	seedBatch  int           // points per seeding insert; 0 = one request
}

const (
	batchSize   = 256 // queries per /v1/batch request
	batchSets   = 2   // distinct batch bodies, cycled
	writeChunk  = 64  // points inserted, then deleted, per write op
	verifyReads = 500 // TKAQ and eKAQ each, in the verification pass
	verifyBatch = 4   // batches in the verification pass

	multiSeedBatch = 1024 // points per seeding insert of the check.multiseed_* cluster
)

// workloads lists the four traffic mixes in the order the suite runs them.
//
// The point counts are below the paper's (and below what a 40 s run could
// afford): the driver gives every run of every workload about half a minute
// including three set-ups and the oracle, and the oracle alone costs
// n·d·queries. The layers each workload isolates are unchanged by that.
func workloads() []workload {
	home, _ := dataset.ByName("home")
	a9a, _ := dataset.ByName("a9a")
	churn := dataset.Spec{Name: "churn", Dim: 8, Weighting: dataset.TypeI, Clusters: 12, Spread: 0.03}
	return []workload{
		{
			name:  "kde-refine",
			why:   "Type I Gaussian KDE, n=200k d=10, tau=mean eps=0.2: refinement and leaf scans dwarf the wire, so core, bound, kernel and dualtree do the work",
			shape: shapeStatic, spec: home, n: 200000, queries: 600, eps: 0.2,
			hasBatch: true,
		},
		{
			name:  "svm-wire",
			why:   "Type III SVM model, n=11772 d=123, tau=0: root bounds decide in microseconds, so server decode/encode, net/http and 2.4 KB JSON bodies are the whole cost",
			shape: shapeStatic, spec: a9a, n: a9a.NModel, queries: 600, eps: 0.2, tauZero: true,
			hasBatch: true,
		},
		{
			name: "stream-churn",
			why:  "one -mutable server, 6k d=8 points, a paced 64-point insert+delete every 10 ms beside closed-loop reads: memtable, multi-segment forest, tombstones, background seal and merge",
			// 6 000 live points turn over once a second, so the top tier
			// compacts about once a second too and a 24 s run averages some
			// twenty cycles of the latency sawtooth that tombstones draw
			// (query cost climbs with every delete until the segment holding
			// the dead rows is merged). At 40 000 points one cycle took 13 s
			// and a run's median depended on where in it the run began.
			shape: shapeMutable, spec: churn, n: 6000, queries: 400, eps: 0.1,
			hasBatch: true, writeEvery: 10 * time.Millisecond, seedBatch: 1024,
		},
		{
			name:  "cluster-rw",
			why:   "writable coordinator over two leaders with a follower each, 40k d=8 points, a paced write every 100 ms: bound-exchange rounds, JSON shard wire, routed inserts, replication pull",
			shape: shapeCluster, spec: churn, n: 40000, queries: 400, eps: 0.1,
			// The coordinator deletes id by id, one shard round trip each, so
			// a 64-point write op costs ~30 ms here; 100 ms keeps the paced
			// writer well below saturation.
			//
			// Seeded in one request (seedBatch 0): the coordinator freezes
			// its shard weight masses at its first insert and answers eKAQ
			// wrongly ever after when seeded in several (README, finding),
			// and the driver wants workloads on which no operation fails.
			// The per-layer run seeds a second cluster in multiSeedBatch
			// requests and reports what that breaks as check.multiseed_*.
			writeEvery: 100 * time.Millisecond,
		},
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// fixtureSeed generates every workload's points, query pool and batch
// tiles. They are fixtures, as the paper's datasets and query sets are; a
// run's -seed decides the order the pool is cycled in and draws the write
// stream. (With points and queries drawn from -seed too, the spread between
// seeds measured the generator — a mixture with more or fewer queries near
// tau — not the system: TKAQ cost is heavy-tailed in |F − tau|.)
const fixtureSeed = 1

// inputs is everything one run feeds the servers, made from the seed alone.
type inputs struct {
	set     *oracle.Set   // the points served at the start
	queries [][]float64   // distinct single queries
	batches [][][]float64 // distinct batch query sets
	tau     float64
	f       []float64   // oracle F per single query over set
	fBatch  [][]float64 // oracle F per batch query over set (static shapes only)

	// Pre-encoded request bodies: the client's JSON encoding stays off the
	// timed path, and the server parses exactly the floats the oracle used.
	tkaqBody, ekaqBody [][]byte
	batchBody          [][]byte

	order []int      // the run's permutation of the query pool
	rng   *rand.Rand // the run's stream: draws the write schedule's new points
}

// generate builds a workload's inputs. toy shrinks every size for the
// smoke test.
func (w workload) generate(seed int64, toy bool) (*inputs, error) {
	n, nq := w.n, w.queries
	if toy {
		n, nq = min(n, 1500), 24
	}
	ds, err := dataset.GenerateSized(w.spec, n, nq, fixtureSeed)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		set: &oracle.Set{Dim: w.spec.Dim, Gamma: ds.Gamma, Weights: ds.Weights},
		rng: rand.New(rand.NewSource(seed)),
	}
	in.set.Points = rowsOf(ds.Points.Data, ds.Points.Rows, ds.Points.Cols)
	in.queries = rowsOf(ds.Queries.Data, ds.Queries.Rows, ds.Queries.Cols)
	in.order = in.rng.Perm(nq)
	fixture := rand.New(rand.NewSource(fixtureSeed))

	in.f = in.set.FAll(in.queries, 2)
	if !w.tauZero {
		for _, v := range in.f {
			in.tau += v
		}
		in.tau /= float64(len(in.f))
	}
	// Spatially coherent batches: jittered copies of one data point, the
	// heat-map tile the dual-tree executor is built for. Made for every
	// workload (the micro-runs use them); sent only where hasBatch.
	size := batchSize
	if toy {
		size = 64
	}
	for b := 0; b < batchSets; b++ {
		centre := in.set.Points[fixture.Intn(n)]
		qs := make([][]float64, size)
		for i := range qs {
			qs[i] = jitter(fixture, centre, 0.01)
		}
		in.batches = append(in.batches, qs)
	}
	if w.hasBatch && w.shape == shapeStatic {
		for _, qs := range in.batches {
			in.fBatch = append(in.fBatch, in.set.FAll(qs, 2))
		}
	}

	for _, q := range in.queries {
		in.tkaqBody = append(in.tkaqBody, queryBody(q, "tau", in.tau))
		in.ekaqBody = append(in.ekaqBody, queryBody(q, "eps", w.eps))
	}
	for _, qs := range in.batches {
		in.batchBody = append(in.batchBody, batchBody(qs, w.eps))
	}
	return in, nil
}

func rowsOf(data []float64, rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = data[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

func jitter(rng *rand.Rand, p []float64, sd float64) []float64 {
	out := make([]float64, len(p))
	for j, v := range p {
		out[j] = v + rng.NormFloat64()*sd
	}
	return out
}

// newPoint draws one point for the write schedule: a jittered copy of a
// seeded point, so churn keeps the data's distribution.
func (in *inputs) newPoint() []float64 {
	return jitter(in.rng, in.set.Points[in.rng.Intn(len(in.set.Points))], 0.02)
}

func appendVec(b []byte, v []float64) []byte {
	b = append(b, '[')
	for j, x := range v {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, ']')
}

func appendVecs(b []byte, vs [][]float64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendVec(b, v)
	}
	return append(b, ']')
}

func queryBody(q []float64, param string, value float64) []byte {
	b := appendVec([]byte(`{"q":`), q)
	b = append(b, `,"`+param+`":`...)
	b = strconv.AppendFloat(b, value, 'g', -1, 64)
	return append(b, '}')
}

func batchBody(qs [][]float64, eps float64) []byte {
	b := appendVecs([]byte(`{"kind":"approximate","queries":`), qs)
	b = append(b, `,"eps":`...)
	b = strconv.AppendFloat(b, eps, 'g', -1, 64)
	return append(b, '}')
}

func insertBody(points [][]float64, weights []float64) []byte {
	b := appendVecs([]byte(`{"points":`), points)
	if weights != nil {
		b = appendVec(append(b, `,"weights":`...), weights)
	}
	return append(b, '}')
}

func deleteBody(ids []uint64) []byte {
	b := []byte(`{"ids":[`)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, id, 10)
	}
	return append(b, `]}`...)
}
