package experiments

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"karl/internal/balltree"
	"karl/internal/bound"
	"karl/internal/core"
	"karl/internal/dataset"
	"karl/internal/index"
	"karl/internal/kdtree"
	"karl/internal/kernel"
	"karl/internal/vec"
)

// Workload is one query mix: an eKAQ at relative error Eps when Eps > 0,
// otherwise a TKAQ at threshold Tau.
type Workload struct {
	Kernel kernel.Params
	Method bound.Method
	Tau    float64
	Eps    float64
}

// with returns w under bounding method m.
func (w Workload) with(m bound.Method) Workload {
	w.Method = m
	return w
}

// run returns w's per-query closure over an engine on tree that refines at
// most depth levels (0 = the whole tree).
func (w Workload) run(tree *index.Tree, depth int) (func(q []float64) error, error) {
	eng, err := core.New(tree, w.Kernel, core.WithMethod(w.Method), core.WithMaxDepth(depth))
	if err != nil {
		return nil, err
	}
	if w.Eps > 0 {
		return func(q []float64) error { _, _, err := eng.Approximate(q, w.Eps); return err }, nil
	}
	return func(q []float64) error { _, _, err := eng.Threshold(q, w.Tau); return err }, nil
}

// Candidate is one index configuration of the tuning grid.
type Candidate struct {
	Kind    index.Kind
	LeafCap int
}

// String names c as kind/leaf capacity, as Table VIII prints its pick.
func (c Candidate) String() string { return fmt.Sprintf("%v/%d", c.Kind, c.LeafCap) }

// DefaultGrid is the paper's exponential sweep over both index kinds:
// {kd-tree, ball-tree} × {10,20,40,80,160,320,640}.
func DefaultGrid() []Candidate {
	caps := []int{10, 20, 40, 80, 160, 320, 640}
	grid := make([]Candidate, 0, 2*len(caps))
	for _, kind := range []index.Kind{index.KDTree, index.BallTree} {
		for _, lc := range caps {
			grid = append(grid, Candidate{Kind: kind, LeafCap: lc})
		}
	}
	return grid
}

// build constructs the candidate's index.
func (c Candidate) build(points *vec.Matrix, weights []float64) (*index.Tree, error) {
	switch c.Kind {
	case index.KDTree:
		return kdtree.Build(points, weights, c.LeafCap)
	case index.BallTree:
		return balltree.Build(points, weights, c.LeafCap)
	default:
		return nil, fmt.Errorf("experiments: unknown index kind %d", int(c.Kind))
	}
}

// Result is one candidate's measured throughput on a query sample.
type Result struct {
	Candidate  Candidate
	Throughput float64 // sampled queries per second
	BuildTime  time.Duration
	Tree       *index.Tree
}

// checkTuneInput refuses an empty point set or query set.
func checkTuneInput(ds *dataset.Dataset, queries *vec.Matrix) error {
	if ds.Points == nil || ds.Points.Rows == 0 {
		return errors.New("experiments: empty point set")
	}
	if queries == nil || queries.Rows == 0 {
		return errors.New("experiments: empty query sample")
	}
	return nil
}

// Offline is the offline tuner: it builds every candidate of c.Grid over
// ds, times w on sample through c.throughput (the sample replayed until
// MinMeasure has passed), and returns the results best first. The winner's
// Tree is ready to serve.
func (c Config) Offline(ds *dataset.Dataset, w Workload, sample *vec.Matrix) ([]Result, error) {
	c = c.withDefaults()
	if err := checkTuneInput(ds, sample); err != nil {
		return nil, err
	}
	results := make([]Result, 0, len(c.Grid))
	for _, cand := range c.Grid {
		start := time.Now()
		tree, err := cand.build(ds.Points, ds.Weights)
		if err != nil {
			return nil, fmt.Errorf("experiments: building %v: %w", cand, err)
		}
		r := Result{Candidate: cand, BuildTime: time.Since(start), Tree: tree}
		run, err := w.run(tree, 0)
		if err != nil {
			return nil, err
		}
		if r.Throughput, err = c.throughput(sample, run); err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Throughput > results[j].Throughput })
	return results, nil
}

// OnlineReport describes an in-situ run end to end.
type OnlineReport struct {
	// ChosenDepth is the selected simulated tree height (0 = full tree).
	ChosenDepth int
	// QueriesRun counts the queries answered, tuning sample included.
	QueriesRun int
	// Throughput is end to end: every query over build, tune and query time.
	Throughput float64
}

// onlineLeafCap is the leaf capacity of the one kd-tree the in-situ
// scenario builds: small enough that depth truncation spans the useful
// range of effective leaf sizes.
const onlineLeafCap = 8

// Online is the in-situ tuner: it builds one kd-tree over ds, answers the
// first sampleFrac of ds.Queries split evenly over the candidate depths,
// and answers the rest at the fastest one. Every query is answered exactly
// once, so unlike Offline it makes a single timed pass.
func Online(ds *dataset.Dataset, w Workload, sampleFrac float64) (OnlineReport, error) {
	var rep OnlineReport
	if err := checkTuneInput(ds, ds.Queries); err != nil {
		return rep, err
	}
	if sampleFrac <= 0 || sampleFrac >= 1 {
		sampleFrac = 0.01
	}
	start := time.Now()
	tree, err := kdtree.Build(ds.Points, ds.Weights, onlineLeafCap)
	if err != nil {
		return rep, err
	}
	// answer runs queries [from, to) at depth and returns their rate.
	answer := func(depth, from, to int) (float64, error) {
		run, err := w.run(tree, depth)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := from; i < to; i++ {
			if err := run(ds.Queries.Row(i)); err != nil {
				return 0, err
			}
			rep.QueriesRun++
		}
		return float64(to-from) / max(time.Since(t0).Seconds(), 1e-9), nil
	}

	// Candidate depths: the full tree (0) and every truncation from depth 1
	// (the shallowest useful one) down.
	depths := []int{0}
	for d := 1; d < tree.Height; d++ {
		depths = append(depths, d)
	}
	n := ds.Queries.Rows
	sampleTotal := min(max(int(float64(n)*sampleFrac), len(depths)), n)
	perDepth := max(sampleTotal/len(depths), 1)
	bestRate, qi := -1.0, 0
	for _, depth := range depths {
		if qi >= sampleTotal {
			break
		}
		end := min(qi+perDepth, sampleTotal)
		rate, err := answer(depth, qi, end)
		if err != nil {
			return rep, err
		}
		if rate > bestRate {
			bestRate, rep.ChosenDepth = rate, depth
		}
		qi = end
	}
	if _, err := answer(rep.ChosenDepth, qi, n); err != nil {
		return rep, err
	}
	rep.Throughput = float64(n) / max(time.Since(start).Seconds(), 1e-9)
	return rep, nil
}
