// Package tuning implements KARL's automatic index tuning (Section III-C):
// the offline scenario, which builds every candidate (index type, leaf
// capacity) pair and measures sampled-query throughput, and the in-situ
// online scenario, which builds a single full-depth kd-tree and selects the
// best simulated tree height by spending a small fraction of the live query
// stream on each candidate level.
package tuning

import (
	"errors"
	"fmt"
	"time"

	"karl/internal/balltree"
	"karl/internal/bound"
	"karl/internal/core"
	"karl/internal/index"
	"karl/internal/kdtree"
	"karl/internal/kernel"
	"karl/internal/vec"
)

// Mode selects the query variant being tuned for.
type Mode int

const (
	// Threshold tunes TKAQ workloads.
	Threshold Mode = iota
	// Approximate tunes eKAQ workloads.
	Approximate
)

// Workload describes the query mix the index must serve.
type Workload struct {
	Kernel kernel.Params
	Method bound.Method
	Mode   Mode
	// Tau is the TKAQ threshold (Threshold mode).
	Tau float64
	// Eps is the eKAQ relative error (Approximate mode).
	Eps float64
}

// run executes one query against an engine; errors only on programmer
// mistakes (dimension mismatch), which tuning treats as fatal.
func (w Workload) run(e *core.Engine, q []float64) error {
	switch w.Mode {
	case Threshold:
		_, _, err := e.Threshold(q, w.Tau)
		return err
	case Approximate:
		_, _, err := e.Approximate(q, w.Eps)
		return err
	default:
		return fmt.Errorf("tuning: unknown mode %d", int(w.Mode))
	}
}

// Candidate is one index configuration in the tuning grid.
type Candidate struct {
	Kind    index.Kind
	LeafCap int
}

// DefaultGrid reproduces the paper's exponential sweep over both supported
// index structures: {kd-tree, ball-tree} × {10,20,40,80,160,320,640}.
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
		return nil, fmt.Errorf("tuning: unknown index kind %d", int(c.Kind))
	}
}

// Result reports one candidate's measured performance.
type Result struct {
	Candidate  Candidate
	Throughput float64 // sampled queries per second
	BuildTime  time.Duration
	Tree       *index.Tree
}

// Offline measures every candidate on the query sample and returns results
// sorted best-first (the paper samples |Q| = 1000 queries). The winning
// Result's Tree is ready to serve queries.
func Offline(points *vec.Matrix, weights []float64, w Workload, sample *vec.Matrix, grid []Candidate) ([]Result, error) {
	if points == nil || points.Rows == 0 {
		return nil, errors.New("tuning: empty point set")
	}
	if sample == nil || sample.Rows == 0 {
		return nil, errors.New("tuning: empty query sample")
	}
	if len(grid) == 0 {
		grid = DefaultGrid()
	}
	results := make([]Result, 0, len(grid))
	for _, cand := range grid {
		start := time.Now()
		tree, err := cand.build(points, weights)
		if err != nil {
			return nil, fmt.Errorf("tuning: building %v/%d: %w", cand.Kind, cand.LeafCap, err)
		}
		buildTime := time.Since(start)
		eng, err := core.New(tree, w.Kernel, core.WithMethod(w.Method))
		if err != nil {
			return nil, err
		}
		qStart := time.Now()
		for i := 0; i < sample.Rows; i++ {
			if err := w.run(eng, sample.Row(i)); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(qStart)
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		results = append(results, Result{
			Candidate:  cand,
			Throughput: float64(sample.Rows) / elapsed.Seconds(),
			BuildTime:  buildTime,
			Tree:       tree,
		})
	}
	// Sort best-first (insertion sort; the grid is tiny).
	for i := 1; i < len(results); i++ {
		for j := i; j > 0 && results[j].Throughput > results[j-1].Throughput; j-- {
			results[j], results[j-1] = results[j-1], results[j]
		}
	}
	return results, nil
}

// OnlineReport describes an in-situ tuning run end to end.
type OnlineReport struct {
	// ChosenDepth is the selected simulated tree height (0 = full tree).
	ChosenDepth int
	// BuildTime, TuneTime and QueryTime decompose the end-to-end cost.
	BuildTime, TuneTime, QueryTime time.Duration
	// QueriesRun counts all queries executed (tuning sample + remainder).
	QueriesRun int
	// Throughput is end-to-end: all queries over build+tune+query time.
	Throughput float64
}

// onlineLeafCap is the leaf capacity of the single kd-tree the in-situ
// scenario builds; small enough that depth truncation spans the useful
// range of effective leaf sizes.
const onlineLeafCap = 8

// Online answers the whole query stream with in-situ tuning (Section
// III-C): it builds one kd-tree, spends sampleFrac of the stream measuring
// candidate depth limits, then serves the remainder with the winner.
// Every query in the stream is answered exactly once.
func Online(points *vec.Matrix, weights []float64, w Workload, queries *vec.Matrix, sampleFrac float64) (OnlineReport, error) {
	var rep OnlineReport
	if points == nil || points.Rows == 0 {
		return rep, errors.New("tuning: empty point set")
	}
	if queries == nil || queries.Rows == 0 {
		return rep, errors.New("tuning: empty query stream")
	}
	if sampleFrac <= 0 || sampleFrac >= 1 {
		sampleFrac = 0.01
	}
	start := time.Now()
	tree, err := kdtree.Build(points, weights, onlineLeafCap)
	if err != nil {
		return rep, err
	}
	rep.BuildTime = time.Since(start)

	// Candidate depths: every level of the tree, root-only excluded (depth
	// 1 is the shallowest useful truncation), full tree included as 0.
	depths := []int{0}
	for d := 1; d < tree.Height; d++ {
		depths = append(depths, d)
	}
	sampleTotal := int(float64(queries.Rows) * sampleFrac)
	if sampleTotal < len(depths) {
		sampleTotal = len(depths)
	}
	if sampleTotal > queries.Rows {
		sampleTotal = queries.Rows
	}
	perDepth := sampleTotal / len(depths)
	if perDepth < 1 {
		perDepth = 1
	}

	tuneStart := time.Now()
	bestDepth, bestRate := 0, -1.0
	qi := 0
	for _, depth := range depths {
		if qi >= sampleTotal {
			break
		}
		eng, err := core.New(tree, w.Kernel, core.WithMethod(w.Method), core.WithMaxDepth(depth))
		if err != nil {
			return rep, err
		}
		groupStart := time.Now()
		count := 0
		for ; count < perDepth && qi < sampleTotal; count++ {
			if err := w.run(eng, queries.Row(qi)); err != nil {
				return rep, err
			}
			qi++
		}
		elapsed := time.Since(groupStart)
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		if rate := float64(count) / elapsed.Seconds(); rate > bestRate {
			bestRate, bestDepth = rate, depth
		}
	}
	rep.TuneTime = time.Since(tuneStart)
	rep.ChosenDepth = bestDepth

	queryStart := time.Now()
	eng, err := core.New(tree, w.Kernel, core.WithMethod(w.Method), core.WithMaxDepth(bestDepth))
	if err != nil {
		return rep, err
	}
	for ; qi < queries.Rows; qi++ {
		if err := w.run(eng, queries.Row(qi)); err != nil {
			return rep, err
		}
	}
	rep.QueryTime = time.Since(queryStart)
	rep.QueriesRun = queries.Rows
	total := rep.BuildTime + rep.TuneTime + rep.QueryTime
	if total <= 0 {
		total = time.Nanosecond
	}
	rep.Throughput = float64(queries.Rows) / total.Seconds()
	return rep, nil
}
