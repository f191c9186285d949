// Package core implements KARL's query engine — the paper's primary
// contribution. It evaluates threshold kernel aggregation queries (TKAQ)
// and approximate kernel aggregation queries (eKAQ) by best-first
// refinement over hierarchical indexes (the framework of Section II-B,
// Table V), parameterized by the bounding method: the state-of-the-art
// min/max-distance bounds or KARL's linear bound functions (Section III).
//
// Since the segmented-engine refactor the refinement loop lives in Forest,
// which refines over an ORDERED SET of immutable index segments sharing
// one global priority queue (the executor under karl.Engine's
// LSM-style manifest). Engine is the single-segment specialization: one
// tree, the same loop, the same zero-allocation steady state.
//
// All three weighting types are supported transparently: node aggregates
// carry separate positive and negative weight classes, and bound.NodeBounds
// performs the P⁺/P⁻ decomposition of Section IV-A, so a 2-class SVM model
// (Type III) runs through the same loop as kernel density estimation
// (Type I).
//
// The hot path is allocation-free in steady state: the executor re-arms an
// embedded bound.QueryCtx per query, the priority queue keeps its storage
// across Reset, termination tests are value-typed conditions rather than
// closures, and leaves are evaluated by a kernel evaluator cached at
// construction (one dispatch per engine, not per point) over each tree's
// leaf-contiguous rows.
package core

import (
	"fmt"

	"karl/internal/bound"
	"karl/internal/index"
	"karl/internal/kernel"
)

// Engine answers kernel aggregation queries over one indexed point set: a
// single-segment Forest. Engines are cheap to construct; the expensive
// state (the index) is shared. An Engine is not safe for concurrent use —
// clone one per goroutine (the clones share the tree).
type Engine struct {
	f Forest
	// one is the fixed single-segment set the embedded forest runs over,
	// stored inline so construction needs no per-engine tree slice.
	one [1]*index.Tree
}

// Option configures an Engine.
type Option func(*Engine)

// WithMethod selects the bounding technique (default bound.KARL).
func WithMethod(m bound.Method) Option { return func(e *Engine) { e.f.method = m } }

// WithMaxDepth truncates refinement at the given depth (0 = unlimited),
// simulating the top-i-level tree of the in-situ scenario.
func WithMaxDepth(depth int) Option { return func(e *Engine) { e.f.maxDepth = depth } }

// New creates an engine over a built index.
func New(tree *index.Tree, kern kernel.Params, opts ...Option) (*Engine, error) {
	if tree == nil || tree.NodeCount() == 0 {
		return nil, errNoSegments
	}
	if err := kern.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{f: Forest{kern: kern, method: bound.KARL, rows: kern.RowsEvaluator()}}
	for _, opt := range opts {
		opt(e)
	}
	e.one[0] = tree
	if err := e.f.SetTrees(e.one[:], nil); err != nil {
		return nil, err
	}
	return e, nil
}

// Clone returns an engine sharing the same tree and configuration but with
// independent scratch state, for use from another goroutine.
func (e *Engine) Clone() *Engine {
	c := &Engine{f: Forest{kern: e.f.kern, method: e.f.method, maxDepth: e.f.maxDepth, rows: e.f.rows}}
	c.one = e.one
	// The tree is already validated; SetTrees only re-derives dims.
	_ = c.f.SetTrees(c.one[:], nil)
	return c
}

// Tree exposes the underlying index (read-only by convention).
func (e *Engine) Tree() *index.Tree { return e.one[0] }

// Kernel returns the engine's kernel parameters.
func (e *Engine) Kernel() kernel.Params { return e.f.kern }

// Method returns the engine's bounding method.
func (e *Engine) Method() bound.Method { return e.f.method }

// FastPathQueries returns the number of queries served by the
// single-segment fast path (for a single-tree engine, every
// Threshold/Approximate call).
func (e *Engine) FastPathQueries() int64 { return e.f.fastHits }

// Stats reports the work one query performed.
type Stats struct {
	// Iterations is the number of priority-queue pops (Table V steps).
	Iterations int
	// NodesExpanded counts internal nodes whose children were scored.
	NodesExpanded int
	// PointsScanned counts points evaluated exactly at leaves.
	PointsScanned int
	// LB and UB are the final global bounds when the query terminated.
	LB, UB float64
}

// checkQuery validates the query point dimensionality.
func (e *Engine) checkQuery(q []float64) error {
	if len(q) != e.one[0].Dims() {
		return fmt.Errorf("core: query has %d dims, index has %d", len(q), e.one[0].Dims())
	}
	return nil
}

// Exact computes F_P(q) exactly through the index storage via the same
// contiguous range primitive leaf refinement uses (used for verification
// and as the refinement fallback).
func (e *Engine) Exact(q []float64) (float64, error) {
	if err := e.checkQuery(q); err != nil {
		return 0, err
	}
	v, _, err := e.f.Exact(q, 0)
	return v, err
}

// ExactStats is Exact plus the scan statistics.
func (e *Engine) ExactStats(q []float64) (float64, Stats, error) {
	if err := e.checkQuery(q); err != nil {
		return 0, Stats{}, err
	}
	return e.f.Exact(q, 0)
}

// Threshold answers the TKAQ: whether F_P(q) > tau (Problem 1).
func (e *Engine) Threshold(q []float64, tau float64) (bool, Stats, error) {
	return e.f.Threshold(q, tau, 0)
}

// Approximate answers the eKAQ (Problem 2): a value within relative error
// eps of F_P(q). Refinement stops on CondApprox — the midpoint certified
// within eps of every value the bounds admit, at any sign of the weights —
// so the answer may spend the whole eps (the paper's ub ≤ (1+ε)·lb returns
// a midpoint good to ε/2); when it never triggers the bounds are exact.
func (e *Engine) Approximate(q []float64, eps float64) (float64, Stats, error) {
	return e.f.Approximate(q, eps, 0)
}

// TracePoint is one refinement step of a bound trace.
type TracePoint struct {
	Iteration int
	LB, UB    float64
}

// TraceThreshold records the global lower/upper bounds after every
// refinement iteration of a TKAQ until it terminates (Figure 6 of the
// paper). maxIter caps the trace length (0 = unlimited).
func (e *Engine) TraceThreshold(q []float64, tau float64, maxIter int) ([]TracePoint, error) {
	return e.f.TraceThreshold(q, tau, 0, maxIter)
}
