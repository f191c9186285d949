package core

import (
	"errors"
	"fmt"
	"math"

	"karl/internal/bound"
	"karl/internal/index"
	"karl/internal/kernel"
	"karl/internal/pqueue"
	"karl/internal/vec"
)

// Forest is the segmented query executor: best-first refinement over an
// ordered set of immutable index segments that share ONE global priority
// queue. Every segment's root is scored into the global bounds, and each
// iteration pops the widest bound gap across all segments, so the pruning
// budget of a query flows to whichever segment has the most slack instead
// of each segment getting a private ε/τ split. A single-segment Forest is
// exactly the classic engine loop; Engine is a thin wrapper over it.
//
// A Forest additionally accepts a per-query exact base term: the caller's
// already-exact contribution (e.g. a dynamic engine's memtable scan), which
// is folded into the global lower AND upper bound before refinement starts.
// Termination criteria therefore hold relative to the true total — this is
// what repairs the mixed-sign ε guarantee for buffered inserts.
//
// Like Engine, a Forest is not safe for concurrent use: it owns per-query
// scratch (the queue, the query context, per-segment statistics). The
// segment set may be swapped between queries with SetTrees; the steady
// state (unchanged segment set) performs no allocation per query.
type Forest struct {
	kern     kernel.Params
	method   bound.Method
	maxDepth int

	// rows is the dispatch-free leaf evaluator specialized for kern.
	rows kernel.RowsFunc

	trees []*index.Tree
	dims  int

	// scales, when non-nil, multiplies every contribution of segment i —
	// leaf evaluations and node bounds alike — by scales[i]. This is the
	// lazy exponential-decay hook: a decayed weight set w_i·λ has node
	// aggregates (W,a,b)·λ, so one positive scalar per segment rescales
	// the whole tree without touching it. nil (the default) is the
	// dispatch-free fast path.
	scales []float64

	// fastHits counts queries served by the single-segment fast path
	// (refineOne) — observability for tests and benchmarks.
	fastHits int64

	// Per-query scratch, reused across queries.
	qc       bound.QueryCtx
	queue    pqueue.Queue[fentry]
	fastQ    pqueue.Queue[sentry]
	segStats []Stats
}

// fentry is a queued node position — segment plus node within it —
// together with the bound contribution it currently adds to the global
// bounds, so the pop path need not recompute them.
type fentry struct {
	ti     int32
	ni     int32
	lb, ub float64
}

// sentry is the single-segment fast-path queue entry: fentry without the
// segment index, so the restored monolithic loop carries no per-pop
// segment indirection.
type sentry struct {
	ni     int32
	lb, ub float64
}

// NewForest creates a segmented executor for the given kernel and bounding
// method with no segments attached; call SetTrees before querying.
func NewForest(kern kernel.Params, method bound.Method) (*Forest, error) {
	if err := kern.Validate(); err != nil {
		return nil, err
	}
	return &Forest{kern: kern, method: method, rows: kern.RowsEvaluator()}, nil
}

// SetTrees installs the ordered segment set the next queries run over. The
// slice is retained (not copied): callers hand over an immutable snapshot.
// An empty set is valid — queries then return just their base term. When
// the segment count is unchanged the per-segment scratch is reused.
func (f *Forest) SetTrees(trees []*index.Tree) error {
	dims := 0
	for i, t := range trees {
		if t == nil || t.NodeCount() == 0 {
			return fmt.Errorf("core: nil or empty index at segment %d", i)
		}
		if i == 0 {
			dims = t.Dims()
		} else if t.Dims() != dims {
			return fmt.Errorf("core: segment %d has %d dims, segment 0 has %d", i, t.Dims(), dims)
		}
	}
	f.trees = trees
	f.dims = dims
	if f.scales != nil && len(f.scales) != len(trees) {
		// Stale scale set from a previous segment snapshot; the caller
		// re-installs fresh scales per query when decay is on.
		f.scales = nil
	}
	if cap(f.segStats) < len(trees) {
		f.segStats = make([]Stats, len(trees))
	} else {
		f.segStats = f.segStats[:len(trees)]
	}
	return nil
}

// Trees returns the current segment set (read-only by convention).
func (f *Forest) Trees() []*index.Tree { return f.trees }

// SetScales installs per-segment positive multipliers on every bound and
// leaf evaluation, index-aligned with the segment set — the decayed-weight
// view λ_i·F_i(q). The slice is retained, not copied, and is typically
// refilled by the caller before every query (the scale of a decaying
// segment changes with the clock). nil restores the unscaled fast path.
// Scales must be positive: a negative scale would flip the lower/upper
// bound order.
func (f *Forest) SetScales(s []float64) error {
	if s != nil && len(s) != len(f.trees) {
		return fmt.Errorf("core: %d scales for %d segments", len(s), len(f.trees))
	}
	f.scales = s
	return nil
}

// Kernel returns the forest's kernel parameters.
func (f *Forest) Kernel() kernel.Params { return f.kern }

// Method returns the forest's bounding method.
func (f *Forest) Method() bound.Method { return f.method }

// SegmentStats returns the per-segment work statistics of the most recent
// query, index-aligned with the segment set. The slice is the forest's own
// scratch: it is valid until the next query and must not be retained.
func (f *Forest) SegmentStats() []Stats { return f.segStats }

// Len returns the total number of points across all segments.
func (f *Forest) Len() int {
	n := 0
	for _, t := range f.trees {
		n += t.Len()
	}
	return n
}

// checkQuery validates the query point dimensionality. A forest with no
// segments accepts any dimensionality (the base term is the whole answer).
func (f *Forest) checkQuery(q []float64) error {
	if len(f.trees) > 0 && len(q) != f.dims {
		return fmt.Errorf("core: query has %d dims, index has %d", len(q), f.dims)
	}
	return nil
}

// atFrontier reports whether refinement must stop at this node and evaluate
// it exactly: true for leaves and for nodes at the simulated depth limit.
func (f *Forest) atFrontier(n *index.Node) bool {
	return n.IsLeaf() || (f.maxDepth > 0 && int(n.Depth) >= f.maxDepth)
}

// frontierEval evaluates a frontier node of tree t exactly and returns its
// contribution.
func (f *Forest) frontierEval(t *index.Tree, n *index.Node, st *Stats) float64 {
	st.PointsScanned += n.Count()
	return f.rows(f.qc.Q, f.qc.Norm2, t.Points, t.Norms, t.Weights, int(n.Start), int(n.End))
}

// score bounds the node ni of segment ti, queueing it for refinement
// unless it is a frontier node, in which case it is evaluated exactly.
func (f *Forest) score(ti, ni int32, st *Stats) (lb, ub float64) {
	t := f.trees[ti]
	n := t.Node(ni)
	frontier := f.atFrontier(n)
	if frontier {
		lb = f.frontierEval(t, n, st)
		ub = lb
	} else {
		lb, ub = bound.NodeBounds(f.method, f.kern, &f.qc, n)
	}
	if f.scales != nil {
		// Positive scale: preserves bound order and exactness of the
		// lb ≤ λ·F_node ≤ ub sandwich.
		s := f.scales[ti]
		lb *= s
		ub *= s
	}
	if !frontier {
		f.queue.Push(fentry{ti, ni, lb, ub}, ub-lb)
	}
	return lb, ub
}

// condMode selects a termination rule.
type condMode int

const (
	condThreshold condMode = iota
	condApprox
)

// termCond is a value-typed termination test — the closure-free equivalent
// of the paper's per-variant stopping rules, kept as plain data so probing
// it costs no allocation.
type termCond struct {
	mode     condMode
	tau, eps float64
	maxIter  int // >0 caps the number of probes (bound traces)
	probes   int
}

// done reports whether refinement may stop at the current global bounds.
func (c *termCond) done(lb, ub float64) bool {
	if c.maxIter > 0 {
		c.probes++
		if c.probes >= c.maxIter {
			return true
		}
	}
	if c.mode == condThreshold {
		return CondThreshold(lb, ub, c.tau)
	}
	return CondApprox(lb, ub, c.eps)
}

// CondThreshold is the TKAQ stopping rule: the bounds resolve the verdict
// as soon as the whole [lb, ub] interval falls on one side of tau. Exported
// so alternative executors (the dual-tree batch engine) certify against the
// exact same contract as sequential refinement.
func CondThreshold(lb, ub, tau float64) bool {
	return lb > tau || ub <= tau
}

// CondApprox is the ε-approximation stopping rule shared by every executor,
// the coordinator included: the midpoint of [lb, ub] is within ε·|F| of
// every F the interval admits, at any sign, and never on NaN. The error of
// the midpoint is at most (ub−lb)/2 and |F| is at least |mid| − (ub−lb)/2,
// so the test is (ub−lb)/2 ≤ ε·(|mid| − (ub−lb)/2); for lb ≥ 0 that reads
// ub ≤ (1+2ε)·lb. It is necessary as well as sufficient — an answer may
// spend the whole ε — but for lb = −ub at ε ≥ 1, which it refines although
// a midpoint of zero would pass. An infinite gap certifies nothing, though
// ∞ ≤ ∞ holds.
func CondApprox(lb, ub, eps float64) bool {
	gap, mid := ub-lb, math.Abs(lb+ub)/2
	return gap*(1+eps) <= 2*eps*mid && !math.IsInf(gap, 1)
}

// refine runs the best-first loop over all segments until cond is
// satisfied or the bounds are exact. base is an exact contribution folded
// into both global bounds before the first termination probe. It returns
// the final global bounds. cond is probed after initialization and after
// every iteration.
func (f *Forest) refine(q []float64, base float64, cond *termCond, trace func(lb, ub float64)) (lb, ub float64) {
	f.qc.Set(q)
	for i := range f.segStats {
		f.segStats[i] = Stats{}
	}
	// Single-segment fast path: one tree, no decay scales, no exact base
	// term, no trace — the monolithic loop.
	if len(f.trees) == 1 && f.scales == nil && base == 0 && trace == nil {
		return f.refineOne(cond)
	}
	f.queue.Reset()
	lb, ub = base, base
	for ti := range f.trees {
		l, u := f.score(int32(ti), 0, &f.segStats[ti])
		lb += l
		ub += u
	}
	if trace != nil {
		trace(lb, ub)
	}
	for !cond.done(lb, ub) {
		en, _, ok := f.queue.Pop()
		if !ok {
			return lb, ub // bounds are exact
		}
		st := &f.segStats[en.ti]
		st.Iterations++
		st.NodesExpanded++
		// Replace this node's contribution with its children's.
		t := f.trees[en.ti]
		right := t.Node(en.ni).Right
		llb, lub := f.score(en.ti, t.Left(en.ni), st)
		rlb, rub := f.score(en.ti, right, st)
		lb += llb + rlb - en.lb
		ub += lub + rub - en.ub
		if trace != nil {
			trace(lb, ub)
		}
	}
	return lb, ub
}

// scoreOne is score specialized for the single-segment fast path: no
// segment indirection, no scale branch, entries go to the lighter sentry
// queue.
func (f *Forest) scoreOne(t *index.Tree, ni int32, st *Stats) (lb, ub float64) {
	n := t.Node(ni)
	if f.atFrontier(n) {
		v := f.frontierEval(t, n, st)
		return v, v
	}
	lb, ub = bound.NodeBounds(f.method, f.kern, &f.qc, n)
	f.fastQ.Push(sentry{ni, lb, ub}, ub-lb)
	return lb, ub
}

// refineOne is the single-segment refinement loop — the PR-3 zero-alloc
// engine loop, dispatched to by refine when a Forest holds exactly one
// tree and no memtable base, tombstones or decay scales apply. The only
// differences from the generic loop are the slimmer queue entry (no
// segment index) and the absence of the scale and base-term branches.
func (f *Forest) refineOne(cond *termCond) (lb, ub float64) {
	f.fastHits++
	t := f.trees[0]
	st := &f.segStats[0]
	f.fastQ.Reset()
	lb, ub = f.scoreOne(t, 0, st)
	for !cond.done(lb, ub) {
		en, _, ok := f.fastQ.Pop()
		if !ok {
			return lb, ub // bounds are exact
		}
		st.Iterations++
		st.NodesExpanded++
		right := t.Node(en.ni).Right
		llb, lub := f.scoreOne(t, t.Left(en.ni), st)
		rlb, rub := f.scoreOne(t, right, st)
		lb += llb + rlb - en.lb
		ub += lub + rub - en.ub
	}
	return lb, ub
}

// FastPathQueries returns the number of queries this forest served through
// the single-segment fast path since construction.
func (f *Forest) FastPathQueries() int64 { return f.fastHits }

// total sums the per-segment work of the last query into one Stats (the
// LB/UB fields are left for the caller, which knows the global bounds).
func (f *Forest) total() Stats {
	var t Stats
	for i := range f.segStats {
		t.Iterations += f.segStats[i].Iterations
		t.NodesExpanded += f.segStats[i].NodesExpanded
		t.PointsScanned += f.segStats[i].PointsScanned
	}
	return t
}

// Exact computes the exact aggregate over every segment plus the base term
// through the same contiguous range primitive leaf refinement uses.
func (f *Forest) Exact(q []float64, base float64) (float64, Stats, error) {
	var stats Stats
	if err := f.checkQuery(q); err != nil {
		return 0, stats, err
	}
	v := base
	n2 := vec.Norm2(q)
	for i, t := range f.trees {
		seg := f.rows(q, n2, t.Points, t.Norms, t.Weights, 0, t.Len())
		if f.scales != nil {
			seg *= f.scales[i]
		}
		v += seg
		stats.PointsScanned += t.Len()
	}
	stats.LB, stats.UB = v, v
	return v, stats, nil
}

// Threshold answers the TKAQ over all segments plus the base term: whether
// base + Σ_seg F_seg(q) > tau.
func (f *Forest) Threshold(q []float64, tau, base float64) (bool, Stats, error) {
	if err := f.checkQuery(q); err != nil {
		return false, Stats{}, err
	}
	cond := termCond{mode: condThreshold, tau: tau}
	lb, ub := f.refine(q, base, &cond, nil)
	stats := f.total()
	stats.LB, stats.UB = lb, ub
	return lb > tau, stats, nil
}

// Approximate answers the eKAQ over all segments plus the base term: a
// value within relative error eps of the TOTAL base + Σ_seg F_seg(q). The
// base term is exact and tightens both global bounds, so the guarantee is
// relative to the true total even when base and the indexed part nearly
// cancel (CondApprox's (ub−lb)(1+ε) ≤ 2ε·|mid| then forces refinement
// toward exactness).
func (f *Forest) Approximate(q []float64, eps, base float64) (float64, Stats, error) {
	if err := f.checkQuery(q); err != nil {
		return 0, Stats{}, err
	}
	if eps <= 0 {
		return 0, Stats{}, fmt.Errorf("core: eps must be positive, got %v", eps)
	}
	cond := termCond{mode: condApprox, eps: eps}
	lb, ub := f.refine(q, base, &cond, nil)
	stats := f.total()
	stats.LB, stats.UB = lb, ub
	return (lb + ub) / 2, stats, nil
}

// TraceThreshold records the global lower/upper bounds after every
// refinement iteration of a TKAQ until it terminates. maxIter caps the
// trace length (0 = unlimited).
func (f *Forest) TraceThreshold(q []float64, tau, base float64, maxIter int) ([]TracePoint, error) {
	if err := f.checkQuery(q); err != nil {
		return nil, err
	}
	var pts []TracePoint
	cond := termCond{mode: condThreshold, tau: tau, maxIter: maxIter}
	f.refine(q, base, &cond, func(lb, ub float64) {
		pts = append(pts, TracePoint{Iteration: len(pts), LB: lb, UB: ub})
	})
	return pts, nil
}

// errNoSegments is returned by Engine construction over a nil tree.
var errNoSegments = errors.New("core: nil or empty index")
