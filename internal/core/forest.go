package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

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
// Segments that are kd-trees of one shape — built on one kd skeleton
// (kdtree.BuildOn) — refine as ONE tree: the queue unit is a group, whose
// node i is bounded through index.Union (the members' node-i aggregates
// summed, their boxes joined; a valid bound for any trees of one shape) and
// whose frontier node scans every member's rows of that cell in one pass.
// A manifest of k segments cut on one skeleton thus costs about what one
// index over their union does, instead of k trees' worth of nodes and
// half-empty leaves.
//
// A Forest additionally accepts a per-query exact base term: the caller's
// already-exact contribution (e.g. a dynamic engine's memtable scan), which
// is folded into the global lower AND upper bound before refinement starts.
// Termination criteria therefore hold relative to the true total — this is
// what repairs the mixed-sign ε guarantee for buffered inserts.
//
// Like Engine, a Forest is not safe for concurrent use: it owns per-query
// scratch (the queue, the query context, the statistics). The segment set
// may be swapped between queries (SetTrees, SetSegments); its groups are
// formed once per set, at its first refinement, and shared by every forest
// armed on it, so the steady state (unchanged segment set) performs no
// allocation per query.
type Forest struct {
	kern     kernel.Params
	method   bound.Method
	maxDepth int

	// rows is the dispatch-free leaf evaluator specialized for kern;
	// scanSpans its multi-segment form, set when a group first needs it.
	rows      kernel.RowsFunc
	scanSpans kernel.SpansFunc

	set   *SegmentSet
	trees []*index.Tree // set.trees
	dims  int

	// groups is the set's queue units and spans this forest's leaf-scan
	// scratch for them, one kernel.Span per member of each multi-member
	// group; both nil until the set's first refinement here.
	groups []group
	spans  [][]kernel.Span

	// scales, when non-nil, multiplies every contribution of segment i —
	// leaf evaluations and node bounds alike — by scales[i]. This is the
	// lazy exponential-decay hook: a decayed weight set w_i·λ has node
	// aggregates (W,a,b)·λ, so one positive scalar per segment rescales
	// the whole tree without touching it; a group applies its reference
	// member's scale, the others' ratios to it being folded in through rel.
	// nil (the default) is the dispatch-free fast path.
	scales []float64

	// fastHits counts queries served by the single-segment fast path
	// (refineOne) — observability for tests and benchmarks.
	fastHits int64

	// Per-query scratch, reused across queries.
	qc    bound.QueryCtx
	queue pqueue.Queue[fentry]
	fastQ pqueue.Queue[sentry]
	st    Stats
}

// SegmentSet is an ordered segment set grouped into the forest's queue
// units: every kd-tree joins the first group whose trees have its shape,
// any other tree is a group of its own. A set is read-only once made, so
// every Forest armed on it — every clone of an engine — shares its groups,
// union records included; they are formed at the first refinement.
type SegmentSet struct {
	trees []*index.Tree
	rel   []float64
	dims  int

	once   sync.Once
	groups []group
}

// group is one queue unit: the segments of one shape, refined as one tree.
type group struct {
	// t is the tree whose node records the bounds read: the lone member
	// itself, or the members' index.Union.
	t       *index.Tree
	members []*index.Tree
	// scales is each member's weight relative to the group's scale, the
	// per-query scale of segment seg.
	scales []float64
	seg    int
}

// NewSegmentSet validates an ordered segment set. The slices are retained
// (not copied): callers hand over an immutable snapshot. An empty set is
// valid — queries then return just their base term. rel, when non-nil,
// gives every segment a positive weight multiplier relative to the others,
// constant for as long as the set is installed: under decay, segment i's
// per-query scale divided by segment j's must equal rel[i]/rel[j], which is
// what lets a group fold its members' ratios into one union and apply a
// single scale per query.
func NewSegmentSet(trees []*index.Tree, rel []float64) (*SegmentSet, error) {
	dims := 0
	for i, t := range trees {
		if t == nil || t.NodeCount() == 0 {
			return nil, fmt.Errorf("core: nil or empty index at segment %d", i)
		}
		if i == 0 {
			dims = t.Dims()
		} else if t.Dims() != dims {
			return nil, fmt.Errorf("core: segment %d has %d dims, segment 0 has %d", i, t.Dims(), dims)
		}
	}
	if rel != nil && len(rel) != len(trees) {
		return nil, fmt.Errorf("core: %d relative scales for %d segments", len(rel), len(trees))
	}
	return &SegmentSet{trees: trees, rel: rel, dims: dims}, nil
}

// Groups returns how many queue units the set refines as.
func (s *SegmentSet) Groups() int { return len(s.form()) }

// form groups the set once. A group's reference member — whose per-query
// scale it applies — is the one with the largest rel, so the folded ratios
// are at most 1.
func (s *SegmentSet) form() []group {
	s.once.Do(func() {
		var segs [][]int
		for i, t := range s.trees {
			gi := -1
			if t.Kind == index.KDTree {
				gi = slices.IndexFunc(s.groups, func(g group) bool {
					return g.t.Kind == index.KDTree && g.t.SameShape(t)
				})
			}
			if gi < 0 {
				s.groups = append(s.groups, group{t: t, members: []*index.Tree{t}, seg: i})
				segs = append(segs, []int{i})
				continue
			}
			g := &s.groups[gi]
			g.members = append(g.members, t)
			segs[gi] = append(segs[gi], i)
			if s.rel != nil && s.rel[i] > s.rel[g.seg] {
				g.seg = i
			}
		}
		for gi := range s.groups {
			g := &s.groups[gi]
			g.scales = make([]float64, len(g.members))
			for j, i := range segs[gi] {
				g.scales[j] = 1
				if s.rel != nil {
					g.scales[j] = s.rel[i] / s.rel[g.seg]
				}
			}
			if len(g.members) > 1 {
				g.t = index.Union(g.members, g.scales)
			}
		}
	})
	return s.groups
}

// fentry is a queued node position — group plus node within it —
// together with the bound contribution it currently adds to the global
// bounds, so the pop path need not recompute them.
type fentry struct {
	gi     int32
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

// SetTrees installs the ordered segment set the next queries run over:
// SetSegments of NewSegmentSet(trees, rel).
func (f *Forest) SetTrees(trees []*index.Tree, rel []float64) error {
	set, err := NewSegmentSet(trees, rel)
	if err != nil {
		return err
	}
	f.SetSegments(set)
	return nil
}

// SetSegments installs a segment set the next queries run over.
func (f *Forest) SetSegments(set *SegmentSet) {
	f.set, f.trees, f.dims = set, set.trees, set.dims
	f.groups, f.spans = nil, nil
	if f.scales != nil && len(f.scales) != len(set.trees) {
		// Stale scale set from a previous segment snapshot; the caller
		// re-installs fresh scales per query when decay is on.
		f.scales = nil
	}
}

// arm makes the installed set's groups this forest's, with the leaf-scan
// spans of every multi-member group.
func (f *Forest) arm() {
	f.groups = f.set.form()
	f.spans = make([][]kernel.Span, len(f.groups))
	for gi, g := range f.groups {
		if len(g.members) == 1 {
			continue
		}
		f.spans[gi] = make([]kernel.Span, len(g.members))
		for j, m := range g.members {
			f.spans[gi][j] = kernel.Span{M: m.Points, Norms: m.Norms, Weights: m.Weights, Scale: g.scales[j]}
		}
		if f.scanSpans == nil {
			f.scanSpans = f.kern.SpansEvaluator()
		}
	}
}

// Groups returns how many queue units the installed segment set refines as.
func (f *Forest) Groups() int { return f.set.Groups() }

// SetScales installs per-segment positive multipliers on every bound and
// leaf evaluation, index-aligned with the segment set — the decayed-weight
// view λ_i·F_i(q). The slice is retained, not copied, and is typically
// refilled by the caller before every query (the scale of a decaying
// segment changes with the clock). nil restores the unscaled fast path.
// Scales must be positive: a negative scale would flip the lower/upper
// bound order. A set given scales must have been installed with its
// relative scales (SetTrees), which its groups fold in.
func (f *Forest) SetScales(s []float64) error {
	if s != nil && len(s) != len(f.trees) {
		return fmt.Errorf("core: %d scales for %d segments", len(s), len(f.trees))
	}
	if s != nil && (f.set == nil || f.set.rel == nil) {
		return errors.New("core: scales for a segment set installed without relative scales")
	}
	f.scales = s
	return nil
}

// Kernel returns the forest's kernel parameters.
func (f *Forest) Kernel() kernel.Params { return f.kern }

// Method returns the forest's bounding method.
func (f *Forest) Method() bound.Method { return f.method }

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
func (f *Forest) frontierEval(t *index.Tree, n *index.Node) float64 {
	f.st.PointsScanned += n.Count()
	return f.rows(f.qc.Q, f.qc.Norm2, t.Points, t.Norms, t.Weights, int(n.Start), int(n.End))
}

// score bounds the node ni of group gi, queueing it for refinement unless
// it is a frontier node, in which case it is evaluated exactly. An empty
// cell contributes nothing and is never queued.
func (f *Forest) score(gi, ni int32) (lb, ub float64) {
	g := &f.groups[gi]
	n := g.t.Node(ni)
	if n.Start == n.End {
		return 0, 0
	}
	frontier := f.atFrontier(n)
	switch {
	case !frontier:
		lb, ub = bound.NodeBounds(f.method, f.kern, &f.qc, n)
	case len(g.members) == 1:
		lb = f.frontierEval(g.t, n)
		ub = lb
	default:
		// One pass over every member's rows of the cell.
		spans := f.spans[gi]
		for j, m := range g.members {
			mn := m.Node(ni)
			spans[j].Start, spans[j].End = int(mn.Start), int(mn.End)
		}
		f.st.PointsScanned += n.Count()
		lb = f.scanSpans(f.qc.Q, f.qc.Norm2, spans)
		ub = lb
	}
	if f.scales != nil {
		// Positive scale: preserves bound order and exactness of the
		// lb ≤ λ·F_node ≤ ub sandwich.
		s := f.scales[g.seg]
		lb *= s
		ub *= s
	}
	if !frontier {
		f.queue.Push(fentry{gi, ni, lb, ub}, ub-lb)
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
	f.st = Stats{}
	// Single-segment fast path: one tree, no decay scales, no exact base
	// term, no trace — the monolithic loop.
	if len(f.trees) == 1 && f.scales == nil && base == 0 && trace == nil {
		return f.refineOne(cond)
	}
	if f.groups == nil {
		f.arm()
	}
	f.queue.Reset()
	lb, ub = base, base
	for gi := range f.groups {
		l, u := f.score(int32(gi), 0)
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
		f.st.Iterations++
		f.st.NodesExpanded++
		// Replace this node's contribution with its children's.
		t := f.groups[en.gi].t
		right := t.Node(en.ni).Right
		llb, lub := f.score(en.gi, t.Left(en.ni))
		rlb, rub := f.score(en.gi, right)
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
func (f *Forest) scoreOne(t *index.Tree, ni int32) (lb, ub float64) {
	n := t.Node(ni)
	if f.atFrontier(n) {
		v := f.frontierEval(t, n)
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
	st := &f.st
	f.fastQ.Reset()
	lb, ub = f.scoreOne(t, 0)
	for !cond.done(lb, ub) {
		en, _, ok := f.fastQ.Pop()
		if !ok {
			return lb, ub // bounds are exact
		}
		st.Iterations++
		st.NodesExpanded++
		right := t.Node(en.ni).Right
		llb, lub := f.scoreOne(t, t.Left(en.ni))
		rlb, rub := f.scoreOne(t, right)
		lb += llb + rlb - en.lb
		ub += lub + rub - en.ub
	}
	return lb, ub
}

// FastPathQueries returns the number of queries this forest served through
// the single-segment fast path since construction.
func (f *Forest) FastPathQueries() int64 { return f.fastHits }

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
	stats := f.st
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
	stats := f.st
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
