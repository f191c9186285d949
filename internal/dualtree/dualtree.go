// Package dualtree implements the batch query executor: a Gray–Moore style
// node-pair traversal that certifies whole groups of queries against whole
// reference nodes at once, sharing KARL's bound work across the batch.
//
// Sequential batch execution answers n queries with n independent best-first
// refinements; nearby queries (a KDE heatmap grid, a window of user
// positions) repeat nearly identical bound computations. The dual-tree
// executor instead builds a kd-tree over the query batch (reusing the flat
// DFS-preorder layout of internal/index) and recursively descends it,
// carrying for each query node a working set of reference-node entries
// whose GROUP bounds (bound.GroupNodeBounds) hold uniformly for every query
// in the node's rectangle:
//
//   - certify: if the accumulated group bounds already satisfy the ε or τ
//     stopping rule for every query in the group, one node-pair computation
//     answers them all (Stats.GroupCertified).
//   - tighten: otherwise a bounded amount of shared refinement replaces the
//     widest reference entries with their children — work both query
//     subtrees inherit — before descending.
//   - freeze (ε-queries only): entries whose bound gap is small relative to
//     their share of the total weight mass are folded into the inherited
//     accumulator and never rescored below this node; the total frozen gap
//     stays within the group's ε budget by construction of the shares.
//   - leaves: remaining entries are resolved best-first per leaf, switching
//     to the exact fused-row scan at reference frontier nodes, with
//     per-query early exit as individual queries certify.
//
// Every recorded answer is checked against the exact same stopping rules as
// sequential execution (core.CondApprox / core.CondThreshold) with bound
// intervals that are valid at record time, so the per-query ε/τ contract is
// identical. If a leaf exhausts its entries while a query is still
// uncertified (possible only when frozen gap remains), that query falls
// back to the embedded sequential Forest (Stats.Fallbacks) — correctness
// never depends on the grouping heuristics.
package dualtree

import (
	"fmt"
	"math"

	"karl/internal/bound"
	"karl/internal/core"
	"karl/internal/geom"
	"karl/internal/index"
	"karl/internal/kdtree"
	"karl/internal/kernel"
	"karl/internal/pqueue"
	"karl/internal/vec"
)

// DefaultLeafCap is the query-tree leaf capacity: small enough that leaf
// groups stay spatially tight, large enough to amortize per-leaf queue
// setup across queries.
const DefaultLeafCap = 16

// Config fixes the executor's kernel, bounding method, and tree knobs. They
// must match the sequential engine the batch would otherwise run on, so the
// two paths answer under the same contract.
type Config struct {
	Kernel  kernel.Params
	Method  bound.Method
	LeafCap int // query-tree leaf capacity (0 = DefaultLeafCap)
}

// Stats reports the work one batch performed.
type Stats struct {
	// Queries is the batch size.
	Queries int
	// NodePairs counts (query node × reference node) bound computations.
	NodePairs int
	// GroupCertified counts queries answered purely by group bound
	// certificates — no exact per-query row scan contributed to their
	// answer interval.
	GroupCertified int
	// Fallbacks counts queries resolved by the sequential per-query engine
	// after the group traversal could not certify them.
	Fallbacks int
	// Iterations, NodesExpanded and PointsScanned mirror core.Stats.
	Iterations    int
	NodesExpanded int
	PointsScanned int
}

// Add folds o's counts into s, as the chunks of one batch sum.
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.NodePairs += o.NodePairs
	s.GroupCertified += o.GroupCertified
	s.Fallbacks += o.Fallbacks
	s.Iterations += o.Iterations
	s.NodesExpanded += o.NodesExpanded
	s.PointsScanned += o.PointsScanned
}

// entry is one reference-node position in a query node's working set,
// with its current (scaled) group bound contribution.
type entry struct {
	ti, ni int32
	lb, ub float64
}

// Executor runs batches against a fixed reference segment set. Like
// core.Forest it owns per-batch scratch and is not safe for concurrent use;
// run one Executor per worker.
type Executor struct {
	cfg       Config
	rows      kernel.RowsFunc
	fb        *core.Forest // sequential fallback, shares trees and scales
	trees     []*index.Tree
	scales    []float64
	totalMass float64

	// Per-leaf scratch, reused across leaves and batches.
	leafE    []float64
	leafDone []bool
	leafScan []bool
	leafQ    pqueue.Queue[entry]
}

// New creates an executor over the ordered reference segments. The segment
// slice is retained, not copied.
func New(cfg Config, trees []*index.Tree) (*Executor, error) {
	if cfg.LeafCap <= 0 {
		cfg.LeafCap = DefaultLeafCap
	}
	fb, err := core.NewForest(cfg.Kernel, cfg.Method)
	if err != nil {
		return nil, err
	}
	if err := fb.SetTrees(trees, nil); err != nil {
		return nil, err
	}
	e := &Executor{cfg: cfg, rows: cfg.Kernel.RowsEvaluator(), fb: fb, trees: trees}
	e.computeMass()
	return e, nil
}

// SetScales installs per-segment positive multipliers, index-aligned with
// the segment set (the decayed-weight view). The slice is retained.
func (e *Executor) SetScales(s []float64) error {
	// The scales are fixed for the batch, so they are also the segments'
	// relative weights the fallback forest's groups fold in.
	if err := e.fb.SetTrees(e.trees, s); err != nil {
		return err
	}
	if err := e.fb.SetScales(s); err != nil {
		return err
	}
	e.scales = s
	e.computeMass()
	return nil
}

func (e *Executor) computeMass() {
	m := 0.0
	for i, t := range e.trees {
		r := t.Root()
		w := r.Pos().W + r.Neg().W
		if e.scales != nil {
			w *= e.scales[i]
		}
		m += w
	}
	e.totalMass = m
}

// Approximate answers out[i] within relative error eps of the true total
// base[i] + Σ_seg scale·F_seg(q_i) — the same guarantee as sequential
// core.Forest.Approximate for each query.
func (e *Executor) Approximate(queries *vec.Matrix, eps float64, base []float64, out []float64) (Stats, error) {
	if eps <= 0 {
		return Stats{}, fmt.Errorf("dualtree: eps must be positive, got %v", eps)
	}
	return e.run(queries, modeApprox, eps, 0, 0, base, out, nil)
}

// ApproximateAbs is Approximate with an absolute budget: out[i] within abs
// of the true total, the guarantee of sequential core.Forest.ApproximateAbs.
func (e *Executor) ApproximateAbs(queries *vec.Matrix, abs float64, base []float64, out []float64) (Stats, error) {
	if !(abs >= 0) {
		return Stats{}, fmt.Errorf("dualtree: absolute error budget must be non-negative, got %v", abs)
	}
	return e.run(queries, modeApprox, 0, abs, 0, base, out, nil)
}

// Threshold answers out[i] = (base[i] + Σ_seg scale·F_seg(q_i)) > tau for
// every query, matching the sequential verdict away from bound ties.
func (e *Executor) Threshold(queries *vec.Matrix, tau float64, base []float64, out []bool) (Stats, error) {
	return e.run(queries, modeThreshold, 0, 0, tau, base, nil, out)
}

const (
	modeApprox = iota
	modeThreshold
)

func (e *Executor) run(queries *vec.Matrix, mode int, eps, abs, tau float64, base []float64, outV []float64, outB []bool) (Stats, error) {
	st := Stats{Queries: queries.Rows}
	if queries.Rows == 0 {
		return st, nil
	}
	if len(e.trees) > 0 && queries.Cols != e.trees[0].Dims() {
		return st, fmt.Errorf("dualtree: query has %d dims, index has %d", queries.Cols, e.trees[0].Dims())
	}
	if len(e.trees) == 0 {
		// The base term is the entire (exact) answer.
		for i := 0; i < queries.Rows; i++ {
			b := 0.0
			if base != nil {
				b = base[i]
			}
			if mode == modeThreshold {
				outB[i] = b > tau
			} else {
				outV[i] = b
			}
		}
		return st, nil
	}
	qt, err := kdtree.Build(queries, nil, e.cfg.LeafCap)
	if err != nil {
		return st, fmt.Errorf("dualtree: building query tree: %w", err)
	}
	s := &run{x: e, qt: qt, mode: mode, eps: eps, abs: abs, tau: tau, base: base, outV: outV, outB: outB, st: &st}
	refs := make([]entry, len(e.trees))
	for i := range refs {
		refs[i] = entry{ti: int32(i)}
	}
	s.visit(0, refs, 0, 0)
	return st, s.err
}

// scorePair computes the scaled group bounds of reference node (ti, ni)
// over the query rectangle.
func (e *Executor) scorePair(rect *geom.Rect, ti, ni int32, st *Stats) entry {
	n := e.trees[ti].Node(ni)
	lb, ub := bound.GroupNodeBounds(e.cfg.Method, e.cfg.Kernel, rect, n)
	if e.scales != nil {
		sc := e.scales[ti]
		lb *= sc
		ub *= sc
	}
	st.NodePairs++
	return entry{ti: ti, ni: ni, lb: lb, ub: ub}
}

// frontierEntry reports a leaf: refinement of the reference node must stop
// here and switch to exact row scans.
func (e *Executor) frontierEntry(en *entry) bool {
	return e.trees[en.ti].Node(en.ni).IsLeaf()
}

// entryMass is the scaled absolute weight mass under the entry's node — the
// freezing heuristic hands each entry a gap share proportional to it.
func (e *Executor) entryMass(en *entry) float64 {
	n := e.trees[en.ti].Node(en.ni)
	m := n.Pos().W + n.Neg().W
	if e.scales != nil {
		m *= e.scales[en.ti]
	}
	return m
}

// run carries one batch's traversal state.
type run struct {
	x             *Executor
	qt            *index.Tree // kd-tree over the query batch
	mode          int
	eps, abs, tau float64
	base          []float64 // per ORIGINAL query index; nil = all zero
	outV          []float64
	outB          []bool
	st            *Stats
	err           error
}

// cond is the per-query stopping rule — exactly the sequential one.
func (s *run) cond(lb, ub float64) bool {
	if s.mode == modeThreshold {
		return core.CondThreshold(lb, ub, s.tau)
	}
	return core.CondApprox(lb, ub, s.eps, s.abs)
}

// record writes the answer for storage row r given its final valid bounds.
func (s *run) record(r int32, lb, ub float64) {
	orig := s.qt.PointID[r]
	if s.mode == modeThreshold {
		s.outB[orig] = lb > s.tau
	} else {
		s.outV[orig] = (lb + ub) / 2
	}
}

// targetGap is the bound-gap budget under which the whole group certifies:
// for ε-queries with a non-negative lower bound, gap ≤ ε·lb, and for an
// absolute budget gap ≤ 2·abs at any sign; elsewhere 0 (mixed-sign ε and
// threshold groups certify only through tryCertify).
func (s *run) targetGap(lbAll, ubAll float64) float64 {
	if s.mode == modeThreshold {
		return math.Max(math.Max(lbAll-s.tau, s.tau-ubAll), 0)
	}
	if lbAll <= 0 {
		return 2 * s.abs
	}
	return math.Max(s.eps*lbAll, 2*s.abs)
}

// baseRange returns the min and max per-query base over the node's rows.
func (s *run) baseRange(qn *index.Node) (lo, hi float64) {
	if s.base == nil {
		return 0, 0
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for r := qn.Start; r < qn.End; r++ {
		b := s.base[s.qt.PointID[r]]
		lo = math.Min(lo, b)
		hi = math.Max(hi, b)
	}
	return lo, hi
}

// tryCertify answers every query in the node at once if the current group
// bounds satisfy each query's stopping rule (bases shift the interval
// per query; without bases one check covers the group).
func (s *run) tryCertify(qn *index.Node, L, U, accL, accU float64) bool {
	lbAll, ubAll := accL+L, accU+U
	if s.base == nil {
		if !s.cond(lbAll, ubAll) {
			return false
		}
		for r := qn.Start; r < qn.End; r++ {
			s.record(r, lbAll, ubAll)
		}
	} else {
		for r := qn.Start; r < qn.End; r++ {
			b := s.base[s.qt.PointID[r]]
			if !s.cond(lbAll+b, ubAll+b) {
				return false
			}
		}
		for r := qn.Start; r < qn.End; r++ {
			b := s.base[s.qt.PointID[r]]
			s.record(r, lbAll+b, ubAll+b)
		}
	}
	s.st.GroupCertified += qn.Count()
	return true
}

// visit resolves every query under query node qi. refs is the parent's
// working set (read-only, rescored lazily against this node's tighter
// rectangle); accL/accU accumulate entries frozen by ancestors, whose
// bounds remain valid on this sub-rectangle.
func (s *run) visit(qi int32, refs []entry, accL, accU float64) {
	if s.err != nil {
		return
	}
	qn := s.qt.Node(qi)
	qrect := qn.Rect()
	rect := &qrect

	// Lazy push-down: rescore the inherited reference set against this
	// node's rectangle.
	work := make([]entry, 0, len(refs)+8)
	var L, U float64
	for i := range refs {
		en := s.x.scorePair(rect, refs[i].ti, refs[i].ni, s.st)
		L += en.lb
		U += en.ub
		work = append(work, en)
	}
	if s.tryCertify(qn, L, U, accL, accU) {
		return
	}
	if qn.IsLeaf() {
		s.leafResolve(qn, rect, work, L, U, accL, accU)
		return
	}

	baseLo, baseHi := s.baseRange(qn)

	// Shared tightening: expand the widest reference entries at the group
	// level — both query subtrees inherit the refined set, so this work is
	// paid once instead of once per subtree. The budget keeps the working
	// set growing geometrically along the descent rather than exploding at
	// the root.
	budget := 2*len(work) + 8
	tried := false
	for budget > 0 {
		wi := -1
		var wgap float64
		for i := range work {
			if g := work[i].ub - work[i].lb; g > wgap && !s.x.frontierEntry(&work[i]) {
				wgap, wi = g, i
			}
		}
		if wi < 0 {
			break
		}
		en := work[wi]
		t := s.x.trees[en.ti]
		right := t.Node(en.ni).Right
		c1 := s.x.scorePair(rect, en.ti, t.Left(en.ni), s.st)
		c2 := s.x.scorePair(rect, en.ti, right, s.st)
		work[wi] = c1
		work = append(work, c2)
		L += c1.lb + c2.lb - en.lb
		U += c1.ub + c2.ub - en.ub
		s.st.Iterations++
		s.st.NodesExpanded++
		budget--
		if !tried && U-L <= s.targetGap(accL+L+baseLo, accU+U+baseHi) {
			tried = true
			if s.tryCertify(qn, L, U, accL, accU) {
				return
			}
		}
	}

	// Freeze entries whose gap is within their mass-proportional share of
	// the group's certifiable budget: their bounds stay valid on every
	// descendant rectangle, so descendants skip rescoring them. Reference
	// masses are disjoint across entries, so the total frozen gap along any
	// root-to-leaf path stays within one budget.
	if target := s.targetGap(accL+L+baseLo, accU+U+baseHi); target > 0 && s.x.totalMass > 0 {
		kept := work[:0]
		for _, en := range work {
			share := target * s.x.entryMass(&en) / s.x.totalMass
			if en.ub-en.lb <= share {
				accL += en.lb
				accU += en.ub
				L -= en.lb
				U -= en.ub
			} else {
				kept = append(kept, en)
			}
		}
		work = kept
	}
	if s.tryCertify(qn, L, U, accL, accU) {
		return
	}
	s.visit(s.qt.Left(qi), work, accL, accU)
	s.visit(qn.Right, work, accL, accU)
}

// leafResolve finishes a query-tree leaf: best-first refinement of the
// remaining reference entries shared by the leaf's queries, with per-query
// exact accumulators and early exit as individual queries certify.
func (s *run) leafResolve(qn *index.Node, rect *geom.Rect, work []entry, L, U, accL, accU float64) {
	x := s.x
	qt := s.qt
	rows := qn.Count()
	if cap(x.leafE) < rows {
		x.leafE = make([]float64, rows)
		x.leafDone = make([]bool, rows)
		x.leafScan = make([]bool, rows)
	}
	E := x.leafE[:rows]
	done := x.leafDone[:rows]
	scanned := x.leafScan[:rows]
	for i := 0; i < rows; i++ {
		done[i] = false
		scanned[i] = false
		E[i] = 0
		if s.base != nil {
			E[i] = s.base[qt.PointID[int(qn.Start)+i]]
		}
	}
	pending := rows

	finalize := func() {
		for i := 0; i < rows; i++ {
			if done[i] {
				continue
			}
			lb := accL + L + E[i]
			ub := accU + U + E[i]
			if s.cond(lb, ub) {
				s.record(int32(int(qn.Start)+i), lb, ub)
				done[i] = true
				pending--
				if !scanned[i] {
					s.st.GroupCertified++
				}
			}
		}
	}

	q := &x.leafQ
	q.Reset()
	for _, en := range work {
		q.Push(en, en.ub-en.lb)
	}
	finalize()
	for pending > 0 {
		en, _, ok := q.Pop()
		if !ok {
			break
		}
		s.st.Iterations++
		t := x.trees[en.ti]
		n := t.Node(en.ni)
		if x.frontierEntry(&en) {
			// Exact evaluation, per still-pending query, through the same
			// fused-row primitive as the sequential path.
			sc := 1.0
			if x.scales != nil {
				sc = x.scales[en.ti]
			}
			for i := 0; i < rows; i++ {
				if done[i] {
					continue
				}
				r := int(qn.Start) + i
				v := x.rows(qt.Points.Row(r), qt.Norms[r], t.Points, t.Norms, t.Weights, int(n.Start), int(n.End))
				E[i] += v * sc
				scanned[i] = true
				s.st.PointsScanned += n.Count()
			}
			L -= en.lb
			U -= en.ub
		} else {
			s.st.NodesExpanded++
			c1 := x.scorePair(rect, en.ti, t.Left(en.ni), s.st)
			c2 := x.scorePair(rect, en.ti, n.Right, s.st)
			L += c1.lb + c2.lb - en.lb
			U += c1.ub + c2.ub - en.ub
			q.Push(c1, c1.ub-c1.lb)
			q.Push(c2, c2.ub-c2.lb)
		}
		finalize()
	}
	if pending == 0 {
		return
	}
	// Entries exhausted with queries still open: only reachable when frozen
	// gap from ancestors exceeds a query's residual budget. Resolve those
	// queries sequentially — the contract never depends on grouping.
	for i := 0; i < rows && s.err == nil; i++ {
		if done[i] {
			continue
		}
		r := int(qn.Start) + i
		orig := qt.PointID[r]
		b := 0.0
		if s.base != nil {
			b = s.base[orig]
		}
		s.st.Fallbacks++
		qrow := qt.Points.Row(r)
		if s.mode == modeThreshold {
			v, fst, err := x.fb.Threshold(qrow, s.tau, b)
			if err != nil {
				s.err = err
				return
			}
			s.outB[orig] = v
			s.addCoreStats(fst)
		} else {
			approx, budget := x.fb.Approximate, s.eps
			if s.eps == 0 {
				approx, budget = x.fb.ApproximateAbs, s.abs
			}
			v, fst, err := approx(qrow, budget, b)
			if err != nil {
				s.err = err
				return
			}
			s.outV[orig] = v
			s.addCoreStats(fst)
		}
	}
}

func (s *run) addCoreStats(cs core.Stats) {
	s.st.Iterations += cs.Iterations
	s.st.NodesExpanded += cs.NodesExpanded
	s.st.PointsScanned += cs.PointsScanned
}
