package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"karl/internal/core"
	"karl/internal/server"
	"karl/internal/shard"
)

// ErrIndeterminate is returned by Threshold in degraded mode when the
// unreachable shards' worst-case weight mass could flip the verdict: the
// coordinator refuses to guess. Aggregate and Approximate degrade to
// explicit partial results instead; a threshold answer is a boolean and
// has no honest partial form.
var ErrIndeterminate = errors.New("cluster: threshold verdict indeterminate: unreachable shards could flip it")

// ErrUnavailable is returned when no shard at all could answer a query —
// the one degradation with no honest partial form for value queries.
var ErrUnavailable = errors.New("cluster: no shards reachable")

// errNotFinite is a shard's 422: F_S(q) overflows float64 (a polynomial
// kernel far from the data), and so does F_P(q). That is an answer, not a
// failed shard — it is not retried and not left out of a partial sum:
// Aggregate and Approximate return it, in the single node's words.
var errNotFinite = errors.New("aggregate is not finite at this query")

// Config is what a deployment sets on the coordinator's read path. The zero
// value picks production defaults.
type Config struct {
	// Timeout bounds each shard attempt and each follower probe (default 2s).
	Timeout time.Duration
}

const (
	// hedgeQuantile arms a hedged request to a replica once the primary
	// has been in flight longer than this latency quantile of recent
	// successful calls. Hedging needs replicas and a warm latency window;
	// otherwise calls are unhedged.
	hedgeQuantile = 0.9
	// hedgeMin floors the hedge delay so cold windows with microsecond
	// samples don't hedge every call.
	hedgeMin = time.Millisecond
	// retryBackoff is the pause before a failed call's one retry.
	retryBackoff = 50 * time.Millisecond
	// maxRounds is the number of adaptive bound-exchange rounds; round
	// maxRounds is exact, which is what bounds a TKAQ to maxRounds+1
	// rounds (Threshold).
	maxRounds = 6
)

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	return c
}

// memberState is what the coordinator learns about a member by talking to
// it: the latency window driving hedge delays and the robustness counters of
// /v1/stats. It is keyed by member id on the coordinator and outlives the
// epoch — a split, promotion or quarantine elsewhere in the cluster neither
// zeroes a member's counters nor cools its hedge window.
type memberState struct {
	lat       latencyWindow
	requests  atomic.Int64
	errors    atomic.Int64
	retries   atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
}

// member is one manifest member as an epoch reads it: the client and hedge
// targets of this epoch, the dataset description, and a pointer to the
// member's state on the coordinator.
type member struct {
	// client answers the member's reads: its mutable client, or a downShard
	// when the member is recorded in the manifest but unreachable.
	client   ShardClient
	replicas []ShardClient
	// info is the member's dataset description as of the epoch's discovery
	// round or the last write routed to it (setMass): the a-priori clamp
	// [klo·W_S, khi·W_S] every exchange starts from is only sound while W_S
	// is current.
	info atomic.Pointer[ShardInfo]
	// followers are the member's attached replication followers as of this
	// epoch's install (promotion detaches them all and installs a new epoch).
	followers []FollowerClient
	*memberState
}

// epoch is one immutable membership of the cluster: the routing manifest,
// the write clients by member id (absent entries are unreachable members),
// the members in manifest order as reads see them, and the identity of the
// one partitioned dataset they hold.
type epoch struct {
	co      *Coordinator
	man     *shard.Manifest
	clients map[uint64]MutableShardClient
	members []*member

	dims   int
	kernel string
	gamma  float64
	// klo/khi is the kernel's per-unit-weight value range, the basis for
	// a-priori member bounds when a member has not answered yet (±Inf for
	// unbounded kernels).
	klo, khi float64

	// splits, promotions and quarantines count the membership changes that
	// led to this epoch: each install carries them over and the change that
	// installs it adds its own before the epoch is published.
	splits, promotions, quarantines int64
}

// Coordinator answers Aggregate/Threshold/Approximate queries by
// scatter-gather over the members of an epoch-versioned shard.Manifest,
// composing per-shard certified bounds into global ones (see the package
// comment for the protocol), and routes inserts and deletes through the same
// manifest to the owning member. Writes and membership changes serialize on
// mu; reads are lock-free against an atomic epoch snapshot, guarded by the
// gen seqlock. A read-only cluster is the same type served without its write
// routes (NewHTTPServer).
type Coordinator struct {
	cfg   WritableConfig
	spawn SpawnFunc

	mu     sync.Mutex // serializes writes, splits, epoch installs
	nextID uint64     // next member id to assign

	// followers maps member id to its attached replication followers
	// (guarded by mu; promotion moves one into the clients of the next epoch
	// and detaches the rest).
	followers map[uint64][]FollowerClient
	// states holds every member's memberState by member id (guarded by mu;
	// an epoch's members point into it).
	states map[uint64]*memberState

	// gen is even between membership changes and odd while one is in
	// flight; a query whose start and end generations differ (or that
	// starts on an odd one) re-scatters.
	gen atomic.Uint64
	ep  atomic.Pointer[epoch]

	// rescatters counts reads re-run because they straddled a membership
	// change, exch queries and scatter rounds.
	rescatters atomic.Int64
	exch       exchangeCounters
}

type exchangeCounters struct {
	thresholdQueries, thresholdRounds     atomic.Int64
	approximateQueries, approximateRounds atomic.Int64
}

// ExchangeStats is the cumulative bound-exchange account in the
// coordinator's /v1/stats: how many Threshold and Approximate queries were
// answered and how many scatter rounds they took in total. Rounds per query
// is the ratio; shard calls per query comes from the per-shard requests.
type ExchangeStats struct {
	ThresholdQueries   int64 `json:"threshold_queries"`
	ThresholdRounds    int64 `json:"threshold_rounds"`
	ApproximateQueries int64 `json:"approximate_queries"`
	ApproximateRounds  int64 `json:"approximate_rounds"`
}

func (x *exchangeCounters) load() ExchangeStats {
	return ExchangeStats{
		ThresholdQueries:   x.thresholdQueries.Load(),
		ThresholdRounds:    x.thresholdRounds.Load(),
		ApproximateQueries: x.approximateQueries.Load(),
		ApproximateRounds:  x.approximateRounds.Load(),
	}
}

// weight returns the shard's current weight mass W_S.
func (s *member) weight() float64 { return s.info.Load().Weight() }

// setMass replaces member i's cardinality and weight masses — the write path
// calls it after every acknowledged write, so queries starting afterwards
// clamp against the member's current mass.
func (ep *epoch) setMass(i int, m server.MassResponse) {
	info := *ep.members[i].info.Load()
	info.Points, info.WPos, info.WNeg = m.Points, m.WeightPos, m.WeightNeg
	ep.members[i].info.Store(&info)
}

// weightTotal sums the shards' current weight masses.
func (ep *epoch) weightTotal() float64 {
	var w float64
	for _, s := range ep.members {
		w += s.weight()
	}
	return w
}

// Manifest returns a copy of the current routing manifest.
func (w *Coordinator) Manifest() *shard.Manifest { return w.ep.Load().man.Clone() }

// kernelRange returns the kernel's value range per unit weight; unbounded
// kernels (polynomial) get ±Inf, which disables a-priori bounds.
func kernelRange(kind string) (lo, hi float64) {
	switch kind {
	case "gaussian", "epanechnikov", "quartic":
		return 0, 1
	case "sigmoid":
		return -1, 1
	default:
		return math.Inf(-1), math.Inf(1)
	}
}

// apriori returns bounds on F_S(q) that hold before the shard has been
// asked anything: each unit of positive mass contributes a kernel value in
// [klo, khi], each unit of negative mass the reflection.
func (ep *epoch) apriori(info ShardInfo) (lb, ub float64) {
	if info.WPos == 0 && info.WNeg == 0 {
		return 0, 0
	}
	if math.IsInf(ep.khi, 1) {
		return math.Inf(-1), math.Inf(1)
	}
	return info.WPos*ep.klo - info.WNeg*ep.khi, info.WPos*ep.khi - info.WNeg*ep.klo
}

func (ep *epoch) checkQuery(q []float64) error {
	if ep.dims == 0 {
		return errors.New("cluster: no shard holds a point yet")
	}
	if len(q) != ep.dims {
		return fmt.Errorf("cluster: query has %d dims, want %d", len(q), ep.dims)
	}
	for i, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cluster: q[%d] is not finite", i)
		}
	}
	return nil
}

// snapshot returns the current epoch under an even generation, waiting out an
// in-flight membership change (bounded by ctx).
func (w *Coordinator) snapshot(ctx context.Context) (*epoch, uint64, error) {
	for {
		g := w.gen.Load()
		if g%2 == 0 {
			ep := w.ep.Load()
			if w.gen.Load() == g {
				return ep, g, nil
			}
			continue
		}
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// query runs fn against a consistent epoch snapshot, re-scattering when the
// generation advanced underneath it — the straddle could have mixed pre- and
// post-split shard states into one sum.
func (w *Coordinator) query(ctx context.Context, fn func(*epoch) (server.Result, error)) (server.Result, error) {
	for attempt := 0; ; attempt++ {
		ep, g, err := w.snapshot(ctx)
		if err != nil {
			return server.Result{}, err
		}
		res, err := fn(ep)
		if w.gen.Load() == g {
			return res, err
		}
		w.rescatters.Add(1)
		if attempt >= epochRetries {
			return server.Result{}, fmt.Errorf("%w: %d re-scatters exhausted (epoch now %d)",
				ErrEpochChanged, attempt+1, w.ep.Load().man.Epoch)
		}
	}
}

// Aggregate computes F_P(q) = Σ_S F_S(q) exactly over the reachable
// shards, one scatter-gather with per-shard timeout/retry/hedging. A shard
// without weight mass contributes exactly 0 and is asked nothing (an empty
// engine would refuse the query and flag the answer partial for no reason).
func (w *Coordinator) Aggregate(ctx context.Context, q []float64) (server.Result, error) {
	return w.query(ctx, func(ep *epoch) (server.Result, error) { return ep.aggregate(ctx, q) })
}

func (ep *epoch) aggregate(ctx context.Context, q []float64) (server.Result, error) {
	if err := ep.checkQuery(q); err != nil {
		return server.Result{}, err
	}
	values := make([]float64, len(ep.members))
	failures := make([]error, len(ep.members))
	var todo []int
	for i, s := range ep.members {
		if s.weight() != 0 {
			todo = append(todo, i)
		}
	}
	scatter(todo, func(i int) {
		values[i], failures[i] = call(ctx, ep.co, ep.members[i], func(ctx context.Context, c ShardClient) (float64, error) {
			return c.Aggregate(ctx, q)
		})
	})
	if err := ctx.Err(); err != nil {
		return server.Result{}, err
	}

	var sum, aliveW float64
	var failed []string
	var firstErr error
	for i, s := range ep.members {
		if errors.Is(failures[i], errNotFinite) {
			return server.Result{}, errNotFinite
		}
		if failures[i] != nil {
			failed = append(failed, s.client.Name())
			if firstErr == nil {
				firstErr = failures[i]
			}
			continue
		}
		sum += values[i]
		aliveW += s.weight()
	}
	if len(todo) > 0 && len(failed) == len(todo) {
		return server.Result{}, fmt.Errorf("%w: all %d shards failed (first error: %v)", ErrUnavailable, len(todo), firstErr)
	}
	return server.Result{
		Value:   sum,
		LB:      sum,
		UB:      sum,
		Partial: len(failed) > 0,
		Covered: ep.coveredFraction(aliveW, len(failed)),
		Failed:  failed,
	}, nil
}

// coveredFraction maps reachable weight mass to the Covered contract
// field, degrading to a shard-count fraction for weightless datasets.
func (ep *epoch) coveredFraction(aliveW float64, nFailed int) float64 {
	if nFailed == 0 {
		return 1
	}
	if wTotal := ep.weightTotal(); wTotal > 0 {
		return aliveW / wTotal
	}
	return float64(len(ep.members)-nFailed) / float64(len(ep.members))
}

// exchState is one shard's position in a bound-exchange: the tightest
// certified interval for F_S(q) seen so far (new answers are intersected
// in — every certified interval remains valid), the ε budget the next
// Approximate round would use, and liveness for this query.
type exchState struct {
	lb, ub  float64
	eps     float64
	alive   bool
	queried bool
}

func (s *exchState) gap() float64 { return s.ub - s.lb }

// apply intersects a new certified interval with the accumulated one.
func (s *exchState) apply(b Bounds) {
	lb := math.Max(s.lb, b.LB)
	ub := math.Min(s.ub, b.UB)
	if lb > ub {
		// Certified intervals can only cross by floating-point noise;
		// collapse to the midpoint of the overlap defect.
		m := (lb + ub) / 2
		lb, ub = m, m
	}
	s.lb, s.ub = lb, ub
	s.queried = true
}

func sumBounds(st []*exchState) (lb, ub float64) {
	for _, s := range st {
		lb += s.lb
		ub += s.ub
	}
	return lb, ub
}

// Threshold decides F_P(q) > τ by splitting τ across the shards. Every
// round hands each reachable shard whose interval is still open a threshold
// of its own inside that interval, in proportion to interval width,
//
//	t_i = lb_i + (τ − Σlb)·(ub_i − lb_i)/Σ(ub − lb),
//
// which from the a-priori intervals [klo·W_i, khi·W_i] is the mass share
// τ·W_i/W. The shard refines with the paper's own TKAQ rule against t_i and
// returns the certified interval it stopped at. The t_i sum to τ less the
// share an unreachable shard's interval holds, so all shards stopping above
// their t_i gives Σlb > τ and all stopping at or below gives Σub ≤ τ; a
// mixed round re-splits over the tighter intervals. The sums are tested
// after every arrival and a verdict cancels outstanding shard work.
//
// Any stopping rule is sound here — shards only ever return certified
// intervals, and the verdict rests on their intersection and sum alone —
// but soundness says nothing of termination. A round may cut an interval by
// as little as floating-point noise, and near a tie (τ within 10⁻¹² of F)
// the adaptive rounds alone ran past 3 s for a few queries in 200. The
// exchange ends because round maxRounds is exact: every reachable shard
// returns lb = ub, the sums then decide, and so a query makes at most
// maxRounds+1 rounds (TestThresholdNearTieTerminates); only an unreachable
// shard's interval can leave it indeterminate.
func (w *Coordinator) Threshold(ctx context.Context, q []float64, tau float64) (server.Result, error) {
	return w.query(ctx, func(ep *epoch) (server.Result, error) { return ep.threshold(ctx, q, tau) })
}

func (ep *epoch) threshold(ctx context.Context, q []float64, tau float64) (server.Result, error) {
	if err := ep.checkQuery(q); err != nil {
		return server.Result{}, err
	}
	if math.IsNaN(tau) || math.IsInf(tau, 0) {
		return server.Result{}, fmt.Errorf("cluster: tau must be finite, got %v", tau)
	}
	ep.co.exch.thresholdQueries.Add(1)

	st := make([]*exchState, len(ep.members))
	for i, s := range ep.members {
		lb, ub := ep.apriori(*s.info.Load())
		st[i] = &exchState{lb: lb, ub: ub, alive: true}
	}
	decided := func(lb, ub float64) (over, ok bool) {
		if lb > tau {
			return true, true
		}
		if ub <= tau {
			return false, true
		}
		return false, false
	}

	var mu sync.Mutex // guards st during a round's concurrent updates
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return server.Result{}, err
		}
		lb, ub := sumBounds(st)
		if over, ok := decided(lb, ub); ok {
			return ep.thresholdResult(over, st), nil
		}
		// An unreachable shard keeps its interval in the sums — a certified
		// bound does not expire when its shard does — but is asked nothing.
		var todo []int
		for i, s := range st {
			if s.alive && s.gap() > 0 {
				todo = append(todo, i)
			}
		}
		if len(todo) == 0 {
			// Every reachable shard is fully refined; the residual
			// interval straddling τ belongs to unreachable shards.
			return server.Result{}, fmt.Errorf("%w (%.1f%% of weight mass unreachable)",
				ErrIndeterminate, 100*(1-ep.coveredFraction(ep.aliveWeight(st), ep.countDead(st))))
		}
		exactRound := round >= maxRounds
		share := (tau - lb) / (ub - lb)
		ep.co.exch.thresholdRounds.Add(1)

		rctx, cancel := context.WithCancel(ctx)
		scatter(todo, func(i int) {
			t := st[i].lb + share*st[i].gap()
			if math.IsNaN(t) || math.IsInf(t, 0) {
				// An unbounded kernel has no a-priori interval to split:
				// start from the mass share.
				t = tau * ep.massShare(i)
			}
			b, err := call(rctx, ep.co, ep.members[i], func(ctx context.Context, c ShardClient) (Bounds, error) {
				if exactRound {
					return c.Bounds(ctx, q, 0)
				}
				return c.ThresholdBounds(ctx, q, t)
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				// Our own early cancellation is not a shard failure;
				// anything else marks the shard dead for this query.
				if rctx.Err() == nil {
					st[i].alive = false
				}
				return
			}
			st[i].apply(b)
			if _, ok := decided(sumBounds(st)); ok {
				cancel()
			}
		})
		cancel()
	}
}

// massShare is shard i's fraction of the cluster's weight mass (an equal
// share for a weightless dataset).
func (ep *epoch) massShare(i int) float64 {
	if wTotal := ep.weightTotal(); wTotal > 0 {
		return ep.members[i].weight() / wTotal
	}
	return 1 / float64(len(ep.members))
}

// scatter runs fn(i) for every i in todo at once and waits for all of
// them; the last runs on the calling goroutine, every other on a parked
// fan-out worker, or on a new one when none is parked.
func scatter(todo []int, fn func(i int)) {
	if len(todo) == 0 {
		return
	}
	var wg sync.WaitGroup
	last := len(todo) - 1
	wg.Add(last)
	for _, i := range todo[:last] {
		j := fanJob{fn: fn, i: i, wg: &wg}
		select {
		case parked <- j:
		default:
			go fanWorker(j)
		}
	}
	fn(todo[last])
	wg.Wait()
}

// fanJob is one member's call in a scatter round.
type fanJob struct {
	fn func(int)
	i  int
	wg *sync.WaitGroup
}

// parked hands a job to a fan-out worker: being unbuffered, a send succeeds
// only while some worker waits in its receive.
var parked = make(chan fanJob)

// workerIdle is how long a fan-out worker waits for a job before it exits,
// so the number of workers follows recent fan-out.
const workerIdle = time.Second

// fanWorker runs j, then parks for the next job. A shard call grows a fresh
// goroutine's stack (JSON, net/http, float formatting); a worker's stack has
// grown once and serves every call after.
func fanWorker(j fanJob) {
	idle := time.NewTimer(workerIdle)
	for {
		j.fn(j.i)
		j.wg.Done()
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(workerIdle)
		select {
		case j = <-parked:
		case <-idle.C:
			return
		}
	}
}

func (ep *epoch) aliveWeight(st []*exchState) float64 {
	var w float64
	for i, s := range st {
		if s.alive {
			w += ep.members[i].weight()
		}
	}
	return w
}

func (ep *epoch) countDead(st []*exchState) int {
	n := 0
	for _, s := range st {
		if !s.alive {
			n++
		}
	}
	return n
}

func (ep *epoch) thresholdResult(over bool, st []*exchState) server.Result {
	var failed []string
	for i, s := range st {
		if !s.alive {
			failed = append(failed, ep.members[i].client.Name())
		}
	}
	return server.Result{
		Over:    over,
		Partial: len(failed) > 0,
		Covered: ep.coveredFraction(ep.aliveWeight(st), len(failed)),
		Failed:  failed,
	}
}

// Approximate computes F_P(q) to relative error eps: it stops on
// core.CondApprox over the summed shard bounds, the rule every shard stops
// on, and returns their midpoint. Round 0 queries every shard at the global
// budget — for non-negative aggregates the per-shard certificates
// ub_S ≤ (1+2ε)·lb_S add up to the global one and one round suffices. When
// they do not, the gap the rule allows is split across shards proportional
// to their weight mass W_S (the shard holding more mass gets more absolute
// slack), and only shards exceeding their allocation are re-queried at
// geometrically tighter budgets: small-gap shards return early. The
// allocation is self-consistent — if every shard fits its share the global
// certificate already holds — so undecided rounds always have work.
func (w *Coordinator) Approximate(ctx context.Context, q []float64, eps float64) (server.Result, error) {
	return w.query(ctx, func(ep *epoch) (server.Result, error) { return ep.approximate(ctx, q, eps) })
}

func (ep *epoch) approximate(ctx context.Context, q []float64, eps float64) (server.Result, error) {
	if err := ep.checkQuery(q); err != nil {
		return server.Result{}, err
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		return server.Result{}, fmt.Errorf("cluster: eps must be positive and finite, got %v", eps)
	}

	ep.co.exch.approximateQueries.Add(1)

	// A shard without weight mass is known exactly — [0, 0] — before it is
	// asked anything, so it counts as answered and no round includes it.
	st := make([]*exchState, len(ep.members))
	var all []int
	for i, s := range ep.members {
		lb, ub := ep.apriori(*s.info.Load())
		st[i] = &exchState{lb: lb, ub: ub, eps: eps, alive: true, queried: s.weight() == 0}
		if !st[i].queried {
			all = append(all, i)
		}
	}

	var mu sync.Mutex
	notFinite := false
	runRound := func(todo []int, exact bool) error {
		ep.co.exch.approximateRounds.Add(1)
		scatter(todo, func(i int) {
			budget := st[i].eps
			if exact {
				budget = 0
			}
			b, err := call(ctx, ep.co, ep.members[i], func(ctx context.Context, c ShardClient) (Bounds, error) {
				return c.Bounds(ctx, q, budget)
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				notFinite = notFinite || errors.Is(err, errNotFinite)
				st[i].alive = false
				return
			}
			st[i].apply(b)
		})
		if notFinite {
			return errNotFinite
		}
		for _, i := range todo {
			st[i].eps /= 4
		}
		return ctx.Err()
	}

	// Round 0: every shard holding mass at the global budget.
	if len(all) > 0 {
		if err := runRound(all, false); err != nil {
			return server.Result{}, err
		}
	}

	for round := 1; ; round++ {
		// The answer covers reachable shards only; a dead shard's stale
		// interval would poison the value, so it is excluded and reported
		// through the partial contract instead.
		var lb, ub, aliveW float64
		var covered []int
		for i, s := range st {
			if !s.alive || !s.queried {
				continue
			}
			covered = append(covered, i)
			lb += s.lb
			ub += s.ub
			aliveW += ep.members[i].weight()
		}
		if len(all) > 0 && len(covered) == len(st)-len(all) {
			// Only the massless shards, which were never asked, are left.
			return server.Result{}, fmt.Errorf("%w: all %d shards failed", ErrUnavailable, len(all))
		}
		if core.CondApprox(lb, ub, eps, 0) {
			return ep.approxResult(lb, ub, st), nil
		}

		// The gap core.CondApprox allows at the current sums, split ∝ W_S.
		allow := eps * math.Abs(lb+ub) / (1 + eps)
		exact := round >= maxRounds || allow <= 0
		var todo []int
		for _, i := range covered {
			if st[i].gap() <= 0 {
				continue
			}
			if exact {
				todo = append(todo, i)
				continue
			}
			share := 1.0 / float64(len(covered))
			if aliveW > 0 {
				share = ep.members[i].weight() / aliveW
			}
			if st[i].gap() > allow*share {
				todo = append(todo, i)
			}
		}
		if len(todo) == 0 {
			// Σ gap ≤ Σ allocation = allowance: certificate holds.
			return ep.approxResult(lb, ub, st), nil
		}
		if err := runRound(todo, exact); err != nil {
			return server.Result{}, err
		}
	}
}

func (ep *epoch) approxResult(lb, ub float64, st []*exchState) server.Result {
	var failed []string
	var aliveW float64
	for i, s := range st {
		if s.alive && s.queried {
			aliveW += ep.members[i].weight()
		} else {
			failed = append(failed, ep.members[i].client.Name())
		}
	}
	return server.Result{
		Value:   (lb + ub) / 2,
		LB:      lb,
		UB:      ub,
		Partial: len(failed) > 0,
		Covered: ep.coveredFraction(aliveW, len(failed)),
		Failed:  failed,
	}
}

// call runs one logical shard operation with the robustness ladder:
// per-attempt timeout, a hedged request to a replica once the primary
// outlives its recent latency quantile, and after a failure one retry,
// retryBackoff later, against the member's first caught-up follower when it
// has one. Counters record every rung for /v1/stats.
func call[T any](ctx context.Context, co *Coordinator, s *member, fn func(context.Context, ShardClient) (T, error)) (T, error) {
	s.requests.Add(1)
	attempt := func(ctx context.Context, c ShardClient) (T, error) {
		actx, cancel := context.WithTimeout(ctx, co.cfg.Timeout)
		defer cancel()
		t0 := time.Now()
		v, err := fn(actx, c)
		if err == nil {
			s.lat.record(time.Since(t0))
		}
		return v, err
	}

	v, err := hedged(ctx, co, s, attempt)
	if err == nil {
		return v, nil
	}
	var zero T
	if ctx.Err() != nil || errors.Is(err, errNotFinite) {
		// The caller cancelled (verdict reached, deadline) or the shard's
		// answer is an overflow: not a shard failure, no retry, no error counter.
		return zero, err
	}
	select {
	case <-time.After(retryBackoff):
	case <-ctx.Done():
		return zero, ctx.Err()
	}
	s.retries.Add(1)
	target := s.client
	if len(s.replicas) > 0 {
		target = s.replicas[0]
	}
	if v, rerr := attempt(ctx, target); rerr == nil {
		return v, nil
	} else if ctx.Err() == nil {
		err = rerr
	}
	s.errors.Add(1)
	return zero, err
}

// hedged runs one attempt against the primary on the calling goroutine and
// arms a timer that starts a second attempt, against the first replica, if
// the primary is still in flight past the member's latency quantile. First
// success wins by cancelling the other attempt: a shard client returns
// promptly once its ctx ends (ShardClient), so a primary beaten by the hedge
// returns at once. Until the timer fires a call costs no goroutine and no
// channel.
func hedged[T any](ctx context.Context, co *Coordinator, s *member, attempt func(context.Context, ShardClient) (T, error)) (T, error) {
	delay := time.Duration(s.lat.hedge.Load())
	if delay == 0 || len(s.replicas) == 0 {
		return attempt(ctx, s.client)
	}
	type outcome struct {
		v   T
		err error
	}
	pctx, cancelPrimary := context.WithCancel(ctx)
	defer cancelPrimary()
	var race struct {
		sync.Mutex
		primaryDone bool
		hedge       chan outcome // non-nil once the hedge has started
		cancelHedge context.CancelFunc
	}
	timer := time.AfterFunc(max(delay, hedgeMin), func() {
		race.Lock()
		if race.primaryDone {
			race.Unlock()
			return
		}
		hctx, cancel := context.WithCancel(ctx)
		ch := make(chan outcome, 1)
		race.hedge, race.cancelHedge = ch, cancel
		race.Unlock()
		s.hedges.Add(1)
		v, err := attempt(hctx, s.replicas[0])
		if err == nil {
			cancelPrimary()
		}
		ch <- outcome{v, err}
	})
	v, err := attempt(pctx, s.client)
	timer.Stop()
	race.Lock()
	race.primaryDone = true
	ch, cancelHedge := race.hedge, race.cancelHedge
	race.Unlock()
	if ch == nil {
		return v, err
	}
	defer cancelHedge()
	if err == nil {
		return v, nil
	}
	// The primary failed, or lost to the hedge: the hedge's outcome decides.
	if o := <-ch; o.err == nil {
		s.hedgeWins.Add(1)
		return o.v, nil
	}
	return v, err
}

// latencyWindow is a fixed ring of recent successful call durations; the
// hedge delay is its q-quantile. A handful of samples is too noisy to hedge
// on, so the delay stays unset until the window has warmSamples, and from
// then on it is re-derived once every hedgeEvery samples — every call reads
// it with one atomic load instead of sorting the ring.
type latencyWindow struct {
	hedge atomic.Int64 // hedge delay in ns; 0 while the window is cold

	mu    sync.Mutex
	buf   [64]time.Duration
	n     int // filled entries (≤ len(buf))
	idx   int // next write position
	total int // samples ever recorded
}

const (
	warmSamples = 8
	hedgeEvery  = 8
)

func (l *latencyWindow) record(d time.Duration) {
	l.mu.Lock()
	l.buf[l.idx] = d
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.total++
	if l.n >= warmSamples && l.total%hedgeEvery == 0 {
		// At least 1 ns, so a warm window never reads as cold.
		l.hedge.Store(int64(max(l.quantileLocked(hedgeQuantile), 1)))
	}
	l.mu.Unlock()
}

// quantileLocked returns the q-quantile of the window (0 when empty).
// Callers hold l.mu.
func (l *latencyWindow) quantileLocked(q float64) time.Duration {
	if l.n == 0 {
		return 0
	}
	tmp := l.buf // sorted on the stack; the ring keeps its order
	slices.Sort(tmp[:l.n])
	return tmp[int(q*float64(l.n-1))]
}

// quantile is quantileLocked for stats reporting, without the warm-up gate.
func (l *latencyWindow) quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quantileLocked(q)
}

// Status is the coordinator at one instant: every field is read from one
// epoch, so the member rows, the shard count, the point total and the epoch
// always agree. Each member appears once, with the mass the a-priori clamp
// uses for it right now. /v1/info, /v1/stats, the write replies and the
// serve banner all read it.
type Status struct {
	Epoch uint64
	// Dims is the query dimensionality (0 until the first insert when the
	// cluster was founded over empty members); Kernel and Gamma name the
	// kernel the cluster serves.
	Dims   int
	Kernel string
	Gamma  float64
	// Points is the members' total, the sum of Members[i].Points.
	Points  int
	Members []MemberStatus
	// Splits, Promotions and Quarantines count the membership changes that
	// led to Epoch; Rescatters the reads re-run after straddling one.
	Splits, Promotions, Quarantines, Rescatters int64
	// Exchange counts Threshold and Approximate queries and their rounds.
	Exchange ExchangeStats
}

// MemberStatus is one member's row, the JSON unit of the coordinator's
// /v1/stats "shards": its manifest entry, its cardinality and weight mass
// W_S as the a-priori clamp [klo·W_S, khi·W_S] uses them, the coordinator's
// counters and latency quantiles for calls to it, and its followers.
type MemberStatus struct {
	ID   uint64 `json:"id"`
	Name string `json:"name"`
	Role string `json:"role"`
	// Quarantined reports a member recorded in the manifest with no write
	// client: its mass stays in the coverage denominator.
	Quarantined bool             `json:"quarantined"`
	Points      int              `json:"points"`
	Weight      float64          `json:"weight"`
	Requests    int64            `json:"requests"`
	Errors      int64            `json:"errors"`
	Retries     int64            `json:"retries"`
	Hedges      int64            `json:"hedges"`
	HedgeWins   int64            `json:"hedge_wins"`
	P50Millis   float64          `json:"p50_ms"`
	P99Millis   float64          `json:"p99_ms"`
	Followers   []FollowerStatus `json:"followers,omitempty"`
}

// Status reads the coordinator at its current epoch and asks every attached
// follower of every member, in one probe, for its replication state; a
// follower that does not answer reads "unreachable".
func (w *Coordinator) Status(ctx context.Context) Status {
	ep := w.ep.Load()
	st := ep.status()
	var fols []FollowerClient
	for _, m := range ep.members {
		fols = append(fols, m.followers...)
	}
	probes := w.probe(ctx, fols)
	for i, m := range ep.members {
		if len(m.followers) == 0 {
			continue
		}
		rows := make([]FollowerStatus, len(m.followers))
		for j, f := range m.followers {
			rows[j] = FollowerStatus{Name: f.Name(), State: "unreachable"}
			if p := probes[j]; p.ok {
				rows[j] = FollowerStatus{Name: f.Name(), State: p.State, AckedSeq: p.Fence, Lag: p.Lag()}
			}
		}
		probes = probes[len(rows):]
		st.Members[i].Followers = rows
	}
	return st
}

// status is Status without the follower probes: each member's followers are
// the replica set its manifest entry recorded when the epoch was installed.
func (ep *epoch) status() Status {
	st := Status{
		Epoch: ep.man.Epoch, Dims: ep.dims, Kernel: ep.kernel, Gamma: ep.gamma,
		Members: make([]MemberStatus, len(ep.members)),
		Splits:  ep.splits, Promotions: ep.promotions, Quarantines: ep.quarantines,
		Rescatters: ep.co.rescatters.Load(), Exchange: ep.co.exch.load(),
	}
	for i, m := range ep.members {
		mb := &ep.man.Members[i] // members are in manifest order
		info := m.info.Load()
		row := MemberStatus{
			ID:          mb.ID,
			Name:        mb.Name,
			Role:        mb.Role.String(),
			Quarantined: ep.clients[mb.ID] == nil,
			Points:      info.Points,
			Weight:      info.Weight(),
			Requests:    m.requests.Load(),
			Errors:      m.errors.Load(),
			Retries:     m.retries.Load(),
			Hedges:      m.hedges.Load(),
			HedgeWins:   m.hedgeWins.Load(),
			P50Millis:   float64(m.lat.quantile(0.50)) / float64(time.Millisecond),
			P99Millis:   float64(m.lat.quantile(0.99)) / float64(time.Millisecond),
		}
		for _, r := range mb.Replicas {
			row.Followers = append(row.Followers, FollowerStatus{Name: r.Name, State: r.Role.String(), AckedSeq: r.AckedSeq})
		}
		st.Members[i] = row
		st.Points += info.Points
	}
	return st
}

// ShardHealth is one shard's readiness probe result.
type ShardHealth struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Err  string `json:"error,omitempty"`
}

// Health probes every shard's readiness concurrently (primary, then
// replicas on failure).
func (w *Coordinator) Health(ctx context.Context) []ShardHealth {
	ep := w.ep.Load()
	out := make([]ShardHealth, len(ep.members))
	var wg sync.WaitGroup
	for i, s := range ep.members {
		wg.Add(1)
		go func(i int, s *member) {
			defer wg.Done()
			targets := append([]ShardClient{s.client}, s.replicas...)
			var err error
			for _, t := range targets {
				pctx, cancel := context.WithTimeout(ctx, w.cfg.Timeout)
				err = t.Healthy(pctx)
				cancel()
				if err == nil {
					break
				}
			}
			h := ShardHealth{Name: s.client.Name(), OK: err == nil}
			if err != nil {
				h.Err = err.Error()
			}
			out[i] = h
		}(i, s)
	}
	wg.Wait()
	return out
}
