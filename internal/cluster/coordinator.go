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

// Config tunes the coordinator's robustness and refinement behavior. The
// zero value picks production defaults.
type Config struct {
	// Timeout bounds each shard attempt (default 2s).
	Timeout time.Duration
	// Retries is the number of retry attempts after a failed call
	// (default 1; negative disables retries).
	Retries int
	// Backoff is the pause before a retry (default 50ms).
	Backoff time.Duration
	// HedgeMin floors the hedge delay so cold windows with microsecond
	// samples don't hedge every call (default 1ms).
	HedgeMin time.Duration
}

const (
	// hedgeQuantile arms a hedged request to a replica once the primary
	// has been in flight longer than this latency quantile of recent
	// successful calls. Hedging needs replicas and a warm latency window;
	// otherwise calls are unhedged.
	hedgeQuantile = 0.9
	// maxRounds caps adaptive bound-exchange rounds before the coordinator
	// forces an exact round.
	maxRounds = 6
)

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	switch {
	case c.Retries == 0:
		c.Retries = 1
	case c.Retries < 0:
		c.Retries = 0
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = time.Millisecond
	}
	return c
}

// Shard names one shard's primary client plus optional replicas serving
// the same slice of the dataset (hedge and retry targets).
type Shard struct {
	Client   ShardClient
	Replicas []ShardClient
}

// shardState is the coordinator's per-shard bookkeeping: identity, the
// latency window driving hedge delays, and the robustness counters
// surfaced in /v1/stats.
type shardState struct {
	client   ShardClient
	replicas []ShardClient
	// info is the shard's dataset description as of construction or, under
	// a WritableCoordinator, as of the last write routed to it (setMass):
	// the a-priori clamp [klo·W_S, khi·W_S] every exchange starts from is
	// only sound while W_S is current.
	info atomic.Pointer[ShardInfo]

	lat       latencyWindow
	requests  atomic.Int64
	errors    atomic.Int64
	retries   atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
}

// Coordinator answers Aggregate/Threshold/Approximate queries by
// scatter-gather over shard engines, composing per-shard certified bounds
// into global ones (see the package comment for the protocol).
type Coordinator struct {
	cfg    Config
	shards []*shardState

	dims   int
	kernel string
	gamma  float64
	// klo/khi is the kernel's per-unit-weight value range, the basis for
	// a-priori shard bounds when a shard has not answered yet (±Inf for
	// unbounded kernels).
	klo, khi float64

	// exch counts queries and scatter rounds for /v1/stats. A pointer, so a
	// WritableCoordinator can carry one set across its membership epochs.
	exch *exchangeCounters
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

// Exchange snapshots the bound-exchange counters.
func (co *Coordinator) Exchange() ExchangeStats {
	return ExchangeStats{
		ThresholdQueries:   co.exch.thresholdQueries.Load(),
		ThresholdRounds:    co.exch.thresholdRounds.Load(),
		ApproximateQueries: co.exch.approximateQueries.Load(),
		ApproximateRounds:  co.exch.approximateRounds.Load(),
	}
}

// New builds a coordinator over the given shards, fetching and
// cross-validating every shard's Info (dims, kernel family, gamma must
// agree — they describe one partitioned dataset). All shards must be
// reachable at construction: without a shard's weight masses the
// coordinator cannot budget refinement or account degraded coverage.
func New(ctx context.Context, shards []Shard, cfg Config) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: need at least one shard")
	}
	cfg = cfg.withDefaults()
	co := &Coordinator{cfg: cfg, shards: make([]*shardState, len(shards)), exch: new(exchangeCounters)}
	for i, sp := range shards {
		if sp.Client == nil {
			return nil, fmt.Errorf("cluster: shard %d has no client", i)
		}
		co.shards[i] = &shardState{client: sp.Client, replicas: sp.Replicas}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(shards))
	for i, s := range co.shards {
		wg.Add(1)
		go func(i int, s *shardState) {
			defer wg.Done()
			info, err := call(ctx, co, s, func(ctx context.Context, c ShardClient) (ShardInfo, error) {
				return c.Info(ctx)
			})
			if err != nil {
				errs[i] = err
				return
			}
			s.info.Store(&info)
		}(i, s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("cluster: shard discovery failed: %w", err)
	}

	// The dataset identity comes from the first shard that holds a point: a
	// shard still empty has no dimensionality yet (a writable cluster founded
	// over empty members fills them one routed insert at a time).
	first := co.shards[0].info.Load()
	for _, s := range co.shards {
		if info := s.info.Load(); info.Dims != 0 {
			first = info
			break
		}
	}
	co.dims, co.kernel, co.gamma = first.Dims, first.Kernel, first.Gamma
	co.klo, co.khi = kernelRange(first.Kernel)
	for _, s := range co.shards {
		info := s.info.Load()
		if info.Kernel != co.kernel || info.Gamma != co.gamma || info.Dims != 0 && info.Dims != co.dims {
			return nil, fmt.Errorf(
				"cluster: shard %s serves (%s γ=%v, %dd), want (%s γ=%v, %dd): shards must hold one partitioned dataset",
				s.client.Name(), info.Kernel, info.Gamma, info.Dims, co.kernel, co.gamma, co.dims)
		}
	}
	return co, nil
}

// weight returns the shard's current weight mass W_S.
func (s *shardState) weight() float64 { return s.info.Load().Weight() }

// setMass replaces shard i's cardinality and weight masses — the write
// path of a WritableCoordinator calls it after every acknowledged write,
// so queries starting afterwards clamp against the shard's current mass.
func (co *Coordinator) setMass(i int, m server.MassResponse) {
	info := *co.shards[i].info.Load()
	info.Points, info.WPos, info.WNeg = m.Points, m.WeightPos, m.WeightNeg
	co.shards[i].info.Store(&info)
}

// weightTotal sums the shards' current weight masses.
func (co *Coordinator) weightTotal() float64 {
	var w float64
	for _, s := range co.shards {
		w += s.weight()
	}
	return w
}

// Dims returns the query dimensionality.
func (co *Coordinator) Dims() int { return co.dims }

// Points returns the total dataset cardinality across shards.
func (co *Coordinator) Points() int {
	n := 0
	for _, s := range co.shards {
		n += s.info.Load().Points
	}
	return n
}

// KernelName returns the kernel family the cluster serves.
func (co *Coordinator) KernelName() string { return co.kernel }

// Gamma returns the kernel bandwidth parameter.
func (co *Coordinator) Gamma() float64 { return co.gamma }

// NumShards returns the shard count.
func (co *Coordinator) NumShards() int { return len(co.shards) }

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
func (co *Coordinator) apriori(info ShardInfo) (lb, ub float64) {
	if info.WPos == 0 && info.WNeg == 0 {
		return 0, 0
	}
	if math.IsInf(co.khi, 1) {
		return math.Inf(-1), math.Inf(1)
	}
	return info.WPos*co.klo - info.WNeg*co.khi, info.WPos*co.khi - info.WNeg*co.klo
}

func (co *Coordinator) checkQuery(q []float64) error {
	if co.dims == 0 {
		return errors.New("cluster: no shard holds a point yet")
	}
	if len(q) != co.dims {
		return fmt.Errorf("cluster: query has %d dims, want %d", len(q), co.dims)
	}
	for i, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cluster: q[%d] is not finite", i)
		}
	}
	return nil
}

// Aggregate computes F_P(q) = Σ_S F_S(q) exactly over the reachable
// shards, one scatter-gather with per-shard timeout/retry/hedging. A shard
// without weight mass contributes exactly 0 and is asked nothing (an empty
// engine would refuse the query and flag the answer partial for no reason).
func (co *Coordinator) Aggregate(ctx context.Context, q []float64) (server.Result, error) {
	if err := co.checkQuery(q); err != nil {
		return server.Result{}, err
	}
	values := make([]float64, len(co.shards))
	failures := make([]error, len(co.shards))
	asked := 0
	var wg sync.WaitGroup
	for i, s := range co.shards {
		if s.weight() == 0 {
			continue
		}
		asked++
		wg.Add(1)
		go func(i int, s *shardState) {
			defer wg.Done()
			v, err := call(ctx, co, s, func(ctx context.Context, c ShardClient) (float64, error) {
				return c.Aggregate(ctx, q)
			})
			values[i], failures[i] = v, err
		}(i, s)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return server.Result{}, err
	}

	var sum, aliveW float64
	var failed []string
	var firstErr error
	for i, s := range co.shards {
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
	if asked > 0 && len(failed) == asked {
		return server.Result{}, fmt.Errorf("%w: all %d shards failed (first error: %v)", ErrUnavailable, asked, firstErr)
	}
	return server.Result{
		Value:   sum,
		LB:      sum,
		UB:      sum,
		Partial: len(failed) > 0,
		Covered: co.coveredFraction(aliveW, len(failed)),
		Failed:  failed,
	}, nil
}

// coveredFraction maps reachable weight mass to the Covered contract
// field, degrading to a shard-count fraction for weightless datasets.
func (co *Coordinator) coveredFraction(aliveW float64, nFailed int) float64 {
	if nFailed == 0 {
		return 1
	}
	if wTotal := co.weightTotal(); wTotal > 0 {
		return aliveW / wTotal
	}
	return float64(len(co.shards)-nFailed) / float64(len(co.shards))
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
// mixed round re-splits over the tighter intervals. While the query is
// undecided Σlb ≤ τ < Σub, so lb_i ≤ t_i < ub_i and a shard cannot stop
// without cutting its interval: every round makes progress. The sums are
// tested after every arrival and a verdict cancels outstanding shard work;
// after maxRounds the round is exact. Any stopping rule is sound here —
// shards only ever return certified intervals, and the verdict rests on
// their intersection and sum alone.
func (co *Coordinator) Threshold(ctx context.Context, q []float64, tau float64) (server.Result, error) {
	if err := co.checkQuery(q); err != nil {
		return server.Result{}, err
	}
	if math.IsNaN(tau) || math.IsInf(tau, 0) {
		return server.Result{}, fmt.Errorf("cluster: tau must be finite, got %v", tau)
	}
	co.exch.thresholdQueries.Add(1)

	st := make([]*exchState, len(co.shards))
	for i, s := range co.shards {
		lb, ub := co.apriori(*s.info.Load())
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
			return co.thresholdResult(over, st), nil
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
				ErrIndeterminate, 100*(1-co.coveredFraction(co.aliveWeight(st), co.countDead(st))))
		}
		exactRound := round >= maxRounds
		share := (tau - lb) / (ub - lb)
		co.exch.thresholdRounds.Add(1)

		rctx, cancel := context.WithCancel(ctx)
		scatter(todo, func(i int) {
			t := st[i].lb + share*st[i].gap()
			if math.IsNaN(t) || math.IsInf(t, 0) {
				// An unbounded kernel has no a-priori interval to split:
				// start from the mass share.
				t = tau * co.massShare(i)
			}
			b, err := call(rctx, co, co.shards[i], func(ctx context.Context, c ShardClient) (Bounds, error) {
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
func (co *Coordinator) massShare(i int) float64 {
	if wTotal := co.weightTotal(); wTotal > 0 {
		return co.shards[i].weight() / wTotal
	}
	return 1 / float64(len(co.shards))
}

// scatter runs fn(i) for every i in todo at once and waits for all of
// them; the last runs on the calling goroutine.
func scatter(todo []int, fn func(i int)) {
	var wg sync.WaitGroup
	last := len(todo) - 1
	for _, i := range todo[:last] {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	fn(todo[last])
	wg.Wait()
}

func (co *Coordinator) aliveWeight(st []*exchState) float64 {
	var w float64
	for i, s := range st {
		if s.alive {
			w += co.shards[i].weight()
		}
	}
	return w
}

func (co *Coordinator) countDead(st []*exchState) int {
	n := 0
	for _, s := range st {
		if !s.alive {
			n++
		}
	}
	return n
}

func (co *Coordinator) thresholdResult(over bool, st []*exchState) server.Result {
	var failed []string
	for i, s := range st {
		if !s.alive {
			failed = append(failed, co.shards[i].client.Name())
		}
	}
	return server.Result{
		Over:    over,
		Partial: len(failed) > 0,
		Covered: co.coveredFraction(co.aliveWeight(st), len(failed)),
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
func (co *Coordinator) Approximate(ctx context.Context, q []float64, eps float64) (server.Result, error) {
	if err := co.checkQuery(q); err != nil {
		return server.Result{}, err
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		return server.Result{}, fmt.Errorf("cluster: eps must be positive and finite, got %v", eps)
	}

	co.exch.approximateQueries.Add(1)

	// A shard without weight mass is known exactly — [0, 0] — before it is
	// asked anything, so it counts as answered and no round includes it.
	st := make([]*exchState, len(co.shards))
	var all []int
	for i, s := range co.shards {
		lb, ub := co.apriori(*s.info.Load())
		st[i] = &exchState{lb: lb, ub: ub, eps: eps, alive: true, queried: s.weight() == 0}
		if !st[i].queried {
			all = append(all, i)
		}
	}

	var mu sync.Mutex
	notFinite := false
	runRound := func(todo []int, exact bool) error {
		co.exch.approximateRounds.Add(1)
		scatter(todo, func(i int) {
			budget := st[i].eps
			if exact {
				budget = 0
			}
			b, err := call(ctx, co, co.shards[i], func(ctx context.Context, c ShardClient) (Bounds, error) {
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
			aliveW += co.shards[i].weight()
		}
		if len(all) > 0 && len(covered) == len(st)-len(all) {
			// Only the massless shards, which were never asked, are left.
			return server.Result{}, fmt.Errorf("%w: all %d shards failed", ErrUnavailable, len(all))
		}
		if core.CondApprox(lb, ub, eps) {
			return co.approxResult(lb, ub, st), nil
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
				share = co.shards[i].weight() / aliveW
			}
			if st[i].gap() > allow*share {
				todo = append(todo, i)
			}
		}
		if len(todo) == 0 {
			// Σ gap ≤ Σ allocation = allowance: certificate holds.
			return co.approxResult(lb, ub, st), nil
		}
		if err := runRound(todo, exact); err != nil {
			return server.Result{}, err
		}
	}
}

func (co *Coordinator) approxResult(lb, ub float64, st []*exchState) server.Result {
	var failed []string
	var aliveW float64
	for i, s := range st {
		if s.alive && s.queried {
			aliveW += co.shards[i].weight()
		} else {
			failed = append(failed, co.shards[i].client.Name())
		}
	}
	return server.Result{
		Value:   (lb + ub) / 2,
		LB:      lb,
		UB:      ub,
		Partial: len(failed) > 0,
		Covered: co.coveredFraction(aliveW, len(failed)),
		Failed:  failed,
	}
}

// call runs one logical shard operation with the robustness ladder:
// per-attempt timeout, a hedged request to a replica once the primary
// outlives its recent latency quantile, and a retry with backoff after a
// failure. Counters record every rung for /v1/stats.
func call[T any](ctx context.Context, co *Coordinator, s *shardState, fn func(context.Context, ShardClient) (T, error)) (T, error) {
	s.requests.Add(1)
	attempt := func(c ShardClient) (T, error) {
		actx, cancel := context.WithTimeout(ctx, co.cfg.Timeout)
		defer cancel()
		t0 := time.Now()
		v, err := fn(actx, c)
		if err == nil {
			s.lat.record(time.Since(t0))
		}
		return v, err
	}

	v, err := hedged(co, s, attempt)
	if err == nil {
		return v, nil
	}
	var zero T
	if ctx.Err() != nil || errors.Is(err, errNotFinite) {
		// The caller cancelled (verdict reached, deadline) or the shard's
		// answer is an overflow: not a shard failure, no retry, no error counter.
		return zero, err
	}
	for r := 0; r < co.cfg.Retries; r++ {
		select {
		case <-time.After(co.cfg.Backoff):
		case <-ctx.Done():
			return zero, ctx.Err()
		}
		s.retries.Add(1)
		target := s.client
		if len(s.replicas) > 0 {
			target = s.replicas[r%len(s.replicas)]
		}
		if v, rerr := attempt(target); rerr == nil {
			return v, nil
		} else if ctx.Err() == nil {
			err = rerr
		}
	}
	s.errors.Add(1)
	return zero, err
}

// hedged runs one attempt against the primary, arming a second attempt
// against the first replica if the primary is still in flight past the
// configured latency quantile. First success wins; the loser's context is
// cancelled through the attempt timeout.
func hedged[T any](co *Coordinator, s *shardState, attempt func(ShardClient) (T, error)) (T, error) {
	var zero T
	delay := time.Duration(s.lat.hedge.Load())
	if delay == 0 || len(s.replicas) == 0 {
		return attempt(s.client)
	}
	if delay < co.cfg.HedgeMin {
		delay = co.cfg.HedgeMin
	}

	type outcome struct {
		v       T
		err     error
		replica bool
	}
	ch := make(chan outcome, 2)
	go func() {
		v, err := attempt(s.client)
		ch <- outcome{v, err, false}
	}()
	timer := time.NewTimer(delay)
	defer timer.Stop()

	pending := 1
	launched := false
	var firstErr error
	for {
		select {
		case o := <-ch:
			pending--
			if o.err == nil {
				if o.replica {
					s.hedgeWins.Add(1)
				}
				return o.v, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if pending == 0 {
				return zero, firstErr
			}
		case <-timer.C:
			if !launched {
				launched = true
				pending++
				s.hedges.Add(1)
				go func() {
					v, err := attempt(s.replicas[0])
					ch <- outcome{v, err, true}
				}()
			}
		}
	}
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
	tmp := make([]time.Duration, l.n)
	copy(tmp, l.buf[:l.n])
	slices.Sort(tmp)
	return tmp[int(q*float64(l.n-1))]
}

// quantile is quantileLocked for stats reporting, without the warm-up gate.
func (l *latencyWindow) quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quantileLocked(q)
}

// ShardStats is one shard's robustness counters and latency profile, the
// JSON unit of the coordinator's /v1/stats.
type ShardStats struct {
	Name      string  `json:"name"`
	Points    int     `json:"points"`
	Weight    float64 `json:"weight"`
	Replicas  int     `json:"replicas"`
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	Retries   int64   `json:"retries"`
	Hedges    int64   `json:"hedges"`
	HedgeWins int64   `json:"hedge_wins"`
	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`
}

// Stats snapshots per-shard counters for monitoring.
func (co *Coordinator) Stats() []ShardStats {
	out := make([]ShardStats, len(co.shards))
	for i, s := range co.shards {
		p50, p99 := s.lat.quantile(0.50), s.lat.quantile(0.99)
		out[i] = ShardStats{
			Name:      s.client.Name(),
			Points:    s.info.Load().Points,
			Weight:    s.weight(),
			Replicas:  len(s.replicas),
			Requests:  s.requests.Load(),
			Errors:    s.errors.Load(),
			Retries:   s.retries.Load(),
			Hedges:    s.hedges.Load(),
			HedgeWins: s.hedgeWins.Load(),
			P50Millis: float64(p50) / float64(time.Millisecond),
			P99Millis: float64(p99) / float64(time.Millisecond),
		}
	}
	return out
}

// ShardHealth is one shard's readiness probe result.
type ShardHealth struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Err  string `json:"error,omitempty"`
}

// Health probes every shard's readiness concurrently (primary, then
// replicas on failure).
func (co *Coordinator) Health(ctx context.Context) []ShardHealth {
	out := make([]ShardHealth, len(co.shards))
	var wg sync.WaitGroup
	for i, s := range co.shards {
		wg.Add(1)
		go func(i int, s *shardState) {
			defer wg.Done()
			targets := append([]ShardClient{s.client}, s.replicas...)
			var err error
			for _, t := range targets {
				pctx, cancel := context.WithTimeout(ctx, co.cfg.Timeout)
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
