package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"karl"
	"karl/internal/cluster"
	"karl/internal/replica"
	"karl/internal/shard"
)

// replicaBenchConfig bundles the -replica workload knobs.
type replicaBenchConfig struct {
	n, sealSize, fanout int
	seed                int64
}

// errKilled simulates a crashed member in the failover phase.
var errKilled = errors.New("karl-bench: member killed")

// killableShard wraps a mutable shard client with a kill switch: once
// down, every call fails — the in-process stand-in for a crashed
// karl-serve leader.
type killableShard struct {
	inner cluster.MutableShardClient
	down  atomic.Bool
}

func (k *killableShard) Name() string { return k.inner.Name() }

func (k *killableShard) Info(ctx context.Context) (cluster.ShardInfo, error) {
	if k.down.Load() {
		return cluster.ShardInfo{}, errKilled
	}
	return k.inner.Info(ctx)
}

func (k *killableShard) Healthy(ctx context.Context) error {
	if k.down.Load() {
		return errKilled
	}
	return k.inner.Healthy(ctx)
}

func (k *killableShard) Aggregate(ctx context.Context, q []float64) (float64, error) {
	if k.down.Load() {
		return 0, errKilled
	}
	return k.inner.Aggregate(ctx, q)
}

func (k *killableShard) Bounds(ctx context.Context, q []float64, eps float64) (cluster.Bounds, error) {
	if k.down.Load() {
		return cluster.Bounds{}, errKilled
	}
	return k.inner.Bounds(ctx, q, eps)
}

func (k *killableShard) ThresholdBounds(ctx context.Context, q []float64, tau float64) (cluster.Bounds, error) {
	if k.down.Load() {
		return cluster.Bounds{}, errKilled
	}
	return k.inner.ThresholdBounds(ctx, q, tau)
}

func (k *killableShard) Insert(ctx context.Context, points [][]float64, weights []float64) ([]uint64, error) {
	if k.down.Load() {
		return nil, errKilled
	}
	return k.inner.Insert(ctx, points, weights)
}

func (k *killableShard) Delete(ctx context.Context, id uint64) error {
	if k.down.Load() {
		return errKilled
	}
	return k.inner.Delete(ctx, id)
}

func (k *killableShard) DeleteMany(ctx context.Context, ids []uint64) (int, error) {
	if k.down.Load() {
		return 0, errKilled
	}
	return k.inner.DeleteMany(ctx, ids)
}

func (k *killableShard) WriteMass() (cluster.Mass, bool) { return k.inner.WriteMass() }

func (k *killableShard) SplitOut(ctx context.Context, rule shard.SplitRule, auto bool) (cluster.SplitResult, error) {
	if k.down.Load() {
		return cluster.SplitResult{}, errKilled
	}
	return k.inner.SplitOut(ctx, rule, auto)
}

// runReplicaBench measures the replication subsystem's three headline
// numbers on in-process engines (no HTTP, so the figures isolate the
// subsystem itself from network cost):
//
//  1. catch-up throughput — a fresh follower pulling a loaded leader's
//     sealed segments and memtable tail to convergence, in points/sec;
//  2. steady-state lag — the follower's seq lag sampled while the
//     leader absorbs a sustained insert stream with the pull loop at a
//     5ms interval;
//  3. failover time — a two-member writable cluster loses a leader with
//     a caught-up follower attached: the time from the kill to the
//     first successfully routed insert (the write path detects the dead
//     member, promotes the follower and retries internally) and from
//     there to a full-coverage aggregate.
func runReplicaBench(cfg replicaBenchConfig) error {
	if cfg.n < 64 {
		return fmt.Errorf("-maxn %d too small for -replica", cfg.n)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	const dim = 8
	pts := clusterPoints(rng, cfg.n, dim)
	mk := func() (*karl.DynamicEngine, error) {
		return karl.NewDynamic(karl.Gaussian(20),
			karl.WithSealSize(cfg.sealSize), karl.WithCompactionFanout(cfg.fanout))
	}

	// --- Phase 1: catch-up throughput over sealed segments + tail.
	leader, err := mk()
	if err != nil {
		return err
	}
	for _, p := range pts {
		if err := leader.Insert(p, 1); err != nil {
			return err
		}
	}
	follower, err := mk()
	if err != nil {
		return err
	}
	ctx := context.Background()
	a := replica.NewApplier(follower, replica.EngineSource{Eng: leader})
	start := time.Now()
	if err := a.CatchUp(ctx); err != nil {
		return err
	}
	catchUp := time.Since(start)
	fmt.Printf("replica bench: n=%d dim=%d seal=%d fanout=%d seed=%d\n",
		cfg.n, dim, cfg.sealSize, cfg.fanout, cfg.seed)
	fmt.Printf("catch-up: %d points in %v  (%.0f points/sec, %d segments, %d sync rounds)\n",
		follower.Len(), catchUp.Round(time.Microsecond),
		float64(follower.Len())/catchUp.Seconds(), len(follower.Segments()), a.Syncs())

	// --- Phase 2: steady-state lag under a sustained insert stream.
	runCtx, cancel := context.WithCancel(ctx)
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		_ = a.Run(runCtx, 5*time.Millisecond)
	}()
	var lags []uint64
	writeFor := 500 * time.Millisecond
	writeStart := time.Now()
	inserted := 0
	for time.Since(writeStart) < writeFor {
		for i := 0; i < 64; i++ {
			p := make([]float64, dim)
			for j := range p {
				p[j] = rng.NormFloat64() * 0.3
			}
			if err := leader.Insert(p, 1); err != nil {
				cancel()
				return err
			}
			inserted++
		}
		// Status().Lag() is relative to the leader seq captured at the
		// follower's last pull; sampling against the leader's live
		// counter measures the true in-flight backlog.
		st := a.Status()
		if ls := leader.NextSeq(); ls > st.NextSeq {
			lags = append(lags, ls-st.NextSeq)
		} else {
			lags = append(lags, 0)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Drain: how long until the follower covers the final watermark.
	drainStart := time.Now()
	target := leader.NextSeq()
	for a.Status().NextSeq < target {
		time.Sleep(time.Millisecond)
	}
	drain := time.Since(drainStart)
	cancel()
	<-runDone
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	var sum uint64
	for _, l := range lags {
		sum += l
	}
	fmt.Printf("steady-state lag: %d inserts over %v with 5ms pulls — mean %.0f seqs, p50 %d, max %d; drain to lag 0 in %v\n",
		inserted, writeFor, float64(sum)/float64(len(lags)),
		lags[len(lags)/2], lags[len(lags)-1], drain.Round(time.Microsecond))

	// --- Phase 3: leader kill → promotion → first answer.
	lead1, err := mk()
	if err != nil {
		return err
	}
	lead2, err := mk()
	if err != nil {
		return err
	}
	fol1, err := mk()
	if err != nil {
		return err
	}
	half := cfg.n / 2
	for i, p := range pts {
		eng := lead1
		if i >= half {
			eng = lead2
		}
		if err := eng.Insert(p, 1); err != nil {
			return err
		}
	}
	fa := replica.NewApplier(fol1, replica.EngineSource{Eng: lead1})
	if err := fa.CatchUp(ctx); err != nil {
		return err
	}
	killable := &killableShard{inner: cluster.NewLocalMutableShard("m1", lead1)}
	wco, err := cluster.NewWritable(ctx, shard.Hash, []cluster.WritableShard{
		{Name: "m1", Client: killable, Followers: []cluster.FollowerClient{
			cluster.NewLocalFollower("m1-replica", fa),
		}},
		{Name: "m2", Client: cluster.NewLocalMutableShard("m2", lead2)},
	}, nil, cluster.WritableConfig{Config: cluster.Config{Timeout: time.Second}})
	if err != nil {
		return err
	}
	batch := make([][]float64, 64)
	for i := range batch {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.NormFloat64() * 0.3
		}
		batch[i] = p
	}
	killable.down.Store(true)
	killStart := time.Now()
	if _, err := wco.Insert(ctx, batch, nil); err != nil {
		return fmt.Errorf("insert after kill (auto-failover): %w", err)
	}
	firstWrite := time.Since(killStart)
	q := make([]float64, dim)
	for j := range q {
		q[j] = 0.2
	}
	res, err := wco.Aggregate(ctx, q)
	if err != nil {
		return err
	}
	firstRead := time.Since(killStart)
	if res.Partial {
		return fmt.Errorf("aggregate still partial after promotion (covered %.3f)", res.Covered)
	}
	if wco.Promotions() != 1 {
		return fmt.Errorf("promotions = %d, want 1", wco.Promotions())
	}
	fmt.Printf("failover: leader killed with caught-up follower — first routed write in %v (includes promotion), full-coverage read in %v\n",
		firstWrite.Round(time.Microsecond), firstRead.Round(time.Microsecond))
	return nil
}
