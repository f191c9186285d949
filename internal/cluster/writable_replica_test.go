package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"karl"
	"karl/internal/replica"
	"karl/internal/server"
	"karl/internal/shard"
)

// replicatedHTTPCluster builds an n-member writable cluster the way a
// deployment does: every leader a mutable front door behind a kill switch,
// every follower a front door of its own (karl-serve -replica-of) whose
// applier pulls the leader's /v1/replicate/tail — so a killed leader is dead
// to its follower too, and what gets promoted is the copy the follower held
// at that moment. Returns the coordinator, the leader engines, the kill
// switches and the appliers (the caller drives their catch-up), index-aligned
// with member ids 1..n.
func replicatedHTTPCluster(t *testing.T, n int, kern karl.Kernel) (*Coordinator, []*karl.Engine, []*downableHandler, []*replica.Applier) {
	t.Helper()
	engines := make([]*karl.Engine, n)
	switches := make([]*downableHandler, n)
	appliers := make([]*replica.Applier, n)
	founders := make([]WritableShard, n)
	for i := range founders {
		engines[i] = newDynEngine(t, kern, karl.KDTree)
		switches[i] = &downableHandler{inner: mutableServer(t, engines[i])}
		leader := listen(t, switches[i])
		mirror := newDynEngine(t, kern, karl.KDTree)
		appliers[i] = replica.NewApplier(mirror, replica.NewHTTPSource(leader.Name()))
		founders[i] = WritableShard{
			Name:      fmt.Sprintf("h%d", i),
			Client:    leader,
			Followers: []FollowerClient{listen(t, mutableServer(t, mirror, server.WithReplicaApplier(appliers[i])))},
		}
	}
	wco, err := NewWritable(context.Background(), shard.Hash, founders, httpSpawn(t),
		WritableConfig{Config: Config{Timeout: 2 * time.Second, Backoff: time.Millisecond}})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	return wco, engines, switches, appliers
}

// TestWritableChaosPromotionMidSplit is the failover half of the
// split-safety gate: a leader killed mid-split is ambiguous exactly as
// before, but when a caught-up follower exists the coordinator promotes
// it instead of quarantining — the member keeps its id (gid lineage and
// hash routing survive), takes the follower's name, and the cluster keeps
// answering with FULL coverage because the follower holds a converged
// copy of everything the dead leader acknowledged.
func TestWritableChaosPromotionMidSplit(t *testing.T) {
	ctx := context.Background()
	wco, _, switches, appliers := replicatedHTTPCluster(t, 2, karl.Gaussian(0.5))

	pts, w := dataset(400, 3, 41, "II")
	gids := mustInsert(t, wco, pts, w)
	for i := range pts {
		if i%9 == 4 {
			if err := wco.Delete(ctx, gids[i]); err != nil {
				t.Fatalf("Delete(%d): %v", gids[i], err)
			}
		}
	}
	// Converge member 2's follower, then freeze the leader's state so the
	// promoted copy must answer for it exactly.
	if err := appliers[1].CatchUp(ctx); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	q := []float64{0.2, -0.1, 0.5}
	full, err := wco.Aggregate(ctx, q)
	if err != nil || full.Partial {
		t.Fatalf("healthy aggregate: res=%+v err=%v", full, err)
	}

	// Kill the member-2 leader, then ask it to split: the response is
	// lost, the split is ambiguous, and failover must promote rather than
	// quarantine.
	follower := wco.Manifest().Member(2).Replicas[0].Name
	epoch0 := wco.Epoch()
	switches[1].down.Store(true)
	if err := wco.Split(ctx, 2); err == nil {
		t.Fatal("split against a dead shard must fail")
	}
	if got := wco.Promotions(); got != 1 {
		t.Fatalf("Promotions = %d, want 1", got)
	}
	if got := wco.Quarantines(); got != 0 {
		t.Fatalf("Quarantines = %d, want 0 (a live follower was available)", got)
	}
	if wco.Epoch() != epoch0+1 {
		t.Fatalf("promotion must advance the epoch: %d -> %d", epoch0, wco.Epoch())
	}
	if wco.NumShards() != 2 {
		t.Fatalf("promotion must not change membership size: %d", wco.NumShards())
	}
	if !appliers[1].Promoted() {
		t.Fatal("member 2's applier should have been promoted")
	}

	// The promoted membership answers with full coverage and the same
	// value as before the crash.
	res, err := wco.Aggregate(ctx, q)
	if err != nil {
		t.Fatalf("post-promotion aggregate: %v", err)
	}
	if res.Partial || res.Covered != 1 {
		t.Fatalf("post-promotion aggregate must have full coverage: %+v", res)
	}
	if diff := math.Abs(res.Value - full.Value); diff > 1e-9*math.Max(math.Abs(full.Value), 1) {
		t.Fatalf("post-promotion value %v, want %v", res.Value, full.Value)
	}

	// Manifest: member 2 keeps its id, takes the follower's name, stays a
	// leader, and no longer records the promoted replica.
	man := wco.Manifest()
	mb := man.Member(2)
	if mb == nil || mb.Name != follower || mb.Role != shard.RoleLeader {
		t.Fatalf("promoted member = %+v, want id 2 named %s with role leader", mb, follower)
	}
	for _, r := range mb.Replicas {
		if r.Name == follower {
			t.Fatalf("promoted follower must leave the replica set: %+v", mb.Replicas)
		}
	}

	// Gid lineage: ids the dead leader assigned still route to member 2
	// and now resolve against the promoted copy.
	deleted := false
	for i, gid := range gids {
		if i%9 == 4 || gid>>48 != 2 {
			continue
		}
		if err := wco.Delete(ctx, gid); err != nil {
			t.Fatalf("post-promotion Delete(%d): %v", gid, err)
		}
		deleted = true
		break
	}
	if !deleted {
		t.Fatal("dataset routed no points to member 2")
	}

	// Writes route again: the member is live, not quarantined.
	more, mw := dataset(60, 3, 43, "II")
	mustInsert(t, wco, more, mw)

	// The /v1/stats cluster block reports the new topology and counters.
	front := httptest.NewServer(NewWritableHTTPServer(wco))
	defer front.Close()
	hres, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer hres.Body.Close()
	var stats ClusterStatsResponse
	if err := json.NewDecoder(hres.Body).Decode(&stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.Cluster == nil {
		t.Fatal("writable /v1/stats must carry a cluster block")
	}
	if stats.Cluster.Promotions != 1 || stats.Cluster.Quarantines != 0 {
		t.Fatalf("cluster block counters = %+v", stats.Cluster)
	}
	var seen bool
	for _, m := range stats.Cluster.Members {
		if m.ID == 2 {
			seen = true
			if m.Name != follower || m.Role != "leader" || m.Quarantined {
				t.Fatalf("cluster block member 2 = %+v", m)
			}
		}
	}
	if !seen {
		t.Fatalf("cluster block missing member 2: %+v", stats.Cluster.Members)
	}
}

// TestWritableChaosPromotionUnderWrites is the chaos promotion acceptance
// gate: a 4-shard writable coordinator with one replication follower per
// shard, appliers running continuously under a sustained insert/delete
// stream, survives a leader kill — the very next routed insert fails over
// onto the caught-up follower automatically and the recovered cluster
// satisfies the ε/τ contracts against a monolithic DynamicEngine fed the
// identical mutation stream.
func TestWritableChaosPromotionUnderWrites(t *testing.T) {
	ctx := context.Background()
	kern := karl.Gaussian(0.5)
	wco, _, switches, appliers := replicatedHTTPCluster(t, 4, kern)
	mono := newDynEngine(t, kern, karl.KDTree)

	// Keep every follower pulling in the background for the whole run.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	runDone := make([]chan struct{}, len(appliers))
	for i, a := range appliers {
		runDone[i] = make(chan struct{})
		go func(a *replica.Applier, done chan struct{}) {
			defer close(done)
			_ = a.Run(runCtx, time.Millisecond)
		}(a, runDone[i])
	}

	// Wave 1 under live replication: inserts and deletes mirrored into the
	// monolith.
	pts1, w1 := dataset(360, 3, 7, "III")
	gids := mustInsert(t, wco, pts1, w1)
	mids, err := mono.InsertBulk(pts1, w1)
	if err != nil {
		t.Fatalf("mono.InsertBulk: %v", err)
	}
	for i := range pts1 {
		if i%7 != 0 {
			continue
		}
		if err := wco.Delete(ctx, gids[i]); err != nil {
			t.Fatalf("Delete(%d): %v", gids[i], err)
		}
		if err := mono.Delete(mids[i]); err != nil {
			t.Fatalf("mono.Delete(%d): %v", mids[i], err)
		}
	}

	// Converge the victim's follower so no acknowledged write is lost,
	// then kill the leader. The stream does NOT stop: the next insert that
	// routes to the dead member hits the failure, the coordinator promotes
	// the follower mid-call and retries onto it.
	const victim = 3 // member id; engines/switches index victim-1
	if err := appliers[victim-1].CatchUp(ctx); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	switches[victim-1].down.Store(true)

	pts2, w2 := dataset(200, 3, 8, "III")
	gids2 := mustInsert(t, wco, pts2, w2) // must succeed via auto-failover
	mids2, err := mono.InsertBulk(pts2, w2)
	if err != nil {
		t.Fatalf("mono.InsertBulk: %v", err)
	}
	if got := wco.Promotions(); got != 1 {
		t.Fatalf("Promotions = %d, want 1 (insert should have failed over)", got)
	}
	if got := wco.Quarantines(); got != 0 {
		t.Fatalf("Quarantines = %d, want 0", got)
	}

	// Keep mutating after the failover: deletes mix pre-kill ids assigned
	// by the dead leader (lineage must survive the promotion) with
	// post-promotion ones.
	for i := range pts1 {
		if i%7 == 0 || i%11 != 3 {
			continue
		}
		if err := wco.Delete(ctx, gids[i]); err != nil {
			t.Fatalf("post-promotion Delete(%d): %v", gids[i], err)
		}
		if err := mono.Delete(mids[i]); err != nil {
			t.Fatalf("mono.Delete(%d): %v", mids[i], err)
		}
	}
	for i := range pts2 {
		if i%5 != 1 {
			continue
		}
		if err := wco.Delete(ctx, gids2[i]); err != nil {
			t.Fatalf("Delete(%d): %v", gids2[i], err)
		}
		if err := mono.Delete(mids2[i]); err != nil {
			t.Fatalf("mono.Delete(%d): %v", mids2[i], err)
		}
	}

	// Quiesce before comparing: the membership rebuilt by the promotion
	// wired the surviving members' live followers in as read hedge
	// targets, and a hedged read may legitimately be served by a follower
	// within its replication lag (bounded staleness, documented in DESIGN
	// §7.2). The equivalence gate asserts the converged fixed point, so
	// drain that lag first.
	for i, a := range appliers {
		if i == victim-1 {
			continue
		}
		if err := a.CatchUp(ctx); err != nil {
			t.Fatalf("CatchUp(follower %d): %v", i, err)
		}
	}

	// The recovered cluster must satisfy the writable equivalence gate.
	const eps = 0.05
	queries, _ := dataset(5, 3, 11, "I")
	for qi, q := range queries {
		exact, _, err := mono.AggregateStats(q)
		if err != nil {
			t.Fatalf("mono.Aggregate: %v", err)
		}
		scale := math.Max(math.Abs(exact), 1)

		res, err := wco.Aggregate(ctx, q)
		if err != nil {
			t.Fatalf("q%d: Aggregate: %v", qi, err)
		}
		if res.Partial || res.Covered != 1 {
			t.Fatalf("q%d: unexpected partial result %+v", qi, res)
		}
		if diff := math.Abs(res.Value - exact); diff > 1e-9*scale {
			t.Errorf("q%d: aggregate %v, want %v (diff %g)", qi, res.Value, exact, diff)
		}

		margin := math.Max(0.05*math.Abs(exact), 1e-3)
		for _, tau := range []float64{exact - margin, exact + margin} {
			tr, err := wco.Threshold(ctx, q, tau)
			if err != nil {
				t.Fatalf("q%d: Threshold(%v): %v", qi, tau, err)
			}
			if want := exact > tau; tr.Over != want {
				t.Errorf("q%d: threshold(%v) = %v, want %v (exact %v)", qi, tau, tr.Over, want, exact)
			}
		}

		ar, err := wco.Approximate(ctx, q, eps)
		if err != nil {
			t.Fatalf("q%d: Approximate: %v", qi, err)
		}
		if tol := eps*math.Abs(exact) + 1e-9*scale; math.Abs(ar.Value-exact) > tol {
			t.Errorf("q%d: approximate %v outside ±%g of %v", qi, ar.Value, tol, exact)
		}
		if ar.LB-1e-9*scale > exact || ar.UB+1e-9*scale < exact {
			t.Errorf("q%d: exact %v outside certified [%v, %v]", qi, exact, ar.LB, ar.UB)
		}
	}

	// A split of the promoted member exercises the full lifecycle on the
	// recovered topology.
	if err := wco.Split(ctx, victim); err != nil {
		t.Fatalf("post-promotion Split: %v", err)
	}
	if wco.NumShards() != 5 {
		t.Fatalf("NumShards = %d after split, want 5", wco.NumShards())
	}

	// Shut the appliers down; the promoted one must already have exited
	// its run loop on its own.
	cancel()
	for i, done := range runDone {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("applier %d run loop did not stop", i)
		}
	}
}

// TestWritableChaosPromotionNotCaughtUp pins the fallback: a leader dying
// while its only follower is still mid-catch-up (never completed a first
// sync) cannot promote — the copy would silently miss acknowledged writes
// — so the member is quarantined and answers degrade to the explicit
// partial contract, exactly as if it had no follower at all.
func TestWritableChaosPromotionNotCaughtUp(t *testing.T) {
	ctx := context.Background()
	wco, engines, switches, appliers := replicatedHTTPCluster(t, 2, karl.Gaussian(0.5))

	pts, w := dataset(300, 3, 23, "II")
	mustInsert(t, wco, pts, w)
	if st := appliers[1].Status(); st.State == replica.StateLive {
		t.Fatalf("precondition: follower must not be caught up yet, state %q", st.State)
	}

	q := []float64{0.1, 0.4, -0.2}
	aliveF, _, err := engines[0].AggregateStats(q)
	if err != nil {
		t.Fatalf("engine aggregate: %v", err)
	}

	switches[1].down.Store(true)
	if err := wco.Split(ctx, 2); err == nil {
		t.Fatal("split against a dead shard must fail")
	}
	if got := wco.Promotions(); got != 0 {
		t.Fatalf("Promotions = %d, want 0 (follower never caught up)", got)
	}
	if got := wco.Quarantines(); got != 1 {
		t.Fatalf("Quarantines = %d, want 1", got)
	}

	res, err := wco.Aggregate(ctx, q)
	if err != nil {
		t.Fatalf("degraded aggregate: %v", err)
	}
	if !res.Partial || len(res.Failed) != 1 {
		t.Fatalf("degraded aggregate should be partial with one failed member: %+v", res)
	}
	if math.Abs(res.Value-aliveF) > 1e-9*math.Max(math.Abs(aliveF), 1) {
		t.Fatalf("partial value %v, want live mass %v", res.Value, aliveF)
	}
	if _, err := wco.Insert(ctx, pts[:8], nil); err == nil {
		t.Fatal("insert routing to a quarantined member must fail")
	}
}

// TestWritableOperatorPromote exercises the operational failover entry
// point: promoting a healthy member's follower by hand swaps the write
// path onto the follower immediately, and the old leader — still alive —
// is simply out of the membership.
func TestWritableOperatorPromote(t *testing.T) {
	ctx := context.Background()
	wco, _, _, appliers := replicatedHTTPCluster(t, 2, karl.Gaussian(1))

	pts, w := dataset(200, 3, 17, "I")
	gids := mustInsert(t, wco, pts, w)
	if err := appliers[0].CatchUp(ctx); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	if err := wco.Promote(ctx, 1); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if !appliers[0].Promoted() {
		t.Fatal("member 1's applier should be promoted")
	}
	// Promoting again must fail loudly: the follower set is empty now.
	if err := wco.Promote(ctx, 1); err == nil {
		t.Fatal("second promotion must fail: no follower left")
	}
	// Writes and pre-promotion ids keep working against the new leader.
	for i, gid := range gids {
		if gid>>48 != 1 || i%2 == 0 {
			continue
		}
		if err := wco.Delete(ctx, gid); err != nil {
			t.Fatalf("Delete(%d): %v", gid, err)
		}
	}
	mustInsert(t, wco, pts[:20], nil)
}

// TestWritableMemberStateSurvivesSplit: what the coordinator has learned about
// a member — its request and hedge counters, the latency window that arms the
// hedge — belongs to the member, not to the epoch. Member 1 has a caught-up
// follower and a warm window; splitting member 2 installs a new epoch, and
// member 1 must come out of it with its counters where they were and its hedge
// still armed (a cold window would mean no hedging for the next warmSamples
// calls, exactly after a membership change).
func TestWritableMemberStateSurvivesSplit(t *testing.T) {
	ctx := context.Background()
	kern := karl.Gaussian(0.5)
	leader := newDynEngine(t, kern, karl.KDTree)
	mirror := newDynEngine(t, kern, karl.KDTree)
	leaderClient := listen(t, mutableServer(t, leader))
	applier := replica.NewApplier(mirror, replica.NewHTTPSource(leaderClient.Name()))
	// Live before founding, so the first epoch already lists the follower.
	if err := applier.CatchUp(ctx); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	founders := []WritableShard{
		{Name: "m1", Client: leaderClient,
			Followers: []FollowerClient{listen(t, mutableServer(t, mirror, server.WithReplicaApplier(applier)))}},
		{Name: "m2", Client: listen(t, mutableServer(t, newDynEngine(t, kern, karl.KDTree)))},
	}
	wco, err := NewWritable(ctx, shard.Hash, founders, httpSpawn(t), WritableConfig{SplitCheckEvery: 1 << 30})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	pts, _ := dataset(400, 3, 47, "I")
	mustInsert(t, wco, pts, nil)
	if err := applier.CatchUp(ctx); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	for i := 0; i < 2*warmSamples; i++ {
		if res, err := wco.Aggregate(ctx, pts[i]); err != nil || res.Partial {
			t.Fatalf("Aggregate: %+v, %v", res, err)
		}
	}
	m1 := func() (ShardStats, time.Duration) {
		st := wco.Stats()[0]
		if st.Name != leaderClient.Name() || st.Replicas != 1 {
			t.Fatalf("fixture: member 1 reads as %+v, want %s with its follower as a hedge target", st, leaderClient.Name())
		}
		return st, time.Duration(wco.ep.Load().members[0].lat.hedge.Load())
	}
	before, hedgeBefore := m1()
	if before.Requests < 2*warmSamples || hedgeBefore == 0 {
		t.Fatalf("fixture: %d requests and hedge delay %v before the split, want a warm window", before.Requests, hedgeBefore)
	}

	if err := wco.Split(ctx, 2); err != nil {
		t.Fatalf("Split: %v", err)
	}
	after, hedgeAfter := m1()
	if after.Requests < before.Requests || after.Hedges < before.Hedges || after.P50Millis == 0 {
		t.Errorf("member 1 after a split of member 2: %+v, before it %+v: the counters restarted", after, before)
	}
	if hedgeAfter == 0 {
		t.Errorf("member 1's hedge delay is 0 after a split of member 2 (was %v): the latency window went cold", hedgeBefore)
	}
}
