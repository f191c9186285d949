package replica_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"karl"
	"karl/internal/replica"
	"karl/internal/server"
)

func mkEngine(t *testing.T) *karl.Engine {
	t.Helper()
	d, err := karl.NewDynamic(karl.Gaussian(1.5), karl.WithSealSize(32), karl.WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// serve puts eng behind a mutable front door on a loopback listener that
// closes with the test and returns its base URL: every leader and follower
// here is reached the way karl-serve's are.
func serve(t *testing.T, eng *karl.Engine, opts ...server.Option) string {
	t.Helper()
	srv, err := server.NewMutable(eng, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := server.NewTestServer(srv)
	t.Cleanup(ts.Close)
	return ts.URL
}

// loadLeader fills an engine with a deterministic insert/delete mix and
// returns the surviving ids.
func loadLeader(t *testing.T, d *karl.Engine, n int, seed int64) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		id, err := d.InsertID([]float64{rng.Float64(), rng.Float64()}, 0.5+rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	kept := ids[:0]
	for i, id := range ids {
		if i%9 == 4 {
			if err := d.Delete(id); err != nil {
				t.Fatal(err)
			}
			continue
		}
		kept = append(kept, id)
	}
	return kept
}

// checkConverged asserts the follower answers like the leader: exact
// point counts, masses and aggregates within float-summation-order
// tolerance (a leader with background compaction on may have merged
// segments since the follower mirrored it).
func checkConverged(t *testing.T, leader, follower *karl.Engine) {
	t.Helper()
	close9 := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
	}
	if lg, fg := leader.Len(), follower.Len(); lg != fg {
		t.Fatalf("len diverged: leader %d follower %d", lg, fg)
	}
	lp, ln := leader.WeightMass()
	fp, fn := follower.WeightMass()
	if !close9(lp, fp) || !close9(ln, fn) {
		t.Fatalf("mass diverged: leader %v/%v follower %v/%v", lp, ln, fp, fn)
	}
	for _, q := range [][]float64{{0.2, 0.7}, {0.8, 0.3}, {0.5, 0.5}} {
		want, err := leader.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := follower.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		if !close9(want, got) {
			t.Fatalf("aggregate diverged at %v: leader %v follower %v", q, want, got)
		}
	}
}

// TestApplierCatchUp drives a fresh follower live through its leader's
// /v1/replicate/tail, keeps it converged across further writes — pulls that
// elide the segments it holds — and pins the Status surface.
func TestApplierCatchUp(t *testing.T) {
	leader, follower := mkEngine(t), mkEngine(t)
	ids := loadLeader(t, leader, 120, 81)
	a := replica.NewApplier(follower, replica.NewHTTPSource(serve(t, leader)))

	ctx := context.Background()
	if err := a.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	checkConverged(t, leader, follower)

	st := a.Status()
	if st.Role != "follower" || st.State != "live" {
		t.Fatalf("status after catch-up: %+v", st)
	}
	if st.Lag() != 0 {
		t.Fatalf("lag %d after catch-up", st.Lag())
	}
	if st.NextSeq != leader.Status().NextSeq {
		t.Fatalf("follower next_seq %d, leader %d", st.NextSeq, leader.Status().NextSeq)
	}

	// Steady state: more writes, one more sync round each.
	for i := 0; i < 30; i++ {
		if _, err := leader.InsertID([]float64{0.1 * float64(i%10), 0.3}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Delete(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	checkConverged(t, leader, follower)
	if st, ls := a.Status(), leader.Status(); st.Fence != ls.NextSeq-1 || st.DeletePos != uint64(ls.Deletes) || st.Epoch != ls.Epoch {
		t.Fatalf("status after a steady-state round: %+v", st)
	}
}

// TestApplierPromote checks the handover: a promoted applier refuses
// further syncs, reports itself a leader, and its engine accepts writes.
func TestApplierPromote(t *testing.T) {
	leader, follower := mkEngine(t), mkEngine(t)
	loadLeader(t, leader, 60, 83)
	a := replica.NewApplier(follower, replica.NewHTTPSource(serve(t, leader)))
	if err := a.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}

	if a.Promoted() {
		t.Fatal("promoted before Promote")
	}
	eng := a.Promote()
	if eng != follower {
		t.Fatal("Promote returned a different engine")
	}
	if !a.Promoted() {
		t.Fatal("not promoted after Promote")
	}
	if err := a.Sync(context.Background()); !errors.Is(err, replica.ErrPromoted) {
		t.Fatalf("sync after promotion: got %v, want ErrPromoted", err)
	}
	if st := a.Status(); st.Role != "leader" || st.State != "" {
		t.Fatalf("status after promotion: %+v", st)
	}
	// The promoted engine is a leader now: writes land, seqs continue the
	// leader's lineage.
	id, err := eng.InsertID([]float64{0.4, 0.4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if id < leader.Status().NextSeq-1 {
		t.Fatalf("promoted engine reissued seq %d below leader lineage %d", id, leader.Status().NextSeq)
	}
	// Run on a promoted applier returns immediately without error.
	if err := a.Run(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("run after promotion: %v", err)
	}
}

// TestApplierLiveUnderLeaderRewrites runs leader and follower with
// background compaction on while the leader churns oldest-first — every
// few syncs it has rewritten or dropped a segment the follower installed
// earlier. The rewritten segments arrive whole under their new ids and the
// applier stays "live" throughout.
func TestApplierLiveUnderLeaderRewrites(t *testing.T) {
	mk := func() *karl.Engine {
		d, err := karl.NewDynamic(karl.Gaussian(1.5), karl.WithSealSize(32))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	leader, follower := mk(), mk()
	defer leader.Close()
	defer follower.Close()
	a := replica.NewApplier(follower, replica.NewHTTPSource(serve(t, leader)))
	ctx := context.Background()
	rng := rand.New(rand.NewSource(86))
	var live []uint64
	for round := 0; round < 80; round++ {
		for i := 0; i < 24; i++ {
			id, err := leader.InsertID([]float64{rng.Float64(), rng.Float64()}, 0.5+rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		if len(live) > 400 {
			for _, id := range live[:24] {
				if err := leader.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			live = live[24:]
		}
		if err := a.CatchUp(ctx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st := a.Status(); st.State != "live" || st.Lag() != 0 {
			t.Fatalf("round %d: follower status %+v, want live with no lag", round, st)
		}
		checkConverged(t, leader, follower)
	}
	if leader.Status().DeadRewrites+leader.Status().DeadDrops == 0 {
		t.Fatal("leader never rewrote or dropped a segment: the test exercised nothing")
	}
}

// TestApplierRunUnderWrites races Run against a sustained leader write
// load and concurrent follower reads — the -race gate for the applier's
// locking — then checks final convergence.
func TestApplierRunUnderWrites(t *testing.T) {
	leader, follower := mkEngine(t), mkEngine(t)
	loadLeader(t, leader, 50, 84)
	a := replica.NewApplier(follower, replica.NewHTTPSource(serve(t, leader)))

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		_ = a.Run(ctx, time.Millisecond)
	}()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(85))
		var ids []uint64
		for i := 0; i < 400; i++ {
			id, err := leader.InsertID([]float64{rng.Float64(), rng.Float64()}, 1)
			if err != nil {
				t.Error(err)
				return
			}
			ids = append(ids, id)
			if i%11 == 5 {
				if err := leader.Delete(ids[rng.Intn(len(ids))]); err != nil && !errors.Is(err, karl.ErrPointNotFound) {
					t.Error(err)
					return
				}
			}
		}
	}()
	// Concurrent reads on the follower while it catches up.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			// The follower may still be empty before its first apply; only
			// that error is acceptable mid-catch-up.
			if _, err := follower.Aggregate([]float64{0.5, 0.5}); err != nil && !strings.Contains(err.Error(), "empty") {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	cancel()
	<-runDone
	if err := a.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkConverged(t, leader, follower)
}

// TestHTTPSourceRoundTrip runs the roles over the wire: a leader that
// restarted (a reloaded engine) reporting its status, a follower pulling it,
// and the follower's own front door — write refusal until promotion over
// HTTP.
func TestHTTPSourceRoundTrip(t *testing.T) {
	seed := mkEngine(t)
	loadLeader(t, seed, 90, 86)
	var buf strings.Builder
	if _, err := seed.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	leader, err := karl.ReadEngine(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	leaderURL := serve(t, leader)
	status := func(base string) (st replica.Status) {
		t.Helper()
		resp, err := http.Get(base + "/v1/replicate/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := status(leaderURL); st.Role != "leader" || st.NextSeq != leader.Status().NextSeq {
		t.Fatalf("leader status over HTTP: %+v", st)
	}

	follower := mkEngine(t)
	a := replica.NewApplier(follower, replica.NewHTTPSource(leaderURL))
	if err := a.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkConverged(t, leader, follower)

	// Follower-side server: writes refused with 409 until promotion.
	followerURL := serve(t, follower, server.WithReplicaApplier(a))

	insertBody := `{"p":[0.5,0.5],"w":1}`
	resp, err := http.Post(followerURL+"/v1/insert", "application/json", strings.NewReader(insertBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("insert on a follower: HTTP %d, want 409", resp.StatusCode)
	}

	// The follower serves its own replication status over HTTP.
	if fst := status(followerURL); fst.Role != "follower" || fst.State != "live" {
		t.Fatalf("follower status over HTTP: %+v", fst)
	}

	// Promote over HTTP; writes open up.
	resp, err = http.Post(followerURL+"/v1/replicate/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: HTTP %d", resp.StatusCode)
	}
	if !a.Promoted() {
		t.Fatal("applier not promoted after POST /v1/replicate/promote")
	}
	resp, err = http.Post(followerURL+"/v1/insert", "application/json", strings.NewReader(insertBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert after promotion: HTTP %d, want 200", resp.StatusCode)
	}

	// Promoting a pure leader is a 409.
	resp, err = http.Post(leaderURL+"/v1/replicate/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote on a leader: HTTP %d, want 409", resp.StatusCode)
	}
}
