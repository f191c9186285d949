package replica_test

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"karl"
	"karl/internal/replica"
)

// TestFirstPullAdoptsLeaderConfig pins the -replica-of serving contract: a
// follower whose engine was configured independently of its leader (another
// kernel, another seal size) converges exactly with its first pull, which
// adopts the leader's kernel and policy — including through the query
// scratch the follower armed before the pull, which must not keep refining
// with the superseded kernel.
func TestFirstPullAdoptsLeaderConfig(t *testing.T) {
	leader, err := karl.NewDynamic(karl.Gaussian(0.9), karl.WithSealSize(64))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	rng := rand.New(rand.NewSource(11))
	var ids []uint64
	for i := 0; i < 300; i++ {
		id, err := leader.InsertID([]float64{rng.NormFloat64(), rng.NormFloat64()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		if i%9 == 2 {
			if err := leader.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	follower, err := karl.NewDynamic(karl.Gaussian(3), karl.WithSealSize(32))
	if err != nil {
		t.Fatal(err)
	}
	// A query on a point of the follower's own arms its query scratch with
	// its own kernel; the pull replaces the point with the leader's set.
	q := []float64{0.4, -0.15}
	if err := follower.Insert([]float64{0.4, -0.1}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.Approximate(q, 1e-9); err != nil {
		t.Fatal(err)
	}
	a := replica.NewApplier(follower, replica.NewHTTPSource(serve(t, leader)))
	if err := a.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	if follower.Kernel() != leader.Kernel() {
		t.Fatalf("follower kernel %+v, leader %+v", follower.Kernel(), leader.Kernel())
	}
	want, _ := leader.Aggregate(q)
	got, err := follower.Approximate(q, 1e-9)
	if err != nil || math.Abs(got-want) > 1e-8*math.Abs(want) {
		t.Fatalf("follower answers %v, %v; leader %v", got, err, want)
	}
}

// damagedSource hands the applier its leader's stream after damage.
type damagedSource struct {
	replica.Source
	damage func([]byte) []byte
}

func (s *damagedSource) Pull(ctx context.Context, have karl.ReplicaHave) (io.ReadCloser, error) {
	rc, err := s.Source.Pull(ctx, have)
	if err != nil || rc == nil || s.damage == nil {
		return rc, err
	}
	defer rc.Close()
	data, _ := io.ReadAll(rc)
	return io.NopCloser(bytes.NewReader(s.damage(data))), nil
}

// TestApplierRefusedRoundChangesNothing: a round whose stream the block
// checksums refuse — a flipped byte, a cut — leaves a live follower's engine
// and "live" state exactly as before it, with the error in last_error; the
// next sound round clears it and converges.
func TestApplierRefusedRoundChangesNothing(t *testing.T) {
	leader, follower := mkEngine(t), mkEngine(t)
	ids := loadLeader(t, leader, 100, 87)
	src := &damagedSource{Source: replica.NewHTTPSource(serve(t, leader))}
	a := replica.NewApplier(follower, src)
	ctx := context.Background()
	if err := a.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	loadLeader(t, leader, 50, 88)
	if err := leader.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	before, have := a.Status(), follower.Have()
	for name, damage := range map[string]func([]byte) []byte{
		"flipped byte": func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"cut":          func(b []byte) []byte { return b[:len(b)-7] },
	} {
		src.damage = damage
		err := a.Sync(ctx)
		if err == nil {
			t.Fatalf("%s: damaged stream applied", name)
		}
		after := a.Status()
		if after.LastError == "" || !strings.Contains(after.LastError, "blockio") {
			t.Fatalf("%s: last_error %q", name, after.LastError)
		}
		after.LastError = ""
		if after != before || after.State != "live" || !reflect.DeepEqual(follower.Have(), have) {
			t.Fatalf("%s: refused round moved the follower:\n before %+v\n after  %+v", name, before, after)
		}
	}
	src.damage = nil
	if err := a.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if st := a.Status(); st.LastError != "" || st.NextSeq != leader.Status().NextSeq {
		t.Fatalf("status after the sound round: %+v", st)
	}
	checkConverged(t, leader, follower)
}

// TestApplierRunSyncsAtOnce: Run pulls before its first tick, so a fresh
// follower is live long before a long interval elapses, and a round against
// an unchanged leader ships nothing.
func TestApplierRunSyncsAtOnce(t *testing.T) {
	leader, follower := mkEngine(t), mkEngine(t)
	loadLeader(t, leader, 80, 89)
	src := replica.NewHTTPSource(serve(t, leader))
	a := replica.NewApplier(follower, src)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx, time.Hour) }()
	for deadline := time.Now().Add(10 * time.Second); a.Status().State != "live"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("follower not live: Run waited for its first tick")
		}
	}
	cancel()
	<-done
	checkConverged(t, leader, follower)
	rc, err := src.Pull(context.Background(), follower.Have())
	if err != nil || rc != nil {
		t.Fatalf("pull against an unchanged leader: stream %v, error %v; want neither", rc, err)
	}
}

// TestHaveRoundTrip pins the tail endpoint's "have" parameter.
func TestHaveRoundTrip(t *testing.T) {
	have := karl.ReplicaHave{Epoch: 7, NextSeq: 1 << 40, Deletes: 3, Segs: []karl.SegmentSum{{ID: 4, Sum: 0xFFFFFFFF}, {ID: 9, Sum: 0}}}
	got, err := replica.ParseHave(replica.FormatHave(have))
	if err != nil || !reflect.DeepEqual(got, have) {
		t.Fatalf("round trip of %q: %+v, %v", replica.FormatHave(have), got, err)
	}
	if got, err := replica.ParseHave("1,1,0"); err != nil || len(got.Segs) != 0 {
		t.Fatalf("no segments: %+v, %v", got, err)
	}
	for _, bad := range []string{"", "1,2", "1,2,3,4", "1,2,x", "1,2,3,4,4294967296", "1,2,3,-4,5"} {
		if _, err := replica.ParseHave(bad); err == nil {
			t.Fatalf("have %q accepted", bad)
		}
	}
}
