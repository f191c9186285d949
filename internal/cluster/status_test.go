package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"karl"
	"karl/internal/replica"
	"karl/internal/server"
	"karl/internal/shard"
)

// getJSON decodes the body of a GET into v.
func getJSON(url string, v any) error {
	res, err := http.Get(url)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, res.Status)
	}
	return json.NewDecoder(res.Body).Decode(v)
}

// memberLists walks a decoded JSON body and returns every array of objects
// that carry a "points" count, keyed by its path: the lists of members the
// body describes.
func memberLists(v any, path string, out map[string][]map[string]any) {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			memberLists(x, path+"."+k, out)
		}
	case []any:
		var rows []map[string]any
		for _, x := range v {
			if row, ok := x.(map[string]any); ok {
				if _, ok := row["points"]; ok {
					rows = append(rows, row)
				}
			}
		}
		if len(rows) > 0 {
			out[path] = rows
		}
	}
}

// TestStatusOneRowPerMember: after two inserts /v1/stats lists every member
// once, and a member's points are the cardinality the coordinator clamps its
// a-priori bounds with, which is what the member engine holds. A second list
// of the same members, read at another time or from the manifest's
// discovery-round counts, would disagree with the first after the second
// insert.
func TestStatusOneRowPerMember(t *testing.T) {
	wco, engines := foundWritable(t, 2, karl.Gaussian(1), karl.KDTree, nil, WritableConfig{})
	pts, _ := dataset(250, 2, 17, "I")
	mustInsert(t, wco, pts[:200], nil)
	mustInsert(t, wco, pts[200:], nil)

	front := server.NewTestServer(NewWritableHTTPServer(wco))
	defer front.Close()
	var body map[string]any
	if err := getJSON(front.URL+"/v1/stats", &body); err != nil {
		t.Fatal(err)
	}
	lists := map[string][]map[string]any{}
	memberLists(body, "", lists)
	rows, ok := lists[".shards"]
	if len(lists) != 1 || !ok {
		for path, rows := range lists {
			for i, row := range rows {
				t.Logf("%s[%d].points = %v", path, i, row["points"])
			}
		}
		t.Fatalf("/v1/stats lists the members %d times (%d lists), want once, under shards", len(lists), len(lists))
	}
	ep := wco.ep.Load()
	if len(rows) != len(ep.members) {
		t.Fatalf("shards has %d rows for %d members", len(rows), len(ep.members))
	}
	total := 0
	for i, row := range rows {
		clamp := ep.members[i].info.Load().Points
		if got := int(row["points"].(float64)); got != clamp || got != engines[i].Len() {
			t.Errorf("shards[%d].points = %d; the clamp uses %d and the member holds %d", i, got, clamp, engines[i].Len())
		}
		total += clamp
	}
	if total != len(pts) {
		t.Errorf("the members hold %d points, %d were inserted", total, len(pts))
	}
}

// TestStatusReadsOneEpoch polls /v1/info and /v1/stats while a member with
// a follower attached is split seven times over. Every split adds one member
// and advances the epoch by one, and moves points without changing their
// total, so a body read at one epoch has as many members as splits since
// founding plus two, counts exactly those splits, and sums to every point
// inserted. A body assembled from two epoch loads breaks the first two.
func TestStatusReadsOneEpoch(t *testing.T) {
	ctx := context.Background()
	kern := karl.Gaussian(1)
	leader := newDynEngine(t, kern, karl.KDTree)
	mirror := newDynEngine(t, kern, karl.KDTree)
	leaderClient := listen(t, mutableServer(t, leader))
	applier := replica.NewApplier(mirror, replica.NewHTTPSource(leaderClient.Name()))
	founders := []WritableShard{
		{Name: "m1", Client: leaderClient,
			Followers: []FollowerClient{listen(t, mutableServer(t, mirror, server.WithReplicaApplier(applier)))}},
		{Name: "m2", Client: listen(t, mutableServer(t, newDynEngine(t, kern, karl.KDTree)))},
	}
	wco, err := NewWritable(ctx, shard.Hash, founders, httpSpawn(t), WritableConfig{SplitCheckEvery: 1 << 30})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	pts, _ := dataset(400, 2, 29, "I")
	mustInsert(t, wco, pts, nil)
	if err := applier.CatchUp(ctx); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	front := server.NewTestServer(NewWritableHTTPServer(wco))
	defer front.Close()
	var info ClusterInfoResponse
	if err := getJSON(front.URL+"/v1/info", &info); err != nil {
		t.Fatal(err)
	}
	epoch0 := info.Epoch

	type reading struct {
		Epoch  uint64 `json:"epoch"`
		Splits int64  `json:"splits"`
		Points int    `json:"points"` // /v1/info
		Shards any    `json:"shards"` // a count on /v1/info, the rows on /v1/stats
	}
	var polls, torn atomic.Int64
	check := func(route string, r reading) {
		polls.Add(1)
		members, points := 0, r.Points
		switch s := r.Shards.(type) {
		case float64:
			members = int(s)
		case []any:
			members, points = len(s), 0
			for _, row := range s {
				points += int(row.(map[string]any)["points"].(float64))
			}
		}
		splits := int64(r.Epoch - epoch0)
		if members != 2+int(splits) || r.Splits != splits || points != len(pts) {
			if torn.Add(1) <= 3 {
				t.Errorf("%s at epoch %d: %d members, %d splits, %d points; want %d, %d, %d",
					route, r.Epoch, members, r.Splits, points, 2+splits, splits, len(pts))
			}
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(done)
	for _, route := range []string{"/v1/info", "/v1/stats"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var r reading
				if err := getJSON(front.URL+route, &r); err != nil {
					t.Errorf("GET %s: %v", route, err)
					return
				}
				check(route, r)
			}
		}()
	}
	id := uint64(2)
	for i := 0; i < 7; i++ {
		if err := wco.Split(ctx, id); err != nil {
			t.Fatalf("split %d of member %d: %v", i+1, id, err)
		}
		members := wco.ep.Load().man.Members
		id = members[len(members)-1].ID
		// Both routes read between two splits, not only across them.
		for p, deadline := polls.Load(), time.Now().Add(10*time.Second); polls.Load() < p+4 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	if torn.Load() > 0 {
		t.Errorf("%d of %d status bodies mixed two epochs", torn.Load(), polls.Load())
	}
	if polls.Load() < 28 {
		t.Errorf("only %d status bodies were read during the splits", polls.Load())
	}
}

// hungFollower is a follower whose status probe never answers: every call
// waits for its context to end.
type hungFollower struct{ name string }

func (h hungFollower) Name() string { return h.name }
func (h hungFollower) Info(ctx context.Context) (ShardInfo, error) {
	<-ctx.Done()
	return ShardInfo{}, ctx.Err()
}
func (h hungFollower) Healthy(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }
func (h hungFollower) Aggregate(ctx context.Context, _ []float64) (float64, error) {
	<-ctx.Done()
	return 0, ctx.Err()
}
func (h hungFollower) Bounds(ctx context.Context, _ []float64, _ float64) (Bounds, error) {
	<-ctx.Done()
	return Bounds{}, ctx.Err()
}
func (h hungFollower) ThresholdBounds(ctx context.Context, _ []float64, _ float64) (Bounds, error) {
	<-ctx.Done()
	return Bounds{}, ctx.Err()
}
func (h hungFollower) ReplicaStatus(ctx context.Context) (replica.Status, error) {
	<-ctx.Done()
	return replica.Status{}, ctx.Err()
}
func (h hungFollower) Promote(ctx context.Context) (MutableShardClient, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestStatusProbesFollowersConcurrently: a status read asks every follower
// at once, so two hung followers cost one shard timeout, not two.
func TestStatusProbesFollowersConcurrently(t *testing.T) {
	const timeout = 400 * time.Millisecond
	founders := []WritableShard{{
		Name:      "m1",
		Client:    listen(t, mutableServer(t, newDynEngine(t, karl.Gaussian(1), karl.KDTree))),
		Followers: []FollowerClient{hungFollower{"hung-1"}, hungFollower{"hung-2"}},
	}}
	wco, err := NewWritable(context.Background(), shard.Hash, founders, nil, WritableConfig{Config: Config{Timeout: timeout}})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	t0 := time.Now()
	st := wco.Status(context.Background())
	if took := time.Since(t0); took > timeout*3/2 {
		t.Errorf("Status took %v with two hung followers, want about one timeout (%v)", took, timeout)
	}
	if len(st.Members) != 1 || len(st.Members[0].Followers) != 2 {
		t.Fatalf("Status = %+v, want one member with two follower rows", st)
	}
	for _, f := range st.Members[0].Followers {
		if f.State != "unreachable" {
			t.Errorf("follower %s reads %q, want unreachable", f.Name, f.State)
		}
	}
}

// fencedFollower is a caught-up follower that reports a fixed fence and,
// once promoted, takes writes through the front door it wraps.
type fencedFollower struct {
	*HTTPShard
	fence    uint64
	promoted atomic.Bool
}

func (f *fencedFollower) ReplicaStatus(context.Context) (replica.Status, error) {
	return replica.Status{Role: "follower", State: replica.StateLive, Fence: f.fence}, nil
}

func (f *fencedFollower) Promote(context.Context) (MutableShardClient, error) {
	f.promoted.Store(true)
	return f.HTTPShard, nil
}

// emptyFront is the front door of an empty writable shard.
func emptyFront(t *testing.T) *HTTPShard {
	return listen(t, mutableServer(t, newDynEngine(t, karl.Gaussian(1), karl.KDTree)))
}

// TestWritableFoundsOverHungFollowersInOneTimeout: founding probes a
// member's followers all at once, so three hung followers cost one shard
// timeout, not three.
func TestWritableFoundsOverHungFollowersInOneTimeout(t *testing.T) {
	const timeout = 400 * time.Millisecond
	founders := []WritableShard{{
		Name:      "m1",
		Client:    emptyFront(t),
		Followers: []FollowerClient{hungFollower{"hung-1"}, hungFollower{"hung-2"}, hungFollower{"hung-3"}},
	}}
	t0 := time.Now()
	wco, err := NewWritable(context.Background(), shard.Hash, founders, nil, WritableConfig{Config: Config{Timeout: timeout}})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	if took := time.Since(t0); took > timeout*3/2 {
		t.Errorf("NewWritable took %v over three hung followers, want about one timeout (%v)", took, timeout)
	}
	for _, r := range wco.Manifest().Member(1).Replicas {
		if r.Role != shard.RoleCatchingUp {
			t.Errorf("hung follower %s recorded as %v, want catching-up", r.Name, r.Role)
		}
	}
}

// TestWritablePromotePastHungFollowerInOneTimeout: promotion asks every
// follower of the member at once and installs the new epoch from that same
// probe, so a hung first follower costs one shard timeout before the live
// second one is promoted.
func TestWritablePromotePastHungFollowerInOneTimeout(t *testing.T) {
	const timeout = 400 * time.Millisecond
	live := &fencedFollower{HTTPShard: emptyFront(t), fence: 1}
	founders := []WritableShard{{
		Name:      "m1",
		Client:    emptyFront(t),
		Followers: []FollowerClient{hungFollower{"hung"}, live},
	}}
	ctx := context.Background()
	wco, err := NewWritable(ctx, shard.Hash, founders, nil, WritableConfig{Config: Config{Timeout: timeout}})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	t0 := time.Now()
	if err := wco.Promote(ctx, 1); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if took := time.Since(t0); took > timeout*3/2 {
		t.Errorf("Promote took %v past one hung follower, want about one timeout (%v)", took, timeout)
	}
	if mb := wco.Manifest().Member(1); !live.promoted.Load() || mb.Name != live.Name() {
		t.Errorf("member 1 is %q (live follower promoted: %v), want the live follower %q", mb.Name, live.promoted.Load(), live.Name())
	}
}

// TestWritablePromotesHighestFence: of two live followers the one holding
// more of the dead leader's writes (the higher fence) is promoted, whatever
// their attach order; promoting the other would drop writes it never got.
func TestWritablePromotesHighestFence(t *testing.T) {
	behind := &fencedFollower{HTTPShard: emptyFront(t), fence: 10}
	ahead := &fencedFollower{HTTPShard: emptyFront(t), fence: 20}
	founders := []WritableShard{{Name: "m1", Client: emptyFront(t), Followers: []FollowerClient{behind, ahead}}}
	ctx := context.Background()
	wco, err := NewWritable(ctx, shard.Hash, founders, nil, WritableConfig{})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	if err := wco.Promote(ctx, 1); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	mb := wco.Manifest().Member(1)
	if mb.Name != ahead.Name() || !ahead.promoted.Load() || behind.promoted.Load() {
		t.Fatalf("member 1 is %q; want the fence-20 follower %q promoted and the fence-10 one left alone", mb.Name, ahead.Name())
	}
	if len(mb.Replicas) != 1 || mb.Replicas[0].Name != behind.Name() || mb.Replicas[0].AckedSeq != 10 {
		t.Errorf("replica set after promotion = %+v, want only the fence-10 follower", mb.Replicas)
	}
}
