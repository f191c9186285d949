package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"karl"
	"karl/internal/replica"
	"karl/internal/server"
	"karl/internal/shard"
)

// newDynEngine builds an empty dynamic engine with a small seal size so
// mutation streams exercise real multi-segment manifests.
func newDynEngine(t testing.TB, kern karl.Kernel, kind karl.IndexKind) *karl.Engine {
	t.Helper()
	d, err := karl.NewDynamic(kern, karl.WithIndex(kind, 16), karl.WithSealSize(64))
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	return d
}

// mutableServer is the front door of a writable shard (karl-serve -mutable).
func mutableServer(t testing.TB, d *karl.Engine, opts ...server.Option) *server.Server {
	t.Helper()
	srv, err := server.NewMutable(d, opts...)
	if err != nil {
		t.Fatalf("server.NewMutable: %v", err)
	}
	return srv
}

// httpSpawn installs a split-off member the way a remote spawner would: the
// moved half is decoded from its persistence stream and served through a
// front door of its own. A split may run off the test's goroutine, so errors
// are returned, not fatal.
func httpSpawn(t testing.TB) SpawnFunc {
	return func(_ context.Context, _ shard.Member, moved []byte) (MutableShardClient, error) {
		d, err := karl.ReadEngine(bytes.NewReader(moved))
		if err != nil {
			return nil, err
		}
		srv, err := server.NewMutable(d)
		if err != nil {
			return nil, err
		}
		return listen(t, srv), nil
	}
}

// foundWritable builds an n-member hash-routed writable cluster, every member
// a mutable engine behind its own front door, and returns it with the engines.
func foundWritable(t testing.TB, n int, kern karl.Kernel, kind karl.IndexKind, spawn SpawnFunc, cfg WritableConfig) (*Coordinator, []*karl.Engine) {
	t.Helper()
	engines := make([]*karl.Engine, n)
	founders := make([]WritableShard, n)
	for i := range founders {
		engines[i] = newDynEngine(t, kern, kind)
		founders[i] = WritableShard{Client: listen(t, mutableServer(t, engines[i]))}
	}
	wco, err := NewWritable(context.Background(), shard.Hash, founders, spawn, cfg)
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	return wco, engines
}

func mustInsert(t *testing.T, wco *Coordinator, pts [][]float64, w []float64) []uint64 {
	t.Helper()
	ids, err := wco.Insert(context.Background(), pts, w)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	return ids
}

// TestWritableEquivalence is the writable acceptance gate: after any
// interleaving of routed inserts, deletes and a shard split, a 4-shard
// writable coordinator must answer with the same ε/τ contracts as one
// monolithic DynamicEngine fed the identical mutation stream — across
// index structures, query types and kernels.
func TestWritableEquivalence(t *testing.T) {
	kinds := map[string]karl.IndexKind{"kd": karl.KDTree, "ball": karl.BallTree}
	kernels := map[string]karl.Kernel{
		"gaussian":     karl.Gaussian(0.5),
		"epanechnikov": karl.Epanechnikov(0.2),
		"sigmoid":      karl.Sigmoid(0.05, 0.1),
	}
	const eps = 0.05
	ctx := context.Background()
	for kindName, kind := range kinds {
		for _, typ := range []string{"I", "II", "III"} {
			for kernName, kern := range kernels {
				t.Run(fmt.Sprintf("%s/%s/%s", kindName, typ, kernName), func(t *testing.T) {
					wco, _ := foundWritable(t, 4, kern, kind, httpSpawn(t), WritableConfig{})
					mono := newDynEngine(t, kern, kind)

					// Wave 1: bulk insert, then a delete pass.
					pts1, w1 := dataset(360, 3, 7, typ)
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

					// Split member 1; half its hash slots (and their points)
					// move to a freshly spawned fifth member.
					if err := wco.Split(ctx, 1); err != nil {
						t.Fatalf("Split: %v", err)
					}
					if n := len(wco.Status(ctx).Members); n != 5 {
						t.Fatalf("%d members after split, want 5", n)
					}

					// Wave 2: more inserts over the grown membership, then
					// deletes mixing pre-split ids (which chase the split
					// lineage) with post-split ones.
					pts2, w2 := dataset(120, 3, 8, typ)
					gids2 := mustInsert(t, wco, pts2, w2)
					mids2, err := mono.InsertBulk(pts2, w2)
					if err != nil {
						t.Fatalf("mono.InsertBulk: %v", err)
					}
					for i := range pts1 {
						if i%7 == 0 || i%11 != 3 {
							continue
						}
						if err := wco.Delete(ctx, gids[i]); err != nil {
							t.Fatalf("post-split Delete(%d): %v", gids[i], err)
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
				})
			}
		}
	}
}

// TestWritableIDRouting pins the cluster-global id scheme: ids decode to
// the member that assigned them, deletes of moved points chase lineage,
// and deleting a missing or twice-deleted id reports ErrPointNotFound.
func TestWritableIDRouting(t *testing.T) {
	ctx := context.Background()
	wco, _ := foundWritable(t, 2, karl.Gaussian(1), karl.KDTree, httpSpawn(t), WritableConfig{})
	pts, _ := dataset(100, 2, 3, "I")
	gids := mustInsert(t, wco, pts, nil)
	for i, gid := range gids {
		mid, _ := DecodeID(gid)
		if wco.Manifest().Member(mid) == nil {
			t.Fatalf("id %d of point %d names unknown member %d", gid, i, mid)
		}
		if want := wco.Manifest().Route(pts[i]); mid != want {
			t.Fatalf("point %d landed on member %d, routing says %d", i, mid, want)
		}
	}
	if err := wco.Delete(ctx, gids[0]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := wco.Delete(ctx, gids[0]); !errors.Is(err, karl.ErrPointNotFound) {
		t.Fatalf("double delete: err = %v, want ErrPointNotFound", err)
	}
	// An id naming a member that was never part of the cluster.
	bogus, err := EncodeID(99, 1)
	if err != nil {
		t.Fatalf("EncodeID: %v", err)
	}
	if err := wco.Delete(ctx, bogus); !errors.Is(err, karl.ErrPointNotFound) {
		t.Fatalf("bogus member delete: err = %v, want ErrPointNotFound", err)
	}
	if _, err := EncodeID(1, 1<<48); err == nil {
		t.Fatal("sequence overflowing the id fence must be rejected")
	}
}

// TestWritableKDGrowth grows a kd-routed cluster from a single founding
// member by automatic splits and checks that routing, lineage deletes and
// answers stay consistent with a monolithic engine.
func TestWritableKDGrowth(t *testing.T) {
	ctx := context.Background()
	kern := karl.Gaussian(0.5)
	root := newDynEngine(t, kern, karl.KDTree)
	wco, err := NewWritable(ctx, shard.KDSplit,
		[]WritableShard{{Client: listen(t, mutableServer(t, root))}},
		httpSpawn(t), WritableConfig{})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	mono := newDynEngine(t, kern, karl.KDTree)

	pts, w := dataset(400, 3, 37, "II")
	gids := mustInsert(t, wco, pts, w)
	mids, err := mono.InsertBulk(pts, w)
	if err != nil {
		t.Fatalf("mono.InsertBulk: %v", err)
	}
	st := wco.Status(ctx)
	if len(st.Members) < 2 || st.Splits < 1 {
		t.Fatalf("automatic kd split did not fire: shards=%d splits=%d", len(st.Members), st.Splits)
	}
	if st.Epoch < 2 {
		t.Fatalf("epoch = %d after a split, want >= 2", st.Epoch)
	}
	// The trigger runs after the insert's masses are recorded, so the
	// source's pre-split mass does not overwrite what the split install read.
	if st.Points != len(pts) {
		t.Fatalf("coordinator reports %d points after the automatic split, the members hold %d", st.Points, len(pts))
	}

	// Every pre-split id must still delete, wherever its point moved.
	for i := range pts {
		if i%3 != 0 {
			continue
		}
		if err := wco.Delete(ctx, gids[i]); err != nil {
			t.Fatalf("lineage delete of %d: %v", gids[i], err)
		}
		if err := mono.Delete(mids[i]); err != nil {
			t.Fatalf("mono.Delete: %v", err)
		}
	}
	pts2, w2 := dataset(150, 3, 38, "II")
	mustInsert(t, wco, pts2, w2)
	if _, err := mono.InsertBulk(pts2, w2); err != nil {
		t.Fatalf("mono.InsertBulk: %v", err)
	}

	queries, _ := dataset(4, 3, 39, "I")
	for qi, q := range queries {
		exact, _, err := mono.AggregateStats(q)
		if err != nil {
			t.Fatalf("mono.Aggregate: %v", err)
		}
		res, err := wco.Aggregate(ctx, q)
		if err != nil {
			t.Fatalf("q%d: Aggregate: %v", qi, err)
		}
		if res.Partial {
			t.Fatalf("q%d: unexpected partial result %+v", qi, res)
		}
		if diff := math.Abs(res.Value - exact); diff > 1e-9*math.Max(math.Abs(exact), 1) {
			t.Errorf("q%d: aggregate %v, want %v", qi, res.Value, exact)
		}
	}
}

// TestWritableChaosMidSplit is the split-safety acceptance test: a shard
// killed mid-split leaves the coordinator unable to know whether the
// split was applied, so the member is quarantined and every answer that
// would need its contents degrades to the partial/indeterminate contract
// — never a silently wrong value, even after the shard comes back.
func TestWritableChaosMidSplit(t *testing.T) {
	ctx := context.Background()
	kern := karl.Gaussian(0.5)
	engines := make([]*karl.Engine, 2)
	switches := make([]*downableHandler, 2)
	founders := make([]WritableShard, 2)
	for i := range founders {
		engines[i] = newDynEngine(t, kern, karl.KDTree)
		switches[i] = &downableHandler{inner: mutableServer(t, engines[i])}
		founders[i] = WritableShard{Client: listen(t, switches[i])}
	}
	wco, err := NewWritable(ctx, shard.Hash, founders, httpSpawn(t),
		WritableConfig{Config: Config{Timeout: 2 * time.Second}})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	pts, w := dataset(400, 3, 41, "II")
	mustInsert(t, wco, pts, w)

	q := []float64{0.2, -0.1, 0.5}
	exactOf := func(d *karl.Engine) float64 {
		v, _, err := d.AggregateStats(q)
		if err != nil {
			t.Fatalf("engine aggregate: %v", err)
		}
		return v
	}
	res, err := wco.Aggregate(ctx, q)
	if err != nil || res.Partial {
		t.Fatalf("healthy aggregate: res=%+v err=%v", res, err)
	}
	aliveF, deadF := exactOf(engines[0]), exactOf(engines[1])
	if diff := math.Abs(res.Value - (aliveF + deadF)); diff > 1e-9 {
		t.Fatalf("healthy value %v, want %v", res.Value, aliveF+deadF)
	}
	alivePos, aliveNeg := engines[0].WeightMass()
	deadPos, deadNeg := engines[1].WeightMass()
	aliveW, deadW := alivePos+aliveNeg, deadPos+deadNeg

	// Kill member 2, then ask it to split: the response is lost, the
	// coordinator cannot know whether the shard applied the extraction.
	epoch0 := wco.Status(ctx).Epoch
	switches[1].down.Store(true)
	if err := wco.Split(ctx, 2); err == nil {
		t.Fatal("split against a dead shard must fail")
	}
	st := wco.Status(ctx)
	if st.Epoch != epoch0+1 {
		t.Fatalf("ambiguous split failure must advance the epoch: %d -> %d", epoch0, st.Epoch)
	}
	if len(st.Members) != 2 {
		t.Fatalf("quarantine must not change membership size: %d", len(st.Members))
	}

	// Aggregate: explicit partial covering exactly the live mass.
	res, err = wco.Aggregate(ctx, q)
	if err != nil {
		t.Fatalf("degraded aggregate: %v", err)
	}
	if !res.Partial || len(res.Failed) != 1 {
		t.Fatalf("degraded aggregate should be partial with one failed member: %+v", res)
	}
	if want := aliveW / (aliveW + deadW); math.Abs(res.Covered-want) > 1e-9 {
		t.Fatalf("covered = %v, want %v", res.Covered, want)
	}
	if math.Abs(res.Value-aliveF) > 1e-9*math.Max(math.Abs(aliveF), 1) {
		t.Fatalf("partial value %v, want live mass %v", res.Value, aliveF)
	}

	// Threshold inside the quarantined member's a-priori interval: any
	// verdict would be a guess.
	if _, err := wco.Threshold(ctx, q, aliveF+deadW/2); !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("risky threshold: err = %v, want ErrIndeterminate", err)
	}
	// Threshold the live shards already clear: decidable despite the loss.
	tr, err := wco.Threshold(ctx, q, aliveF/2)
	if err != nil {
		t.Fatalf("safe threshold: %v", err)
	}
	if !tr.Over {
		t.Fatalf("safe threshold should decide over: %+v", tr)
	}

	// Reviving the process does not lift the quarantine — its contents are
	// permanently unknowable (it may or may not have applied the split).
	switches[1].down.Store(false)
	res, err = wco.Aggregate(ctx, q)
	if err != nil {
		t.Fatalf("post-revival aggregate: %v", err)
	}
	if !res.Partial {
		t.Fatal("a revived quarantined member must stay out of the answers")
	}

	// Writes that route to the quarantined member are refused loudly.
	more, _ := dataset(50, 3, 43, "I")
	if _, err := wco.Insert(ctx, more, nil); err == nil {
		t.Fatal("insert routing to a quarantined member must fail")
	}
}

// TestWritableSplitCleanRefusal pins the other failure class: a shard
// that REJECTS a split (degenerate data, HTTP 409) has provably applied
// no side effect, so the membership and the answers stay exactly as
// they were.
func TestWritableSplitCleanRefusal(t *testing.T) {
	ctx := context.Background()
	solo := listen(t, mutableServer(t, newDynEngine(t, karl.Gaussian(1), karl.KDTree)))
	wco, err := NewWritable(ctx, shard.KDSplit,
		[]WritableShard{{Client: solo}},
		httpSpawn(t), WritableConfig{})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	// Fifty copies of one point: no axis cut can separate them.
	pts := make([][]float64, 50)
	for i := range pts {
		pts[i] = []float64{1, 2}
	}
	mustInsert(t, wco, pts, nil)

	epoch0 := wco.Status(ctx).Epoch
	if err := wco.Split(ctx, 1); err == nil {
		t.Fatal("splitting degenerate data must fail")
	}
	st := wco.Status(ctx)
	if st.Epoch != epoch0 {
		t.Fatalf("clean refusal must not advance the epoch: %d -> %d", epoch0, st.Epoch)
	}
	if len(st.Members) != 1 {
		t.Fatalf("clean refusal must not change membership: %d members", len(st.Members))
	}
	res, err := wco.Aggregate(ctx, []float64{1, 2})
	if err != nil || res.Partial {
		t.Fatalf("after clean refusal: res=%+v err=%v", res, err)
	}
	if math.Abs(res.Value-50) > 1e-9 {
		t.Fatalf("value %v, want 50 (fifty unit weights at the query point)", res.Value)
	}
}

// TestWritableManifestPersistence checks the epoch-versioned manifest
// file: every membership change lands on disk, the persisted routing
// agrees with the live one, and a second coordinator founding onto the
// same path is refused as stale.
func TestWritableManifestPersistence(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "cluster.manifest")
	wco, _ := foundWritable(t, 2, karl.Gaussian(1), karl.KDTree, httpSpawn(t), WritableConfig{ManifestPath: path})
	pts, _ := dataset(300, 2, 47, "I")
	mustInsert(t, wco, pts, nil)
	if err := wco.Split(ctx, 1); err != nil {
		t.Fatalf("Split: %v", err)
	}

	man, err := LoadManifest(path)
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	if live := wco.Status(ctx).Epoch; man.Epoch != live {
		t.Fatalf("persisted epoch %d, live epoch %d", man.Epoch, live)
	}
	if len(man.Members) != 3 {
		t.Fatalf("persisted members = %d, want 3", len(man.Members))
	}
	live := wco.Manifest()
	probes, _ := dataset(50, 2, 48, "I")
	for _, p := range probes {
		if man.Route(p) != live.Route(p) {
			t.Fatalf("persisted and live manifests route %v differently", p)
		}
	}

	// A fresh coordinator founding over the same path would write epoch 1
	// behind the on-disk epoch 2 — refused as stale.
	fresh := []WritableShard{{Client: listen(t, mutableServer(t, newDynEngine(t, karl.Gaussian(1), karl.KDTree)))}}
	if _, err := NewWritable(ctx, shard.Hash, fresh, nil, WritableConfig{ManifestPath: path}); !errors.Is(err, shard.ErrStaleManifest) {
		t.Fatalf("founding onto a newer manifest: err = %v, want ErrStaleManifest", err)
	}
}

// doJSON drives the writable front door with raw HTTP.
func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, out
}

// TestWritableHTTPSurface drives the writable coordinator's front door:
// routed inserts and deletes next to the read surface, with cluster-global
// ids on the wire.
func TestWritableHTTPSurface(t *testing.T) {
	wco, engines := foundWritable(t, 2, karl.Gaussian(1), karl.KDTree, httpSpawn(t), WritableConfig{})
	front := server.NewTestServer(NewWritableHTTPServer(wco))
	t.Cleanup(front.Close)

	pts, _ := dataset(60, 2, 51, "I")
	status, body := doJSON(t, http.MethodPost, front.URL+"/v1/insert", map[string]any{"points": pts})
	if status != http.StatusOK {
		t.Fatalf("insert status %d: %s", status, body)
	}
	var ins ClusterInsertResponse
	if err := json.Unmarshal(body, &ins); err != nil {
		t.Fatalf("decode insert response: %v", err)
	}
	if ins.Inserted != len(pts) || len(ins.IDs) != len(pts) || ins.Epoch == 0 {
		t.Fatalf("insert response %+v", ins)
	}

	status, body = doJSON(t, http.MethodGet, front.URL+"/v1/info", nil)
	if status != http.StatusOK {
		t.Fatalf("info status %d", status)
	}
	var info ClusterInfoResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("decode info: %v", err)
	}
	if !info.Writable || info.Points != len(pts) || info.Dims != 2 {
		t.Fatalf("info %+v", info)
	}

	q := []float64{0.1, -0.2}
	var want float64
	for _, d := range engines {
		v, _, err := d.AggregateStats(q)
		if err != nil {
			t.Fatalf("engine aggregate: %v", err)
		}
		want += v
	}
	status, body = doJSON(t, http.MethodPost, front.URL+"/v1/aggregate", map[string]any{"q": q})
	if status != http.StatusOK {
		t.Fatalf("aggregate status %d: %s", status, body)
	}
	var val server.CoveredValueResponse
	if err := json.Unmarshal(body, &val); err != nil {
		t.Fatalf("decode aggregate: %v", err)
	}
	if math.Abs(val.Value-want) > 1e-9 {
		t.Fatalf("aggregate %v, want %v", val.Value, want)
	}

	status, body = doJSON(t, http.MethodDelete, front.URL+"/v1/point", map[string]any{"id": ins.IDs[0]})
	if status != http.StatusOK {
		t.Fatalf("delete status %d: %s", status, body)
	}
	var del ClusterDeleteResponse
	if err := json.Unmarshal(body, &del); err != nil {
		t.Fatalf("decode delete: %v", err)
	}
	if del.Deleted != 1 {
		t.Fatalf("delete response %+v", del)
	}
	if status, _ = doJSON(t, http.MethodDelete, front.URL+"/v1/point", map[string]any{"id": ins.IDs[0]}); status != http.StatusNotFound {
		t.Fatalf("double delete status %d, want 404", status)
	}
	if status, _ = doJSON(t, http.MethodPost, front.URL+"/v1/insert", map[string]any{}); status != http.StatusBadRequest {
		t.Fatalf("empty insert status %d, want 400", status)
	}
	if status, _ = doJSON(t, http.MethodPost, front.URL+"/v1/insert",
		map[string]any{"p": []float64{1, 2}, "points": pts}); status != http.StatusBadRequest {
		t.Fatalf("ambiguous insert status %d, want 400", status)
	}
}

// BenchmarkClusterInsertHeavy is the CI smoke number for the write path:
// bulk inserts routed through a 4-shard hash coordinator, with automatic
// splitting armed.
func BenchmarkClusterInsertHeavy(b *testing.B) {
	wco, _ := foundWritable(b, 4, karl.Gaussian(0.5), karl.KDTree, httpSpawn(b),
		WritableConfig{})
	pts, w := dataset(256, 5, 61, "II")
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wco.Insert(ctx, pts, w); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWritableSplitHoldsReads pins the split-window read contract: from
// the instant SplitOut drops the moved half out of the source shard until
// the post-split membership is installed, the moved mass belongs to no
// queryable member — a read that completed inside that window would
// return a silently reduced sum. The generation seqlock must therefore
// hold reads across the whole window (they block until their context
// expires or the split finishes), never letting one through.
func TestWritableSplitHoldsReads(t *testing.T) {
	ctx := context.Background()
	entered := make(chan struct{})
	release := make(chan struct{})
	spawn := func(ctx context.Context, member shard.Member, moved []byte) (MutableShardClient, error) {
		close(entered) // SplitOut is done; the moved half is in flight
		<-release
		return httpSpawn(t)(ctx, member, moved)
	}
	wco, _ := foundWritable(t, 2, karl.Gaussian(1), karl.KDTree, spawn, WritableConfig{})
	pts, _ := dataset(300, 2, 71, "I")
	mustInsert(t, wco, pts, nil)

	q := []float64{0.1, 0.2}
	full, err := wco.Aggregate(ctx, q)
	if err != nil || full.Partial {
		t.Fatalf("pre-split aggregate: res=%+v err=%v", full, err)
	}

	done := make(chan error, 1)
	go func() { done <- wco.Split(context.Background(), 1) }()
	<-entered

	// Mid-window read: must block on the seqlock, not return a value.
	qctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if res, err := wco.Aggregate(qctx, q); err == nil {
		t.Fatalf("mid-split aggregate returned %+v; the source shard already dropped the moved half", res)
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-split aggregate: err = %v, want the read held until its deadline", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Split: %v", err)
	}
	res, err := wco.Aggregate(ctx, q)
	if err != nil || res.Partial {
		t.Fatalf("post-split aggregate: res=%+v err=%v", res, err)
	}
	if diff := math.Abs(res.Value - full.Value); diff > 1e-9*math.Max(math.Abs(full.Value), 1) {
		t.Fatalf("post-split value %v, want pre-split %v", res.Value, full.Value)
	}
}

// heldShard holds the first read it gets once armed — it signals entered
// and waits for release before asking the shard — so a test can complete a
// membership change while that read is in flight.
type heldShard struct {
	MutableShardClient
	armed            atomic.Bool
	entered, release chan struct{}
}

func (h *heldShard) hold(ctx context.Context) error {
	if !h.armed.CompareAndSwap(true, false) {
		return nil
	}
	close(h.entered)
	select {
	case <-h.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (h *heldShard) Aggregate(ctx context.Context, q []float64) (float64, error) {
	if err := h.hold(ctx); err != nil {
		return 0, err
	}
	return h.MutableShardClient.Aggregate(ctx, q)
}

func (h *heldShard) Bounds(ctx context.Context, q []float64, eps float64) (Bounds, error) {
	if err := h.hold(ctx); err != nil {
		return Bounds{}, err
	}
	return h.MutableShardClient.Bounds(ctx, q, eps)
}

func (h *heldShard) ThresholdBounds(ctx context.Context, q []float64, tau float64) (Bounds, error) {
	if err := h.hold(ctx); err != nil {
		return Bounds{}, err
	}
	return h.MutableShardClient.ThresholdBounds(ctx, q, tau)
}

// TestWritableReadRescattersAcrossSplit: a read already in flight when a
// split starts is not held by the seqlock — it is re-run. Member 1's read is
// held inside its shard call while Split(1) completes; let go, it asks a
// source that has dropped the moved half, so the first attempt sees the
// total less the moved mass. The generation moved under it, so the
// coordinator counts a rescatter and answers from the new membership: the
// pre-split monolithic total, for Aggregate, Threshold and Approximate.
func TestWritableReadRescattersAcrossSplit(t *testing.T) {
	const eps = 0.01
	ctx := context.Background()
	kern := karl.Gaussian(0.1)
	pts, w := dataset(400, 3, 73, "II")
	q := []float64{0.1, -0.1, 0.2}
	mono := newDynEngine(t, kern, karl.KDTree)
	if _, err := mono.InsertBulk(pts, w); err != nil {
		t.Fatalf("mono.InsertBulk: %v", err)
	}
	exact, err := mono.Aggregate(q)
	if err != nil {
		t.Fatalf("mono.Aggregate: %v", err)
	}
	// found builds the 2-member cluster every run starts from, member 1
	// behind a heldShard.
	found := func(t *testing.T) (*Coordinator, *heldShard) {
		held := &heldShard{
			MutableShardClient: listen(t, mutableServer(t, newDynEngine(t, kern, karl.KDTree))),
			entered:            make(chan struct{}),
			release:            make(chan struct{}),
		}
		founders := []WritableShard{{Client: held}, {Client: listen(t, mutableServer(t, newDynEngine(t, kern, karl.KDTree)))}}
		wco, err := NewWritable(ctx, shard.Hash, founders, httpSpawn(t), WritableConfig{})
		if err != nil {
			t.Fatalf("NewWritable: %v", err)
		}
		mustInsert(t, wco, pts, w)
		return wco, held
	}
	// The split moves the same half in every run: what the new member 3
	// holds at q is what a read of the pre-split membership misses.
	dry, _ := found(t)
	if err := dry.Split(ctx, 1); err != nil {
		t.Fatalf("Split: %v", err)
	}
	moved, err := dry.ep.Load().clients[3].Aggregate(ctx, q)
	if err != nil {
		t.Fatalf("moved half aggregate: %v", err)
	}
	if moved < 0.1*exact {
		t.Fatalf("fixture: the moved half holds %v of F(q) = %v at q, too little to tell a reduced sum", moved, exact)
	}

	reads := map[string]func(*Coordinator) (server.Result, error){
		"aggregate":   func(co *Coordinator) (server.Result, error) { return co.Aggregate(ctx, q) },
		"threshold":   func(co *Coordinator) (server.Result, error) { return co.Threshold(ctx, q, exact-moved/2) },
		"approximate": func(co *Coordinator) (server.Result, error) { return co.Approximate(ctx, q, eps) },
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			wco, held := found(t)
			before := wco.Status(ctx).Rescatters
			held.armed.Store(true)
			type answer struct {
				res server.Result
				err error
			}
			done := make(chan answer, 1)
			go func() {
				res, err := read(wco)
				done <- answer{res, err}
			}()
			select {
			case <-held.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the read never asked member 1")
			}
			if err := wco.Split(ctx, 1); err != nil {
				t.Fatalf("Split: %v", err)
			}
			close(held.release)
			a := <-done
			if a.err != nil || a.res.Partial {
				t.Fatalf("read across the split = %+v, %v", a.res, a.err)
			}
			if got := wco.Status(ctx).Rescatters - before; got < 1 {
				t.Errorf("the read straddled a split and was re-run %d times", got)
			}
			tol := 1e-9 * exact
			switch name {
			case "threshold":
				if !a.res.Over {
					t.Errorf("threshold %v: over = false; F(q) = %v, the pre-split membership less the moved half %v", exact-moved/2, exact, exact-moved)
				}
				return
			case "approximate":
				tol += eps * exact
			}
			if math.Abs(a.res.Value-exact) > tol {
				t.Errorf("value %v, want %v within %g (the reduced sum is %v)", a.res.Value, exact, tol, exact-moved)
			}
		})
	}
}

// TestWritableResume pins the restart path: a coordinator rebuilt from
// the persisted manifest carries the epoch, routing and split lineage
// forward — pre-restart cluster-global ids keep resolving, answers match,
// and the next membership change persists epoch+1 instead of tripping
// the stale-epoch guard. Members the resumed shard list cannot reach
// serve as unreachable, degrading answers to the explicit partial
// contract; a shard naming no manifest member is rejected.
func TestWritableResume(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "cluster.manifest")
	var spawned []WritableShard
	spawn := func(ctx context.Context, member shard.Member, moved []byte) (MutableShardClient, error) {
		c, err := httpSpawn(t)(ctx, member, moved)
		if err == nil {
			spawned = append(spawned, WritableShard{Client: c}) // the manifest records a member under its client's own name
		}
		return c, err
	}
	founders := make([]WritableShard, 2)
	for i := range founders {
		d := newDynEngine(t, karl.Gaussian(1), karl.KDTree)
		founders[i] = WritableShard{Client: listen(t, mutableServer(t, d))}
	}
	wco, err := NewWritable(ctx, shard.Hash, founders, spawn, WritableConfig{ManifestPath: path})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	pts, _ := dataset(300, 2, 53, "I")
	gids := mustInsert(t, wco, pts, nil)
	if err := wco.Split(ctx, 1); err != nil {
		t.Fatalf("Split: %v", err)
	}
	q := []float64{0.3, -0.2}
	want, err := wco.Aggregate(ctx, q)
	if err != nil || want.Partial {
		t.Fatalf("pre-restart aggregate: res=%+v err=%v", want, err)
	}

	// "Restart": rebuild from disk, re-attaching every member by name.
	man, err := LoadManifest(path)
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	resumedShards := append(append([]WritableShard(nil), founders...), spawned...)
	re, err := ResumeWritable(ctx, man, resumedShards, spawn, WritableConfig{ManifestPath: path})
	if err != nil {
		t.Fatalf("ResumeWritable: %v", err)
	}
	if st, want := re.Status(ctx), wco.Status(ctx).Epoch; st.Epoch != want || len(st.Members) != 3 {
		t.Fatalf("resumed epoch=%d shards=%d, want epoch=%d shards=3", st.Epoch, len(st.Members), want)
	}
	res, err := re.Aggregate(ctx, q)
	if err != nil || res.Partial {
		t.Fatalf("resumed aggregate: res=%+v err=%v", res, err)
	}
	if diff := math.Abs(res.Value - want.Value); diff > 1e-9*math.Max(math.Abs(want.Value), 1) {
		t.Fatalf("resumed value %v, want %v", res.Value, want.Value)
	}
	// Pre-restart ids still resolve through the restored lineage.
	if err := re.Delete(ctx, gids[0]); err != nil {
		t.Fatalf("pre-restart id after resume: %v", err)
	}
	// Writes keep routing, and the next membership change advances the
	// persisted epoch past the resumed one.
	more, _ := dataset(50, 2, 54, "I")
	ids2, err := re.Insert(ctx, more, nil)
	if err != nil || len(ids2) != len(more) {
		t.Fatalf("post-resume insert: ids=%d err=%v", len(ids2), err)
	}
	preSplit := re.Status(ctx).Epoch
	if err := re.Split(ctx, 2); err != nil {
		t.Fatalf("post-resume split: %v", err)
	}
	onDisk, err := LoadManifest(path)
	if err != nil {
		t.Fatalf("LoadManifest after post-resume split: %v", err)
	}
	if live := re.Status(ctx).Epoch; onDisk.Epoch != preSplit+1 || onDisk.Epoch != live {
		t.Fatalf("post-resume split persisted epoch %d, live %d, want %d", onDisk.Epoch, live, preSplit+1)
	}

	// Resuming without the split-off member degrades, never lies: its
	// mass stays in the denominator, so answers are explicitly partial.
	part, err := ResumeWritable(ctx, man, founders, nil, WritableConfig{})
	if err != nil {
		t.Fatalf("ResumeWritable (degraded): %v", err)
	}
	pres, err := part.Aggregate(ctx, q)
	if err != nil {
		t.Fatalf("degraded resumed aggregate: %v", err)
	}
	if !pres.Partial || pres.Covered >= 1 {
		t.Fatalf("resume missing a member must answer partial: %+v", pres)
	}

	// A client naming no manifest member belongs to a different cluster.
	stranger := []WritableShard{{Client: listen(t, mutableServer(t, newDynEngine(t, karl.Gaussian(1), karl.KDTree)))}}
	if _, err := ResumeWritable(ctx, man, stranger, nil, WritableConfig{}); err == nil {
		t.Fatal("resuming with an unknown shard name must fail")
	}
}

// TestWritableFoundingRefusesDuplicateMember: a -shards list that names one
// shard twice (karl-serve trims a trailing slash, so http://s0:8080 and
// http://s0:8080/ are one shard) founded a cluster that summed the shard
// twice and persisted a manifest LoadManifest then refused. Founding runs
// the loader's checks: it is refused, and nothing is written.
func TestWritableFoundingRefusesDuplicateMember(t *testing.T) {
	pts, _ := dataset(200, 2, 61, "I")
	c := listen(t, readServer(t, buildEngine(t, pts, nil, karl.Gaussian(1), karl.KDTree)))
	path := filepath.Join(t.TempDir(), "cluster.manifest")
	twice := []WritableShard{{Client: c}, {Client: NewHTTPShard(c.Name())}}
	if co, err := NewWritable(context.Background(), shard.Hash, twice, nil, WritableConfig{ManifestPath: path}); err == nil {
		res, _ := co.Aggregate(context.Background(), []float64{0, 0})
		t.Fatalf("founded over one shard named twice (aggregate %+v)", res)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused founding left a manifest behind: %v", err)
	}
}

// TestWritableRoutesLikeEngineShard: Engine.Shard places points by the
// manifest a coordinator founds, so every point of hash shard i routes to
// member i+1 of a cluster founded over the shards in order, and a re-insert
// goes where its twin lives. n = 3 does not divide the 256-slot table, which
// is where a second, offline hash rule (FNV-1a mod n) placed most points on
// another shard.
func TestWritableRoutesLikeEngineShard(t *testing.T) {
	pts, _ := dataset(600, 3, 67, "I")
	// So sharp a kernel answers 1 at a point the shard holds and 0 at any
	// other: a shard's aggregate at p says whether it holds p.
	mono := buildEngine(t, pts, nil, karl.Gaussian(1e12), karl.KDTree)
	shards, err := mono.Shard(3, karl.HashPartition)
	if err != nil {
		t.Fatalf("Shard: %v", err)
	}
	co, _ := httpCluster(t, shards, Config{})
	man := co.Manifest()
	misrouted := 0
	for _, p := range pts {
		v, err := shards[man.Route(p)-1].Aggregate(p)
		if err != nil {
			t.Fatalf("Aggregate: %v", err)
		}
		if v < 0.5 {
			misrouted++
		}
	}
	if misrouted > 0 {
		t.Fatalf("%d of %d points route to a member whose shard does not hold them", misrouted, len(pts))
	}
}

// infoCountingClient counts the Info round trips made to a member.
type infoCountingClient struct {
	MutableShardClient
	infos *atomic.Int64
}

func (c infoCountingClient) Info(ctx context.Context) (ShardInfo, error) {
	c.infos.Add(1)
	return c.MutableShardClient.Info(ctx)
}

// TestWritableSplitTriggerReadsRecordedMasses pins the write-path cost model:
// an acknowledged insert refreshes the weight masses of the members it
// touched from the write's own reply, and the automatic split trigger reads
// those recorded masses after every insert — it makes no Info round trip.
// 300 single-point inserts into a 2-member hash cluster, spawn armed, cost
// no Info call; a batch that makes member 1 outweigh member 2 more than
// splitFactor times splits it at once, and the only Info calls are the
// discovery round that installs the new epoch, one per member.
func TestWritableSplitTriggerReadsRecordedMasses(t *testing.T) {
	ctx := context.Background()
	var infos atomic.Int64
	founders := make([]WritableShard, 2)
	for i := range founders {
		d := newDynEngine(t, karl.Gaussian(1), karl.KDTree)
		// Seed each member so the dataset has a dimensionality at founding
		// — otherwise the first insert also pays the Info round of the
		// install that learns it, which is not what this test counts.
		if err := d.Insert([]float64{float64(i), -float64(i)}, 1); err != nil {
			t.Fatalf("seed insert: %v", err)
		}
		founders[i] = WritableShard{Client: infoCountingClient{listen(t, mutableServer(t, d)), &infos}}
	}
	wco, err := NewWritable(ctx, shard.Hash, founders, httpSpawn(t), WritableConfig{})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	base := infos.Load()
	pts, _ := dataset(300, 2, 57, "I")
	for _, p := range pts {
		mustInsert(t, wco, [][]float64{p}, nil)
	}
	if got := infos.Load() - base; got != 0 {
		t.Fatalf("300 single-point inserts cost %d Info calls, want 0 (the trigger reads the masses the write replies carried)", got)
	}
	if st := wco.Status(ctx); st.Splits != 0 || st.Points != len(pts)+2 {
		t.Fatalf("balanced inserts: %d splits, %d points; want 0 and %d", st.Splits, st.Points, len(pts)+2)
	}

	// minSplitPoints points of weight 8 on member 1 put its mass far past
	// splitFactor times member 2's.
	man := wco.Manifest()
	var heavy [][]float64
	more, _ := dataset(4*minSplitPoints, 2, 58, "I")
	for _, p := range more {
		if man.Route(p) == 1 && len(heavy) < minSplitPoints {
			heavy = append(heavy, p)
		}
	}
	weights := make([]float64, len(heavy))
	for i := range weights {
		weights[i] = 8
	}
	base = infos.Load()
	mustInsert(t, wco, heavy, weights)
	if st := wco.Status(ctx); st.Splits != 1 || len(st.Members) != 3 {
		t.Fatalf("after a heavy batch on member 1: %d splits, %d members; want 1 and 3", st.Splits, len(st.Members))
	}
	if got := infos.Load() - base; got != 2 {
		t.Fatalf("the split cost %d Info calls to the founding members, want 2 (the install's discovery round alone)", got)
	}
}

// failingInsertClient accepts everything except inserts.
type failingInsertClient struct {
	MutableShardClient
}

func (c failingInsertClient) Insert(context.Context, [][]float64, []float64) ([]uint64, error) {
	return nil, errors.New("disk full")
}

// TestWritableInsertPartialIDs pins the mid-batch failure contract: the
// cross-member insert is not transactional, so when a later member
// fails, the ids of points that already landed on earlier members come
// back with the error (non-zero entries — 0 is never a valid cluster
// id), letting the caller delete the orphans or dedup a retry.
func TestWritableInsertPartialIDs(t *testing.T) {
	ctx := context.Background()
	founders := []WritableShard{
		{Client: listen(t, mutableServer(t, newDynEngine(t, karl.Gaussian(1), karl.KDTree)))},
		{Client: failingInsertClient{listen(t, mutableServer(t, newDynEngine(t, karl.Gaussian(1), karl.KDTree)))}},
	}
	wco, err := NewWritable(ctx, shard.Hash, founders, nil, WritableConfig{})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	// Order the batch so the healthy member's group lands first: the
	// router walks members in first-appearance order.
	pts, _ := dataset(60, 2, 59, "I")
	man := wco.Manifest()
	var ordered [][]float64
	for _, p := range pts {
		if man.Route(p) == 1 {
			ordered = append(ordered, p)
		}
	}
	okCount := len(ordered)
	for _, p := range pts {
		if man.Route(p) == 2 {
			ordered = append(ordered, p)
		}
	}
	if okCount == 0 || okCount == len(pts) {
		t.Fatalf("degenerate routing: %d of %d points on the healthy member", okCount, len(pts))
	}
	ids, err := wco.Insert(ctx, ordered, nil)
	if err == nil {
		t.Fatal("insert with a failing member must error")
	}
	if len(ids) != len(ordered) {
		t.Fatalf("partial ids length %d, want %d", len(ids), len(ordered))
	}
	for i, id := range ids {
		if i < okCount {
			if id == 0 {
				t.Fatalf("point %d landed on the healthy member but its id is missing", i)
			}
			if mid, _ := DecodeID(id); mid != 1 {
				t.Fatalf("point %d id decodes to member %d, want 1", i, mid)
			}
		} else if id != 0 {
			t.Fatalf("point %d routed to the failing member but reports id %d", i, id)
		}
	}
	// The reported orphans are real: a non-zero id deletes.
	if err := wco.Delete(ctx, ids[0]); err != nil {
		t.Fatalf("orphan delete: %v", err)
	}
}

// TestHTTPShardBare404 pins the 404 discrimination: only a 404 carrying
// the server's JSON error envelope is the shard's own "unknown point id"
// verdict. A bare 404 — an unregistered route (a shard not running
// -mutable) or a wrong base URL — must surface as an ordinary failure,
// not be swallowed by the coordinator's lineage chase as "point not
// found".
func TestHTTPShardBare404(t *testing.T) {
	ctx := context.Background()
	// No /v1/point route at all: the mux answers a bare text 404.
	err := listen(t, http.NewServeMux()).Delete(ctx, 7)
	if err == nil {
		t.Fatal("delete against a route-less server must fail")
	}
	if errors.Is(err, karl.ErrPointNotFound) {
		t.Fatalf("bare 404 mapped to ErrPointNotFound: %v", err)
	}
	if errors.Is(err, errRejected) {
		t.Fatalf("bare 404 treated as a clean shard refusal: %v", err)
	}
	// The genuine unknown-id 404 still carries the envelope and maps to
	// the sentinel the lineage chase relies on.
	served := listen(t, mutableServer(t, newDynEngine(t, karl.Gaussian(1), karl.KDTree)))
	if err := served.Delete(ctx, 12345); !errors.Is(err, karl.ErrPointNotFound) {
		t.Fatalf("enveloped 404: err = %v, want ErrPointNotFound", err)
	}
}

// TestWritableMassRefreshMultiSeed is the regression test for the frozen
// shard masses: a cluster founded empty and seeded in SEVERAL requests
// used to keep, in its read coordinator, the weight masses of the first
// request forever, so the a-priori clamp [klo·W_S, khi·W_S] cut every
// later shard answer down to the first request's mass — a silently wrong
// eKAQ and TKAQ. The points sit in one tight clump (K ≈ 1 everywhere), so
// each shard's true contribution is close to its full mass and any stale
// clamp bites. After every write the coordinator must agree with a
// monolithic engine fed the same stream; reads themselves probe nothing.
func TestWritableMassRefreshMultiSeed(t *testing.T) {
	const eps = 0.05
	ctx := context.Background()
	kern := karl.Gaussian(0.5)
	var infos atomic.Int64
	founders := make([]WritableShard, 2)
	for i := range founders {
		founders[i] = WritableShard{Client: infoCountingClient{
			listen(t, mutableServer(t, newDynEngine(t, kern, karl.KDTree))), &infos}}
	}
	wco, err := NewWritable(ctx, shard.Hash, founders, nil, WritableConfig{})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	mono := newDynEngine(t, kern, karl.KDTree)
	queries := [][]float64{{0, 0, 0}, {0.02, -0.01, 0.03}, {0.3, 0.3, 0.3}}

	check := func(stage string) {
		t.Helper()
		before := infos.Load()
		for _, q := range queries {
			exact, err := mono.Aggregate(q)
			if err != nil {
				t.Fatalf("%s: mono.Aggregate: %v", stage, err)
			}
			res, err := wco.Approximate(ctx, q, eps)
			if err != nil {
				t.Fatalf("%s: Approximate: %v", stage, err)
			}
			if math.Abs(res.Value-exact) > eps*math.Abs(exact)+1e-9 {
				t.Fatalf("%s: eKAQ %v is outside eps=%v of the monolithic total %v", stage, res.Value, eps, exact)
			}
			for _, tau := range []float64{0.5 * exact, 1.5 * exact} {
				got, err := wco.Threshold(ctx, q, tau)
				if err != nil {
					t.Fatalf("%s: Threshold: %v", stage, err)
				}
				if got.Over != (exact > tau) {
					t.Fatalf("%s: TKAQ at tau=%v says over=%v, monolithic total is %v", stage, tau, got.Over, exact)
				}
			}
		}
		if got := infos.Load() - before; got != 0 {
			t.Fatalf("%s: reads cost %d Info calls, want 0 (masses refresh on the write path only)", stage, got)
		}
		if got := wco.Status(ctx).Points; got != mono.Len() {
			t.Fatalf("%s: coordinator reports %d points, monolithic engine holds %d", stage, got, mono.Len())
		}
	}

	rng := rand.New(rand.NewSource(61))
	var gids, mids []uint64
	for req := 0; req < 6; req++ {
		pts := make([][]float64, 96)
		for i := range pts {
			pts[i] = []float64{0.05 * rng.NormFloat64(), 0.05 * rng.NormFloat64(), 0.05 * rng.NormFloat64()}
		}
		gids = append(gids, mustInsert(t, wco, pts, nil)...)
		ids, err := mono.InsertBulk(pts, nil)
		if err != nil {
			t.Fatalf("mono.InsertBulk: %v", err)
		}
		mids = append(mids, ids...)
		check(fmt.Sprintf("after seeding request %d", req+1))
	}
	// Deletes shrink the masses: the coverage accounting and point count
	// must follow them down too.
	half := len(gids) / 2
	if n, err := wco.DeleteMany(ctx, gids[:half]); err != nil || n != half {
		t.Fatalf("DeleteMany = %d, %v; want %d deletes", n, err, half)
	}
	for _, id := range mids[:half] {
		if err := mono.Delete(id); err != nil {
			t.Fatalf("mono.Delete(%d): %v", id, err)
		}
	}
	check("after deleting half")
}

// deleteCountingClient counts the delete calls a member receives, by kind.
type deleteCountingClient struct {
	MutableShardClient
	single, bulk *atomic.Int64
}

func (c deleteCountingClient) Delete(ctx context.Context, id uint64) error {
	c.single.Add(1)
	return c.MutableShardClient.Delete(ctx, id)
}

func (c deleteCountingClient) DeleteMany(ctx context.Context, ids []uint64) (int, error) {
	c.bulk.Add(1)
	return c.MutableShardClient.DeleteMany(ctx, ids)
}

// TestWritableDeleteManyPerMember pins the bulk-delete protocol: ids
// spanning members cost one shard call per member, a missing id mid-batch
// stops the request with an honest count and the failing id (through the
// API and on the wire), and ids a split moved away are chased down their
// lineage without disturbing the rest of their batch.
func TestWritableDeleteManyPerMember(t *testing.T) {
	ctx := context.Background()
	var single, bulk atomic.Int64
	counted := func(c MutableShardClient) MutableShardClient {
		return deleteCountingClient{c, &single, &bulk}
	}
	founders := make([]WritableShard, 2)
	for i := range founders {
		founders[i] = WritableShard{Client: counted(listen(t, mutableServer(t, newDynEngine(t, karl.Gaussian(1), karl.KDTree))))}
	}
	spawn := func(ctx context.Context, member shard.Member, moved []byte) (MutableShardClient, error) {
		c, err := httpSpawn(t)(ctx, member, moved)
		if err != nil {
			return nil, err
		}
		return counted(c), nil
	}
	wco, err := NewWritable(ctx, shard.Hash, founders, spawn, WritableConfig{})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	pts, _ := dataset(300, 2, 83, "I")
	gids := mustInsert(t, wco, pts, nil)
	point := map[uint64][]float64{}
	var m1, m2 []uint64 // the two members' ids, in insertion order
	for i, gid := range gids {
		point[gid] = pts[i]
		if mid, _ := DecodeID(gid); mid == 1 {
			m1 = append(m1, gid)
		} else {
			m2 = append(m2, gid)
		}
	}
	if len(m1) < 60 || len(m2) < 60 {
		t.Fatalf("fixture: members hold %d and %d points", len(m1), len(m2))
	}
	take := func(ids *[]uint64, n int) []uint64 {
		out := (*ids)[:n]
		*ids = (*ids)[n:]
		return out
	}
	calls := func() (int64, int64) { return single.Swap(0), bulk.Swap(0) }
	live := len(pts)
	checkPoints := func(stage string) {
		t.Helper()
		if got := wco.Status(ctx).Points; got != live {
			t.Fatalf("%s: coordinator reports %d points, want %d (masses ride on the delete replies)", stage, got, live)
		}
	}

	// Ids spanning both members, interleaved: one bulk call each.
	var batch []uint64
	for i, a, b := 0, take(&m1, 20), take(&m2, 20); i < 20; i++ {
		batch = append(batch, a[i], b[i])
	}
	if n, err := wco.DeleteMany(ctx, batch); err != nil || n != len(batch) {
		t.Fatalf("DeleteMany = %d, %v; want %d", n, err, len(batch))
	}
	if s, b := calls(); s != 0 || b != 2 {
		t.Fatalf("40 ids over 2 members cost %d single and %d bulk shard calls, want 0 and 2", s, b)
	}
	live -= len(batch)
	checkPoints("spanning batch")

	// A missing id mid-batch. Member 1's group goes first and stops at the
	// bogus id after two removals; member 2's group is never sent, so the
	// count removed is not the failing id's index in the request.
	bogus, _ := EncodeID(1, 1<<40)
	missing := func() []uint64 {
		a, b := take(&m1, 3), take(&m2, 2)
		return []uint64{a[0], b[0], a[1], bogus, a[2], b[1]}
	}
	req := missing()
	n, err := wco.DeleteMany(ctx, req)
	var de *DeleteError
	if !errors.As(err, &de) || !errors.Is(err, karl.ErrPointNotFound) {
		t.Fatalf("DeleteMany with a missing id: err = %v, want a *DeleteError wrapping ErrPointNotFound", err)
	}
	if n != 2 || de.ID != bogus {
		t.Fatalf("DeleteMany = %d removed, failing id %d; want 2 and %d", n, de.ID, bogus)
	}
	if s, b := calls(); s != 0 || b != 1 {
		t.Fatalf("failed batch cost %d single and %d bulk calls, want 0 and 1 (member 1 has no descendant to chase into)", s, b)
	}
	live -= 2
	checkPoints("missing id")
	if n, err := wco.DeleteMany(ctx, []uint64{req[1], req[4], req[5]}); err != nil || n != 3 {
		t.Fatalf("ids behind the failure: DeleteMany = %d, %v; want all 3 still deletable", n, err)
	}
	live -= 3

	// The same failure on the wire: fields, not only prose.
	front := server.NewTestServer(NewWritableHTTPServer(wco))
	t.Cleanup(front.Close)
	req = missing()
	status, body := doJSON(t, http.MethodDelete, front.URL+"/v1/point", map[string]any{"ids": req})
	var wire ClusterDeleteErrorResponse
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatalf("decode delete failure: %v (%s)", err, body)
	}
	if status != http.StatusNotFound || wire.Deleted != 2 || wire.FailedID != bogus || wire.Error == "" {
		t.Fatalf("wire delete failure: status %d, %+v; want 404, 2 deleted, failed_id %d", status, wire, bogus)
	}
	live -= 2
	if n, err := wco.DeleteMany(ctx, []uint64{req[1], req[4], req[5]}); err != nil || n != 3 {
		t.Fatalf("ids behind the wire failure: DeleteMany = %d, %v", n, err)
	}
	live -= 3
	calls()

	// A split moves part of member 1 to a new member 3. Deleting everything
	// that is left removes every point: each id member 1 reports missing is
	// chased to the descendant (one single delete there, member 1 is not
	// asked twice) and the rest of its group follows in a further bulk call.
	if err := wco.Split(ctx, 1); err != nil {
		t.Fatalf("Split: %v", err)
	}
	man := wco.Manifest()
	moved, lastMoved := 0, false
	for _, gid := range m1 {
		lastMoved = man.Route(point[gid]) != 1
		if lastMoved {
			moved++
		}
	}
	if moved == 0 || moved == len(m1) {
		t.Fatalf("fixture: the split moved %d of member 1's %d remaining points", moved, len(m1))
	}
	rest := append(append([]uint64(nil), m1...), m2...)
	if n, err := wco.DeleteMany(ctx, rest); err != nil || n != len(rest) {
		t.Fatalf("DeleteMany after the split = %d, %v; want %d", n, err, len(rest))
	}
	wantBulk := int64(moved) + 1 // member 1's group restarts after every moved id; member 2's group
	if !lastMoved {
		wantBulk++
	}
	if s, b := calls(); s != int64(moved) || b != wantBulk {
		t.Fatalf("post-split delete of %d ids (%d moved) cost %d single and %d bulk calls, want %d and %d",
			len(rest), moved, s, b, moved, wantBulk)
	}
	live = 0
	checkPoints("everything deleted")
}

// TestWritableSplitLargeMember splits a member whose moved half (20 000 d=8
// points, ≈ 2.4 MB as base64 JSON) is larger than the 1 MiB at which the
// shard client used to cut every reply: the source had dropped the half by
// then, so the cut lost it and took the member offline. Every point must
// still be held by a member that answers, and answers must not move.
func TestWritableSplitLargeMember(t *testing.T) {
	ctx := context.Background()
	pts, _ := dataset(40000, 8, 91, "I")
	root, err := karl.Build(pts, karl.Gaussian(0.05))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const eps = 0.05
	queries, _ := dataset(8, 8, 92, "I")
	want := make([]float64, len(queries))
	for i, q := range queries {
		if want[i], err = root.Aggregate(q); err != nil {
			t.Fatalf("Aggregate: %v", err)
		}
	}
	wco, err := NewWritable(ctx, shard.KDSplit,
		[]WritableShard{{Client: listen(t, mutableServer(t, root))}},
		httpSpawn(t), WritableConfig{})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	if err := wco.Split(ctx, 1); err != nil {
		t.Fatalf("Split: %v", err)
	}
	moved, st := wco.Manifest().Member(2), wco.Status(ctx)
	if st.Quarantines != 0 || moved == nil || moved.Points < len(pts)/4 || root.Len()+moved.Points != len(pts) {
		t.Fatalf("after the split: source holds %d, moved member %+v, %d quarantines; want %d points between two live members",
			root.Len(), moved, st.Quarantines, len(pts))
	}
	if st.Points != len(pts) {
		t.Fatalf("coordinator reports %d points, want %d", st.Points, len(pts))
	}
	for i, q := range queries {
		res, err := wco.Approximate(ctx, q, eps)
		if err != nil || res.Partial || res.Covered != 1 {
			t.Fatalf("q%d: Approximate = %+v, %v; want a whole answer", i, res, err)
		}
		if math.Abs(res.Value-want[i]) > eps*want[i]*(1+1e-9) {
			t.Errorf("q%d: eKAQ %v, monolithic aggregate %v", i, res.Value, want[i])
		}
	}
}

// TestWritableInsertLargeBatch inserts 200 000 points in one request: the
// member's reply (their ids, ≈ 1.3 MB) used to be cut at 1 MiB after every
// point had landed, so the caller got an error and no id — orphans nobody
// could delete. All ids must come back, in input order.
func TestWritableInsertLargeBatch(t *testing.T) {
	ctx := context.Background()
	d, err := karl.NewDynamic(karl.Gaussian(1))
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	wco, err := NewWritable(ctx, shard.Hash,
		[]WritableShard{{Client: listen(t, mutableServer(t, d))}},
		nil, WritableConfig{})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	pts, _ := dataset(200000, 2, 93, "I")
	gids := mustInsert(t, wco, pts, nil)
	if got := wco.Status(ctx).Points; len(gids) != len(pts) || d.Len() != len(pts) || got != len(pts) {
		t.Fatalf("%d ids for %d points; the member holds %d, the coordinator reports %d", len(gids), len(pts), d.Len(), got)
	}
	_, first := DecodeID(gids[0])
	for i, gid := range gids {
		if mid, seq := DecodeID(gid); mid != 1 || seq != first+uint64(i) {
			t.Fatalf("id %d decodes to member %d seq %d, want member 1 seq %d", i, mid, seq, first+uint64(i))
		}
	}
	if err := wco.Delete(ctx, gids[len(gids)-1]); err != nil {
		t.Fatalf("deleting the last id: %v", err)
	}
}

// infoCountingTransport counts GET /v1/info per host and the most that were
// ever in flight at once; each is held long enough that a round issued member
// by member could not overlap.
type infoCountingTransport struct {
	inner http.RoundTripper

	mu       sync.Mutex
	perHost  map[string]int
	inFlight int
	peak     int
}

func (c *infoCountingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && r.URL.Path == "/v1/info" {
		c.mu.Lock()
		c.perHost[r.URL.Host]++
		c.inFlight++
		c.peak = max(c.peak, c.inFlight)
		c.mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		defer func() {
			c.mu.Lock()
			c.inFlight--
			c.mu.Unlock()
		}()
	}
	return c.inner.RoundTrip(r)
}

// round returns the per-host counts and the peak since the last call.
func (c *infoCountingTransport) round() (map[string]int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	perHost, peak := c.perHost, c.peak
	c.perHost, c.peak = map[string]int{}, 0
	return perHost, peak
}

// TestWritableOneDiscoveryRound: installing an epoch asks every reachable
// member for its Info exactly once, all members at once — the install after
// the first insert into a cluster founded empty, a split and a promotion
// alike. Reads are held while the generation is odd, so a second round, or a
// round walked member by member, is latency every reader pays.
func TestWritableOneDiscoveryRound(t *testing.T) {
	ctx := context.Background()
	kern := karl.Gaussian(0.5)
	counter := &infoCountingTransport{inner: &syncTransport{}, perHost: map[string]int{}}
	counted := func(h http.Handler) *HTTPShard {
		ts := server.NewTestServer(h)
		t.Cleanup(ts.Close)
		return NewHTTPShardClient(ts.URL, &http.Client{Transport: counter})
	}
	leader := newDynEngine(t, kern, karl.KDTree)
	mirror := newDynEngine(t, kern, karl.KDTree)
	leaderClient := counted(mutableServer(t, leader))
	applier := replica.NewApplier(mirror, replica.NewHTTPSource(leaderClient.Name()))
	founders := []WritableShard{
		{Client: leaderClient, Followers: []FollowerClient{counted(mutableServer(t, mirror, server.WithReplicaApplier(applier)))}},
		{Client: counted(mutableServer(t, newDynEngine(t, kern, karl.KDTree)))},
	}
	spawn := func(_ context.Context, _ shard.Member, moved []byte) (MutableShardClient, error) {
		d, err := karl.ReadEngine(bytes.NewReader(moved))
		if err != nil {
			return nil, err
		}
		srv, err := server.NewMutable(d)
		if err != nil {
			return nil, err
		}
		return counted(srv), nil
	}
	wco, err := NewWritable(ctx, shard.Hash, founders, spawn, WritableConfig{})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}
	check := func(step string, members int) {
		t.Helper()
		perHost, peak := counter.round()
		if len(perHost) != members {
			t.Errorf("%s: GET /v1/info reached %d members, want %d: %v", step, len(perHost), members, perHost)
		}
		for host, n := range perHost {
			if n != 1 {
				t.Errorf("%s: %d GET /v1/info to %s, want exactly 1", step, n, host)
			}
		}
		if peak != members {
			t.Errorf("%s: at most %d GET /v1/info in flight at once, want all %d", step, peak, members)
		}
	}
	check("founding", 2)

	pts, _ := dataset(300, 3, 53, "I")
	mustInsert(t, wco, pts, nil) // founded empty: the epoch that learns the dimensionality
	check("install after the first insert", 2)

	if err := wco.Split(ctx, 2); err != nil {
		t.Fatalf("Split: %v", err)
	}
	check("split", 3)

	if err := applier.CatchUp(ctx); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	if err := wco.Promote(ctx, 1); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	check("promotion", 3)
}
