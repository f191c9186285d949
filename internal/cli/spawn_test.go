package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"karl"
	"karl/internal/cluster"
	"karl/internal/shard"
)

// childEnv marks a process this test binary started as a serve process.
// TestMain sets it, and every child inherits it.
const childEnv = "KARL_CLI_TEST_CHILD"

// TestMain doubles as the spawned children's entry point: a child runs the
// serve verb the way the binary it stands in for would, `karl serve …`
// through Main or `karl-serve …` through Serve, before the testing
// framework parses the command line.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		if len(os.Args) > 1 && os.Args[1] == "serve" {
			os.Exit(Main(os.Args[1:]))
		}
		os.Exit(Serve(os.Args[1:]))
	}
	os.Setenv(childEnv, "1")
	os.Exit(m.Run())
}

// The two ways a serve process starts: as the karl binary's verb and as the
// karl-serve shim.
var (
	asKarl = spawner{"serve"}
	asShim = spawner(nil)
)

// TestSpawnExecSplit exercises the exec spawn backend end to end, once
// under each invocation: a writable cluster founded over one real child
// process splits, the spawner execs a second `serve -mutable` child seeded
// with the moved half, and the persisted manifest records that child under
// its base URL — with the total kernel mass conserved across the split.
func TestSpawnExecSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real child processes")
	}
	t.Run("karl serve", func(t *testing.T) { testSpawnExecSplit(t, asKarl) })
	t.Run("karl-serve", func(t *testing.T) { testSpawnExecSplit(t, asShim) })
}

func testSpawnExecSplit(t *testing.T, sp spawner) {
	t.Cleanup(killSpawned)
	ctx := context.Background()

	d, err := karl.NewDynamic(karl.Gaussian(0.8), karl.WithSealSize(64))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		p := []float64{rng.NormFloat64(), rng.NormFloat64()}
		if err := d.Insert(p, 0.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	q := []float64{0.25, -0.4}
	want, err := d.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	var seedStream bytes.Buffer
	if _, err := d.WriteTo(&seedStream); err != nil {
		t.Fatal(err)
	}

	// Found the cluster over a child process started by the same spawn
	// path a split uses, so the whole test runs against real processes.
	seed, err := sp.spawn(ctx, shard.Member{ID: 1, Name: "seed"}, seedStream.Bytes())
	if err != nil {
		t.Fatalf("spawning founding shard: %v", err)
	}
	manPath := filepath.Join(t.TempDir(), "cluster.manifest")
	wco, err := cluster.NewWritable(ctx, shard.Hash,
		[]cluster.WritableShard{{Client: seed}}, sp.spawn,
		cluster.WritableConfig{
			Config:       cluster.Config{Timeout: 5 * time.Second},
			ManifestPath: manPath,
		})
	if err != nil {
		t.Fatalf("NewWritable: %v", err)
	}

	if err := wco.Split(ctx, 1); err != nil {
		t.Fatalf("Split: %v", err)
	}
	if n := len(wco.Status(ctx).Members); n != 2 {
		t.Fatalf("%d members after split, want 2", n)
	}

	// The spawned member must be in the PERSISTED manifest under its
	// base URL (what a later resume re-attaches by), not under the
	// placeholder name the coordinator invented before the child's
	// address was known.
	man, err := cluster.LoadManifest(manPath)
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	mb := man.Member(2)
	if mb == nil {
		t.Fatalf("spawned member 2 missing from persisted manifest (members: %+v)", man.Members)
	}
	if !strings.HasPrefix(mb.Name, "http://127.0.0.1:") {
		t.Fatalf("spawned member name = %q, want its base URL", mb.Name)
	}

	// Both members are live OS processes.
	spawnedProcs.mu.Lock()
	procs := append([]*os.Process(nil), spawnedProcs.procs...)
	spawnedProcs.mu.Unlock()
	if len(procs) != 2 {
		t.Fatalf("spawned %d processes, want 2", len(procs))
	}
	for i, p := range procs {
		if err := p.Signal(syscall.Signal(0)); err != nil {
			t.Fatalf("spawned process %d (pid %d) not alive: %v", i, p.Pid, err)
		}
	}

	// Mass conservation: the split moved half the points into the new
	// child; the cluster aggregate over both processes must equal the
	// pre-split monolithic value.
	res, err := wco.Aggregate(ctx, q)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if res.Partial {
		t.Fatalf("aggregate partial after split: %+v", res)
	}
	if math.Abs(res.Value-want) > 1e-9*math.Abs(want) {
		t.Fatalf("post-split aggregate = %v, want %v", res.Value, want)
	}

	// The child answers direct deletes routed by the coordinator too:
	// insert through the cluster and delete the returned global ids.
	pts := [][]float64{{0.1, 0.2}, {-0.3, 0.7}, {1.1, -0.2}}
	ids, err := wco.Insert(ctx, pts, nil)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	for _, id := range ids {
		if err := wco.Delete(ctx, id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
	}
}

// spawnServe execs the test binary as a serve process started the way sp
// starts one, with the given flags (plus -addr 127.0.0.1:0 and the
// -addr-file handshake), and returns its base URL once the address is
// published.
func spawnServe(t *testing.T, sp spawner, args ...string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	args = append(append(append([]string(nil), sp...), args...), "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
	addr, err := waitForAddrFile(context.Background(), addrFile, spawnStartTimeout)
	if err != nil {
		t.Fatalf("child never published its address: %v", err)
	}
	return "http://" + addr
}

// TestReplicaOfProcess runs the -replica-of serving mode end to end
// across two real processes: the follower bootstraps from the leader's
// snapshot, converges through the pull loop, refuses writes until
// promoted over HTTP, and accepts them afterwards.
func TestReplicaOfProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real child processes")
	}
	ctx := context.Background()

	leaderURL := spawnServe(t, asKarl, "-mutable", "-gamma", "0.9", "-seal-size", "64")
	leader := cluster.NewHTTPShard(leaderURL)
	if err := waitHealthy(ctx, leader); err != nil {
		t.Fatalf("leader never healthy: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	pts := make([][]float64, 300)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	ids, err := leader.Insert(ctx, pts, nil)
	if err != nil {
		t.Fatalf("leader insert: %v", err)
	}
	for i, id := range ids {
		if i%9 == 2 {
			if err := leader.Delete(ctx, id); err != nil {
				t.Fatalf("leader delete: %v", err)
			}
		}
	}

	followerURL := spawnServe(t, asShim, "-mutable", "-replica-of", leaderURL)
	follower := cluster.NewHTTPShard(followerURL)
	if err := waitHealthy(ctx, follower); err != nil {
		t.Fatalf("follower never healthy: %v", err)
	}

	// Converge: the pull loop ticks every 100ms. Lag() alone is not
	// convergence — deletes advance the delete position, not the seq
	// watermark — so compare both counters against the now-quiescent
	// leader's status.
	leaderSt, err := leader.ReplicaStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(spawnStartTimeout)
	for {
		st, err := follower.ReplicaStatus(ctx)
		if err == nil && st.State == "live" &&
			st.NextSeq == leaderSt.NextSeq && st.DeletePos == leaderSt.DeletePos {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up (last status %+v, err %v; leader %+v)", st, err, leaderSt)
		}
		time.Sleep(50 * time.Millisecond)
	}
	q := []float64{0.4, -0.15}
	want, err := leader.Aggregate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.Aggregate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("follower aggregate = %v, leader = %v", got, want)
	}

	// An unpromoted follower refuses writes — a misrouted insert must
	// not fork it from its leader.
	if _, err := follower.Insert(ctx, [][]float64{{0, 0}}, nil); err == nil {
		t.Fatal("insert on unpromoted follower should fail")
	}

	if _, err := follower.Promote(ctx); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if _, err := follower.Insert(ctx, [][]float64{{0.2, 0.2}}, nil); err != nil {
		t.Fatalf("insert on promoted follower: %v", err)
	}
}

func waitHealthy(ctx context.Context, s *cluster.HTTPShard) error {
	deadline := time.Now().Add(spawnStartTimeout)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := s.Healthy(hctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestModelFileServesEitherWay: -mutable decides which routes exist, not
// which files load. The file of a built engine starts under -mutable,
// accepts an insert, and the next query sees it; a file holding several
// segments and a memtable serves read-only without -mutable and answers /v1/insert with the 404 of any read-only
// server.
func TestModelFileServesEitherWay(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real child processes")
	}
	ctx := context.Background()

	trained := cluster.NewHTTPShard(spawnServe(t, asKarl, "-mutable", "-model", filepath.Join("..", "..", "testdata", "persist", "built.bin")))
	if err := waitHealthy(ctx, trained); err != nil {
		t.Fatalf("-mutable -model <static file> never healthy: %v", err)
	}
	q := []float64{0.45, 0.55, 0.5}
	before, err := trained.Aggregate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	// A unit-weight point at q itself adds exactly K(q,q) = 1.
	if _, err := trained.Insert(ctx, [][]float64{q}, nil); err != nil {
		t.Fatalf("insert into a trained model: %v", err)
	}
	after, err := trained.Aggregate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after-before-1) > 1e-9 {
		t.Fatalf("aggregate went %v → %v across an insert at q, want +1", before, after)
	}

	d, err := karl.NewDynamic(karl.Gaussian(0.8), karl.WithSealSize(64), karl.WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		if err := d.Insert([]float64{rng.NormFloat64(), rng.NormFloat64()}, 0.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Status()
	if len(st.Segments) < 2 || st.MemtableLen == 0 {
		t.Fatalf("fixture: %d segments, %d buffered rows; want several and some", len(st.Segments), st.MemtableLen)
	}
	model := filepath.Join(t.TempDir(), "dyn.karl")
	f, err := os.Create(model)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	readOnlyURL := spawnServe(t, asShim, "-model", model)
	readOnly := cluster.NewHTTPShard(readOnlyURL)
	if err := waitHealthy(ctx, readOnly); err != nil {
		t.Fatalf("-model <dynamic file> without -mutable never healthy: %v", err)
	}
	q2 := []float64{0.25, -0.4}
	want, err := d.Aggregate(q2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readOnly.Aggregate(ctx, q2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("read-only server over a dynamic file answers %v, the engine it was written from %v", got, want)
	}
	resp, err := http.Post(readOnlyURL+"/v1/insert", "application/json", strings.NewReader(`{"p":[0,0]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/insert on a read-only server: status %d, want 404", resp.StatusCode)
	}
}

// TestReadOnlyCoordinatorProcess starts -coordinator without -mutable over
// two -model children, each serving one shard file of a built engine: every
// eKAQ is within ε of the monolithic engine's aggregate, every TKAQ equals its
// verdict, and /v1/insert is the 404 of any read-only server — -mutable
// decides which routes a coordinator mounts too.
func TestReadOnlyCoordinatorProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real child processes")
	}
	rng := rand.New(rand.NewSource(17))
	pts := make([][]float64, 600)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	mono, err := karl.Build(pts, karl.Gaussian(0.7))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := mono.Shard(2, karl.KDPartition)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	urls := make([]string, len(shards))
	for i, se := range shards {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.karl", i))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := se.WriteTo(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		urls[i] = spawnServe(t, asKarl, "-model", path)
		if err := waitHealthy(context.Background(), cluster.NewHTTPShard(urls[i])); err != nil {
			t.Fatalf("shard %d never healthy: %v", i, err)
		}
	}
	front := spawnServe(t, asShim, "-coordinator", "-shards", strings.Join(urls, ","))
	if err := waitHealthy(context.Background(), cluster.NewHTTPShard(front)); err != nil {
		t.Fatalf("coordinator never healthy: %v", err)
	}

	post := func(path, body string, dst any) int {
		t.Helper()
		resp, err := http.Post(front+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}
	const eps = 0.05
	for i := 0; i < 20; i++ {
		q := pts[i*7]
		exact, err := mono.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		qj, _ := json.Marshal(q)
		var val struct {
			Value   float64 `json:"value"`
			Partial bool    `json:"partial"`
		}
		if status := post("/v1/approximate", fmt.Sprintf(`{"q":%s,"eps":%v}`, qj, eps), &val); status != http.StatusOK ||
			val.Partial || math.Abs(val.Value-exact) > eps*exact {
			t.Fatalf("eKAQ %d: status %d, %+v; the monolithic engine says %v", i, status, val, exact)
		}
		for _, tau := range []float64{0.9 * exact, 1.1 * exact} {
			var verdict struct {
				Over    bool `json:"over"`
				Partial bool `json:"partial"`
			}
			if status := post("/v1/threshold", fmt.Sprintf(`{"q":%s,"tau":%v}`, qj, tau), &verdict); status != http.StatusOK ||
				verdict.Partial || verdict.Over != (exact > tau) {
				t.Fatalf("TKAQ %d at tau=%v: status %d, %+v; the monolithic engine says %v", i, tau, status, verdict, exact)
			}
		}
	}
	if status := post("/v1/insert", `{"p":[0,0,0]}`, nil); status != http.StatusNotFound {
		t.Fatalf("/v1/insert on a read-only coordinator: status %d, want 404", status)
	}
}
