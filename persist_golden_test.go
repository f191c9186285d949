package karl

import (
	"bytes"
	"encoding/gob"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"karl/internal/scan"
	"karl/internal/shard"
	"karl/internal/vec"
)

// -update regenerates the write-side golden persistence fixtures under
// testdata/persist/ (v7_dynamic.bin, manifest_v2.bin). Run it after an
// intentional format change. The other fixtures are frozen files written
// by earlier builds and must never be regenerated: they pin what real old
// files look like — v7_static.bin among them since the engines were merged
// and the bare-index stream it holds stopped being written.
var updateGolden = flag.Bool("update", false, "regenerate golden persistence fixtures")

const goldenDir = "testdata/persist"

// goldenStaticData is the deterministic weighted point set every static
// fixture serializes. Changing it invalidates the fixtures.
func goldenStaticData() (pts [][]float64, w []float64) {
	rng := rand.New(rand.NewSource(613))
	pts = cloud(rng, 96, 3)
	w = make([]float64, len(pts))
	for i := range w {
		w[i] = 0.25 + rng.Float64()
	}
	return pts, w
}

// goldenStaticEngine builds the engine over goldenStaticData that the
// static fixtures hold.
func goldenStaticEngine(t testing.TB) *Engine {
	t.Helper()
	pts, w := goldenStaticData()
	eng, err := Build(pts, Gaussian(1.8), WithWeights(w), WithIndex(BallTree, 16))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// goldenClock is the fixed instant the dynamic fixtures were written at.
func goldenClock() int64 { return 1_700_000_000_000_000_000 }

// goldenDynamicEngine deterministically builds the dynamic engine the
// dynamic fixtures serialize: several sealed segments, a partial memtable,
// a fixed fake clock so timestamps are reproducible, tombstones, a TTL
// window and a decay half-life.
func goldenDynamicEngine(t testing.TB) *Engine {
	t.Helper()
	d, err := NewDynamic(Gaussian(2.2),
		WithIndex(KDTree, 8),
		WithSealSize(32),
		WithAutoCompaction(false),
		withClock(goldenClock),
		WithTTL(time.Hour),
		WithDecayHalfLife(30*time.Minute),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(617))
	var ids []uint64
	for i := 0; i < 100; i++ {
		id, err := d.InsertID([]float64{rng.Float64(), rng.Float64()}, 0.5+rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// One memtable delete (physical) and two sealed deletes (tombstones),
	// so the fixture carries live mutability state.
	for _, id := range []uint64{ids[99], ids[3], ids[40]} {
		if err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// goldenManifest deterministically builds the cluster manifest the
// frozen manifest_v1.bin fixture was generated from (when the format was
// version 1): a hash-routed membership taken through one split, so the
// wire image pins epoch, lineage and slot reassignment. Changing it
// invalidates the fixtures.
func goldenManifest(t testing.TB) *shard.Manifest {
	t.Helper()
	man, err := shard.NewManifest(shard.Hash, []shard.Member{
		{ID: 1, Name: "s0", Points: 128, WPos: 64.5},
		{ID: 2, Name: "s1", Points: 128, WPos: 63, WNeg: 1.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := man.MemberSlots(1)
	man, err = man.ApplySplit(1, shard.Member{ID: 3, Name: "s0/split-3", BaseSeq: 129, Points: 60, WPos: 30.25},
		shard.SplitRule{Kind: shard.Hash, NumSlots: man.NumSlots, Slots: slots[len(slots)/2:]})
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// goldenManifestV2 extends the v1 builder with replication topology — a
// caught-up follower on one member, a catching-up one on the split child
// — pinning the manifest_v2 wire image (roles, replica sets, acked-seq
// watermarks).
func goldenManifestV2(t testing.TB) *shard.Manifest {
	t.Helper()
	man := goldenManifest(t)
	man.Members[1].Replicas = []shard.Replica{{Name: "s1-f0", Role: shard.RoleFollower, AckedSeq: 128}}
	man.Members[2].Replicas = []shard.Replica{{Name: "s0/split-3-f0", Role: shard.RoleCatchingUp, AckedSeq: 7}}
	return man
}

// goldenBytes renders every write-side fixture from the deterministic
// builders.
func goldenBytes(t testing.TB) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	var dbuf bytes.Buffer
	if _, err := goldenDynamicEngine(t).WriteTo(&dbuf); err != nil {
		t.Fatal(err)
	}
	out["v7_dynamic.bin"] = dbuf.Bytes()

	// manifest_v1.bin is NOT regenerated: it was written by the format-v1
	// build and is frozen to pin what real old files look like.
	var manBuf bytes.Buffer
	if _, err := goldenManifestV2(t).WriteTo(&manBuf); err != nil {
		t.Fatal(err)
	}
	out["manifest_v2.bin"] = manBuf.Bytes()
	return out
}

// TestGoldenFixturesCurrent regenerates the fixtures with -update and
// otherwise verifies the committed bytes still match what this build
// would write — catching accidental wire-format drift (field renames,
// encoding-order changes) that version-bump discipline would miss.
func TestGoldenFixturesCurrent(t *testing.T) {
	want := goldenBytes(t)
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range want {
			if err := os.WriteFile(filepath.Join(goldenDir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("regenerated %d fixtures", len(want))
		return
	}
	for name, b := range want {
		got, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatalf("%s: %v (run: go test -run TestGoldenFixturesCurrent -update)", name, err)
		}
		if !bytes.Equal(got, b) {
			t.Errorf("%s: committed fixture differs from what this build writes (format drift without a version bump?)", name)
		}
	}
}

// readFixture loads one committed fixture.
func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return raw
}

// TestGoldenStaticFixturesLoad pins what static files this build reads.
// v7_static.bin (the bare index payload the last build with a static writer
// wrote) and v7_float32_static.bin (the frozen bytes an earlier build wrote
// WithLeafFloat32, a field gob now skips) both load through the one reader
// as a one-segment engine on the single-segment loop: bitwise equal to a
// fresh build,
// equal to the exact scan, point-width AggregateStats bounds, and exact
// TKAQ verdicts a hair either side of F — the case float32 leaves got
// wrong. The frozen v6_static.bin is refused by version number.
func TestGoldenStaticFixturesLoad(t *testing.T) {
	ref := goldenStaticEngine(t)
	q := []float64{0.45, 0.55, 0.5}
	want, err := ref.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	pts, w := goldenStaticData()
	sc, err := scan.NewScanner(vec.FromRows(pts), w, ref.Kernel())
	if err != nil {
		t.Fatal(err)
	}
	exact := sc.Aggregate(q)
	for _, name := range []string{"v7_static.bin", "v7_float32_static.bin"} {
		eng, err := ReadEngine(bytes.NewReader(readFixture(t, name)))
		if err != nil {
			t.Fatalf("%s rejected: %v", name, err)
		}
		if eng.Len() != ref.Len() || eng.Dims() != ref.Dims() || eng.Kernel() != ref.Kernel() {
			t.Fatalf("%s: shape/kernel changed", name)
		}
		if len(eng.Segments()) != 1 || eng.MemtableLen() != 0 {
			t.Fatalf("%s: loaded as %d segments + %d buffered rows, want one sealed segment", name, len(eng.Segments()), eng.MemtableLen())
		}
		got, st, err := eng.AggregateStats(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: not bitwise: %v vs %v", name, got, want)
		}
		if math.Abs(got-exact) > 1e-12*math.Abs(exact) {
			t.Errorf("%s: Aggregate %v, exact scan %v", name, got, exact)
		}
		if st.LB != st.UB || st.LB != got {
			t.Errorf("%s: AggregateStats bounds [%v, %v] around %v, want a point", name, st.LB, st.UB, got)
		}
		for _, c := range []struct {
			tau  float64
			over bool
		}{{exact * (1 - 1e-9), true}, {exact * (1 + 1e-9), false}} {
			over, err := eng.Threshold(q, c.tau)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if over != c.over {
				t.Errorf("%s: Threshold(τ=%v) = %v with F = %v", name, c.tau, over, exact)
			}
		}
	}

	_, err = ReadEngine(bytes.NewReader(readFixture(t, "v6_static.bin")))
	if err == nil {
		t.Fatal("v6 static fixture accepted")
	}
	if want := "unsupported engine format version 6 (this build reads version 7)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("v6 static fixture: error %q does not contain %q", err, want)
	}
}

// TestGoldenManifestFixtureLoads pins the cluster-manifest wire format
// across versions. The frozen manifest_v1.bin (written by the format-v1
// build, before replication roles existed) must still load: roles
// default to leader, replica sets stay empty, and epoch/lineage/routing
// match the deterministic builder. The current manifest_v2.bin loads
// with its replication topology intact and rewrites bitwise.
func TestGoldenManifestFixtureLoads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(goldenDir, "manifest_v1.bin"))
	if err != nil {
		t.Fatalf("%v (frozen fixture missing — it must never be regenerated)", err)
	}
	man, err := shard.ReadManifest(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("manifest_v1 fixture rejected: %v", err)
	}
	ref := goldenManifest(t)
	checkManifestMatches(t, "manifest_v1", man, ref)
	for _, mb := range man.Members {
		if mb.Role != shard.RoleLeader {
			t.Fatalf("v1 member %d loaded with role %v, want defaulted leader", mb.ID, mb.Role)
		}
		if len(mb.Replicas) != 0 {
			t.Fatalf("v1 member %d loaded with %d replicas, want none", mb.ID, len(mb.Replicas))
		}
	}
	// A v1 file rewrites in the current format; the upgrade must preserve
	// epoch, lineage and routing.
	var up bytes.Buffer
	if _, err := man.WriteTo(&up); err != nil {
		t.Fatal(err)
	}
	man2, err := shard.ReadManifest(bytes.NewReader(up.Bytes()))
	if err != nil {
		t.Fatalf("v1 fixture rewritten as current format rejected: %v", err)
	}
	checkManifestMatches(t, "manifest_v1 upgraded", man2, ref)

	raw2, err := os.ReadFile(filepath.Join(goldenDir, "manifest_v2.bin"))
	if err != nil {
		t.Fatalf("%v (run: go test -run TestGoldenFixturesCurrent -update)", err)
	}
	v2, err := shard.ReadManifest(bytes.NewReader(raw2))
	if err != nil {
		t.Fatalf("manifest_v2 fixture rejected: %v", err)
	}
	ref2 := goldenManifestV2(t)
	checkManifestMatches(t, "manifest_v2", v2, ref2)
	for i, mb := range ref2.Members {
		got := v2.Members[i]
		if len(got.Replicas) != len(mb.Replicas) {
			t.Fatalf("v2 member %d has %d replicas, want %d", mb.ID, len(got.Replicas), len(mb.Replicas))
		}
		for j, r := range mb.Replicas {
			if got.Replicas[j] != r {
				t.Fatalf("v2 member %d replica %d = %+v, want %+v", mb.ID, j, got.Replicas[j], r)
			}
		}
	}
	var rt bytes.Buffer
	if _, err := v2.WriteTo(&rt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rt.Bytes(), raw2) {
		t.Fatal("manifest_v2 fixture does not rewrite bitwise")
	}
}

// checkManifestMatches asserts the version-independent invariants of the
// golden manifest builders: shape, split lineage and routing.
func checkManifestMatches(t *testing.T, name string, man, ref *shard.Manifest) {
	t.Helper()
	if man.Epoch != ref.Epoch || man.Kind != ref.Kind || len(man.Members) != len(ref.Members) {
		t.Fatalf("%s shape drifted: %+v vs %+v", name, man, ref)
	}
	if got := man.Member(3); got == nil || got.Parent != 1 || got.BaseSeq != 129 {
		t.Fatalf("%s lineage drifted: %+v", name, got)
	}
	rng := rand.New(rand.NewSource(619))
	for i := 0; i < 200; i++ {
		p := []float64{rng.NormFloat64(), rng.NormFloat64()}
		if man.Route(p) != ref.Route(p) {
			t.Fatalf("%s routes %v to %d, builder to %d", name, p, man.Route(p), ref.Route(p))
		}
	}
}

// TestGoldenDynamicFixturesLoad pins the dynamic stream: v7_dynamic.bin
// (this build's own output) and v7_pr16_dynamic.bin (frozen bytes from the
// PR-16 build, whose wire types still carried the LeafFloat32 field) both
// restore tombstones, TTL and decay policy, answer bitwise like the engine
// they were written from once the clock is set back to the instant of
// writing, and rewrite bitwise as the current format.
func TestGoldenDynamicFixturesLoad(t *testing.T) {
	q := []float64{0.5, 0.5}
	ref := goldenDynamicEngine(t)
	want, err := ref.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	current := readFixture(t, "v7_dynamic.bin")
	for _, name := range []string{"v7_dynamic.bin", "v7_pr16_dynamic.bin"} {
		d, err := ReadEngine(bytes.NewReader(readFixture(t, name)))
		if err != nil {
			t.Fatalf("%s rejected: %v", name, err)
		}
		if d.Len() != ref.Len() || d.Tombstones() != ref.Tombstones() ||
			d.Deletes() != ref.Deletes() || d.TTL() != ref.TTL() ||
			d.DecayHalfLife() != ref.DecayHalfLife() {
			t.Fatalf("%s load dropped mutability state: len %d/%d tombs %d/%d deletes %d/%d",
				name, d.Len(), ref.Len(), d.Tombstones(), ref.Tombstones(), d.Deletes(), ref.Deletes())
		}
		d.sh.now = goldenClock // a loaded engine runs on the wall clock
		got, err := d.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: not bitwise: %v vs %v", name, got, want)
		}
		over, err := d.Threshold(q, want*(1-1e-9))
		if err != nil || !over {
			t.Errorf("%s: Threshold just under F = %v (%v), want true", name, over, err)
		}
		over, err = d.Threshold(q, want*(1+1e-9))
		if err != nil || over {
			t.Errorf("%s: Threshold just over F = %v (%v), want false", name, over, err)
		}
		var rt bytes.Buffer
		if _, err := d.WriteTo(&rt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rt.Bytes(), current) {
			t.Fatalf("%s does not rewrite to the current format bitwise", name)
		}
	}
}

// refusedStream is a valid v7 stream re-encoded with something this build
// must refuse by name: an index kind or bounding method it does not have,
// or a trace of the removed cold-compaction tier.
type refusedStream struct {
	name    string
	dynamic bool // a dynamicPayload stream; otherwise a bare enginePayload
	data    []byte
	want    string // what the load error must say
}

// outOfEnumStreams hand-edits the current static and dynamic fixtures:
// Kind 2 is what a vp-tree file written by an earlier build carries,
// Method 9 never existed.
func outOfEnumStreams(t testing.TB) []refusedStream {
	t.Helper()
	const kindErr = "index kind 2 (vp-tree) is not supported by this build"
	const methodErr = "bounding method 9 is not supported by this build"
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var sp enginePayload
	if err := gob.NewDecoder(bytes.NewReader(readFixture(t, "v7_static.bin"))).Decode(&sp); err != nil {
		t.Fatal(err)
	}
	var dp dynamicPayload
	if err := gob.NewDecoder(bytes.NewReader(readFixture(t, "v7_dynamic.bin"))).Decode(&dp); err != nil {
		t.Fatal(err)
	}
	var out []refusedStream
	bad := sp
	bad.Kind = 2
	out = append(out, refusedStream{"static kind", false, encode(bad), kindErr})
	bad = sp
	bad.Method = 9
	out = append(out, refusedStream{"static method", false, encode(bad), methodErr})
	dbad := dp
	dbad.Kind = 2
	out = append(out, refusedStream{"dynamic kind", true, encode(dbad), kindErr})
	dbad = dp
	dbad.Method = 9
	out = append(out, refusedStream{"dynamic method", true, encode(dbad), methodErr})
	dbad = dp
	dbad.Segments = append([]segmentPayload(nil), dp.Segments...)
	dbad.Segments[1].Engine.Kind = 2
	out = append(out, refusedStream{"dynamic segment kind", true, encode(dbad), kindErr})
	return out
}

// TestReadRejectsUnknownKindAndMethod: a persisted index kind or bounding
// method outside this build's enums is an error naming the value, on every
// load path — never a silent kd-tree/KARL default.
func TestReadRejectsUnknownKindAndMethod(t *testing.T) {
	expect := func(name string, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, want)
		}
	}
	for _, c := range outOfEnumStreams(t) {
		if !c.dynamic {
			_, err := ReadEngine(bytes.NewReader(c.data))
			expect(c.name, err, c.want)
			continue
		}
		expectDynamicRefused(t, c)
	}
}

// expectDynamicRefused checks that ReadEngine refuses the stream with the
// expected message — and, because the replication paths decode with
// ReadEngine, that a follower refuses such a snapshot or segment the same
// way.
func expectDynamicRefused(t *testing.T, c refusedStream) {
	t.Helper()
	fresh, err := NewDynamic(Gaussian(2.2))
	if err != nil {
		t.Fatal(err)
	}
	_, readErr := ReadEngine(bytes.NewReader(c.data))
	_, segErr := decodeReplicaSegment(c.data)
	for path, err := range map[string]error{
		"ReadEngine":           readErr,
		"InstallSnapshot":      fresh.InstallSnapshot(bytes.NewReader(c.data)),
		"decodeReplicaSegment": segErr,
	} {
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s via %s: error %v, want one containing %q", c.name, path, err, c.want)
		}
	}
}

// coldCompactionStreams hand-edits the current dynamic fixture the ways a
// file written with the removed cold-compaction tier differs from it: the
// policy field set, a segment flagged as a coreset, a segment without
// per-row sequence numbers.
func coldCompactionStreams(t testing.TB) []refusedStream {
	t.Helper()
	const coldErr = "was written with cold compaction, which this build does not support"
	edit := func(name, want string, mutate func(p *dynamicPayload)) refusedStream {
		var p dynamicPayload
		if err := gob.NewDecoder(bytes.NewReader(readFixture(t, "v7_dynamic.bin"))).Decode(&p); err != nil {
			t.Fatal(err)
		}
		mutate(&p)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p); err != nil {
			t.Fatal(err)
		}
		return refusedStream{name, true, buf.Bytes(), want}
	}
	return []refusedStream{
		edit("ColdEps", coldErr, func(p *dynamicPayload) { p.ColdEps = 0.1 }),
		edit("segment Coreset", coldErr, func(p *dynamicPayload) { p.Segments[1].Coreset = true }),
		edit("segment without Seqs", "has 0 seqs for", func(p *dynamicPayload) { p.Segments[0].Seqs = nil }),
	}
}

// TestReadDynamicRejectsColdCompaction: a file that used the removed cold
// tier — or holds a sealed segment without sequence numbers, which only
// that tier produced — is an explicit load error on every path, never an
// engine that answers TKAQ from sketched mass.
func TestReadDynamicRejectsColdCompaction(t *testing.T) {
	for _, c := range coldCompactionStreams(t) {
		expectDynamicRefused(t, c)
	}
}
