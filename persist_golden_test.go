package karl

import (
	"bytes"
	"flag"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"karl/internal/scan"
	"karl/internal/shard"
	"karl/internal/vec"
)

// -update regenerates the golden persistence fixtures under
// testdata/persist/ (built.bin, streamed.bin, manifest.bin). Run it after an
// intentional format change. v7_dynamic.bin is the one frozen input: the
// bytes the last gob-era build wrote for goldenDynamicEngine, kept to pin
// that such a file is refused by name; it must never be regenerated.
var updateGolden = flag.Bool("update", false, "regenerate golden persistence fixtures")

const goldenDir = "testdata/persist"

// goldenStaticData is the deterministic weighted point set the built
// fixture serializes. Changing it invalidates the fixture.
func goldenStaticData() (pts [][]float64, w []float64) {
	rng := rand.New(rand.NewSource(613))
	pts = cloud(rng, 96, 3)
	w = make([]float64, len(pts))
	for i := range w {
		w[i] = 0.25 + rng.Float64()
	}
	return pts, w
}

// goldenStaticEngine builds the engine over goldenStaticData that
// built.bin holds.
func goldenStaticEngine(t testing.TB) *Engine {
	t.Helper()
	pts, w := goldenStaticData()
	eng, err := Build(pts, Gaussian(1.8), WithWeights(w), WithIndex(BallTree, 16))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// goldenClock is the fixed instant the streamed fixture was written at.
func goldenClock() int64 { return 1_700_000_000_000_000_000 }

// goldenDynamicEngine deterministically builds the streamed engine
// streamed.bin serializes: several sealed segments, a partial memtable,
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

// goldenManifest deterministically builds the cluster manifest
// manifest.bin serializes: a hash-routed membership taken through one split
// (epoch, lineage, slot reassignment) with replication topology — a
// caught-up follower on one member, a catching-up one on the split child.
// Changing it invalidates the fixture.
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
	man.Members[1].Replicas = []shard.Replica{{Name: "s1-f0", Role: shard.RoleFollower, AckedSeq: 128}}
	man.Members[2].Replicas = []shard.Replica{{Name: "s0/split-3-f0", Role: shard.RoleCatchingUp, AckedSeq: 7}}
	return man
}

// goldenBytes renders every fixture from the deterministic builders.
func goldenBytes(t testing.TB) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for name, w := range map[string]io.WriterTo{
		"built.bin":    goldenStaticEngine(t),
		"streamed.bin": goldenDynamicEngine(t),
		"manifest.bin": goldenManifest(t),
	} {
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestGoldenFixturesCurrent regenerates the fixtures with -update and
// otherwise verifies the committed bytes still match what this build
// would write — catching accidental format drift (a field added, moved or
// re-typed) that version-bump discipline would miss.
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

// TestGoldenStaticFixturesLoad pins the built-engine file: built.bin loads
// as a one-segment engine on the single-segment loop — bitwise equal to a
// fresh build, equal to the exact scan, point-width AggregateStats bounds,
// exact TKAQ verdicts a hair either side of F — and rewrites bitwise.
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
	raw := readFixture(t, "built.bin")
	eng, err := ReadEngine(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("built.bin rejected: %v", err)
	}
	if eng.Len() != ref.Len() || eng.Dims() != ref.Dims() || eng.Kernel() != ref.Kernel() {
		t.Fatal("shape/kernel changed")
	}
	es := eng.Status()
	if len(es.Segments) != 1 || es.MemtableLen != 0 {
		t.Fatalf("loaded as %d segments + %d buffered rows, want one sealed segment", len(es.Segments), es.MemtableLen)
	}
	got, st, err := eng.AggregateStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("not bitwise: %v vs %v", got, want)
	}
	if math.Abs(got-exact) > 1e-12*math.Abs(exact) {
		t.Errorf("Aggregate %v, exact scan %v", got, exact)
	}
	if st.LB != st.UB || st.LB != got {
		t.Errorf("AggregateStats bounds [%v, %v] around %v, want a point", st.LB, st.UB, got)
	}
	for _, c := range []struct {
		tau  float64
		over bool
	}{{exact * (1 - 1e-9), true}, {exact * (1 + 1e-9), false}} {
		over, err := eng.Threshold(q, c.tau)
		if err != nil {
			t.Fatal(err)
		}
		if over != c.over {
			t.Errorf("Threshold(τ=%v) = %v with F = %v", c.tau, over, exact)
		}
	}
	var rt bytes.Buffer
	if _, err := eng.WriteTo(&rt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rt.Bytes(), raw) {
		t.Fatal("built.bin does not rewrite bitwise")
	}
}

// TestGoldenManifestFixtureLoads pins the cluster-manifest file:
// manifest.bin loads with epoch, lineage, routing and replication topology
// matching the deterministic builder, and rewrites bitwise.
func TestGoldenManifestFixtureLoads(t *testing.T) {
	raw := readFixture(t, "manifest.bin")
	man, err := shard.ReadManifest(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("manifest fixture rejected: %v", err)
	}
	ref := goldenManifest(t)
	if !reflect.DeepEqual(man, ref) {
		t.Fatalf("manifest drifted:\n read %+v\n want %+v", man, ref)
	}
	rng := rand.New(rand.NewSource(619))
	for i := 0; i < 200; i++ {
		p := []float64{rng.NormFloat64(), rng.NormFloat64()}
		if man.Route(p) != ref.Route(p) {
			t.Fatalf("fixture routes %v to %d, builder to %d", p, man.Route(p), ref.Route(p))
		}
	}
	var rt bytes.Buffer
	if _, err := man.WriteTo(&rt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rt.Bytes(), raw) {
		t.Fatal("manifest fixture does not rewrite bitwise")
	}
}

// TestGoldenDynamicFixturesLoad pins the streamed-engine file: streamed.bin
// restores every segment with its own dead rows, the memtable, TTL and decay
// policy, answers bitwise like the engine it was written from once the clock
// is set back to the instant of writing, and rewrites bitwise. The frozen
// v7_dynamic.bin — the same engine as the last gob-era build wrote it — is
// refused by name.
func TestGoldenDynamicFixturesLoad(t *testing.T) {
	q := []float64{0.5, 0.5}
	ref := goldenDynamicEngine(t)
	want, err := ref.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	raw := readFixture(t, "streamed.bin")
	d, err := ReadEngine(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("streamed.bin rejected: %v", err)
	}
	ds, rs := d.Status(), ref.Status()
	if ds.Points != rs.Points || ds.MemtableLen != rs.MemtableLen || ds.Tombstones != rs.Tombstones ||
		ds.Deletes != rs.Deletes || ds.TTL != rs.TTL || ds.DecayHalfLife != rs.DecayHalfLife {
		t.Fatalf("load dropped mutability state: len %d/%d tombs %d/%d deletes %d/%d",
			ds.Points, rs.Points, ds.Tombstones, rs.Tombstones, ds.Deletes, rs.Deletes)
	}
	if !reflect.DeepEqual(ds.Segments, rs.Segments) || ds.Tombstones == 0 {
		t.Fatalf("dead rows moved between segments:\n read %+v\n want %+v", ds.Segments, rs.Segments)
	}
	d.sh.now = goldenClock // a loaded engine runs on the wall clock
	got, err := d.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("not bitwise: %v vs %v", got, want)
	}
	over, err := d.Threshold(q, want*(1-1e-9))
	if err != nil || !over {
		t.Errorf("Threshold just under F = %v (%v), want true", over, err)
	}
	over, err = d.Threshold(q, want*(1+1e-9))
	if err != nil || over {
		t.Errorf("Threshold just over F = %v (%v), want false", over, err)
	}
	var rt bytes.Buffer
	if _, err := d.WriteTo(&rt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rt.Bytes(), raw) {
		t.Fatal("streamed.bin does not rewrite bitwise")
	}

	_, err = ReadEngine(bytes.NewReader(readFixture(t, "v7_dynamic.bin")))
	if want := "written before block format 8, rebuild it"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("gob-era fixture: error %v, want one containing %q", err, want)
	}
}

// blockEnds returns the offset just past each block of a stream, found from
// the framing alone: after the 8-byte header, a block ends where the CRC-32C
// of its bytes so far equals the next four bytes, little-endian.
func blockEnds(t testing.TB, data []byte) []int {
	t.Helper()
	tab := crc32.MakeTable(crc32.Castagnoli)
	var ends []int
	for a := streamStart; a < len(data); {
		crc, b := uint32(0), a
		for {
			if b+4 > len(data) {
				t.Fatalf("no block checksum closes the block at offset %d", a)
			}
			if b > a && crc == uint32(data[b])|uint32(data[b+1])<<8|uint32(data[b+2])<<16|uint32(data[b+3])<<24 {
				break
			}
			crc = crc32.Update(crc, tab, data[b:b+1])
			b++
		}
		a = b + 4
		ends = append(ends, a)
	}
	return ends
}

// patched returns a copy of a stream with the little-endian 8-byte field at
// off set to v and the checksum of the block holding it recomputed: the
// bytes a writer with that one field different would have produced.
func patched(t testing.TB, data []byte, off int, v int64) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	for i := 0; i < 8; i++ {
		out[off+i] = byte(v >> (8 * i))
	}
	start := streamStart
	for _, end := range blockEnds(t, data) {
		if off < end {
			crc := crc32.Checksum(out[start:end-4], crc32.MakeTable(crc32.Castagnoli))
			for i := 0; i < 4; i++ {
				out[end-4+i] = byte(crc >> (8 * i))
			}
			return out
		}
		start = end
	}
	t.Fatalf("offset %d is past the last block", off)
	return nil
}

// Field offsets the hand edits below rely on (DESIGN §5.2a has the table):
// a stream opens with 8 header bytes and closes with a 5-byte end block; the
// engine block is tag, dims, the four kernel fields, then index kind, leaf
// capacity, bounding method; a segment block is tag, id, then index kind.
const (
	streamStart  = 8
	hdrKindOff   = streamStart + 1 + 8 + 4*8
	hdrMethodOff = hdrKindOff + 2*8
	segKindOff   = 1 + 8
)

// refusedStream is a well-formed engine stream — every checksum valid —
// carrying something this build must refuse by name.
type refusedStream struct {
	name string
	data []byte
	want string // what the load error must say
}

// outOfEnumStreams hand-edits the two engine fixtures: index kind 2 is the
// vp-tree earlier builds had, bounding method 9 never existed.
func outOfEnumStreams(t testing.TB) []refusedStream {
	t.Helper()
	const kindErr = "index kind 2 (vp-tree) is not supported by this build"
	const methodErr = "bounding method 9 is not supported by this build"
	built, streamed := readFixture(t, "built.bin"), readFixture(t, "streamed.bin")
	secondSeg := blockEnds(t, streamed)[1] // past the engine block and segment 0
	return []refusedStream{
		{"built kind", patched(t, built, hdrKindOff, 2), kindErr},
		{"built method", patched(t, built, hdrMethodOff, 9), methodErr},
		{"streamed kind", patched(t, streamed, hdrKindOff, 2), kindErr},
		{"streamed method", patched(t, streamed, hdrMethodOff, 9), methodErr},
		{"streamed segment kind", patched(t, streamed, secondSeg+segKindOff, 2), kindErr},
	}
}

// TestReadRejectsUnknownKindAndMethod: a persisted index kind or bounding
// method outside this build's enums is an error naming the value — in the
// engine block and in a segment block, from a file and from a replication
// snapshot — never a silent kd-tree/KARL default.
func TestReadRejectsUnknownKindAndMethod(t *testing.T) {
	for _, c := range outOfEnumStreams(t) {
		fresh, err := NewDynamic(Gaussian(2.2))
		if err != nil {
			t.Fatal(err)
		}
		_, readErr := ReadEngine(bytes.NewReader(c.data))
		for path, err := range map[string]error{
			"ReadEngine":      readErr,
			"InstallSnapshot": fresh.InstallSnapshot(bytes.NewReader(c.data)),
		} {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s via %s: error %v, want one containing %q", c.name, path, err, c.want)
			}
		}
	}
}
