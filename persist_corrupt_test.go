package karl

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"karl/internal/blockio"
	"karl/internal/shard"
)

// refusedAtEveryCut fails unless read refuses every proper prefix of full —
// the cuts at block boundaries included, which is what a snapshot stream
// looks like when the leader dies between two blocks — and accepts full.
func refusedAtEveryCut(t *testing.T, what string, full []byte, read func([]byte) error) {
	t.Helper()
	for cut := 0; cut < len(full); cut++ {
		if read(full[:cut]) == nil {
			t.Fatalf("%s truncated to %d/%d bytes accepted", what, cut, len(full))
		}
	}
	if err := read(full); err != nil {
		t.Fatalf("full %s rejected: %v", what, err)
	}
}

// refusedAtEveryFlip fails unless read refuses full with any one byte
// changed, in its lowest bit or in all of them.
func refusedAtEveryFlip(t *testing.T, what string, full []byte, read func([]byte) error) {
	t.Helper()
	data := append([]byte(nil), full...)
	for i := range data {
		for _, mask := range []byte{0x01, 0xFF} {
			data[i] ^= mask
			if read(data) == nil {
				t.Fatalf("%s with byte %d/%d xor %#x accepted", what, i, len(data), mask)
			}
			data[i] ^= mask
		}
	}
}

func readsEngine(data []byte) error {
	_, err := ReadEngine(bytes.NewReader(data))
	return err
}

func readsManifest(data []byte) error {
	_, err := shard.ReadManifest(bytes.NewReader(data))
	return err
}

// TestFixturesRefuseDamage: every single-byte change and every truncation
// of an engine file and of a cluster manifest is refused — by the stream
// header, a block tag, a bounded length or a block checksum — never a panic,
// never a loaded engine.
func TestFixturesRefuseDamage(t *testing.T) {
	for what, c := range map[string]struct {
		data []byte
		read func([]byte) error
	}{
		"built.bin":    {readFixture(t, "built.bin"), readsEngine},
		"streamed.bin": {readFixture(t, "streamed.bin"), readsEngine},
		"manifest.bin": {readFixture(t, "manifest.bin"), readsManifest},
	} {
		refusedAtEveryCut(t, what, c.data, c.read)
		refusedAtEveryFlip(t, what, c.data, c.read)
	}
}

// deltaStream builds a follower that holds the first of its leader's two
// segments and part of its memtable, and the replication stream that brings
// it up to date: an engine block, a held-segment block with dead seqs, a
// whole segment block with a dead row, memtable rows.
func deltaStream(t testing.TB) (follower *Engine, stream []byte) {
	t.Helper()
	leader, err := NewDynamic(Gaussian(2), WithSealSize(32), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	if follower, err = NewDynamic(Gaussian(2)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	ids := replicaLoad(t, leader, rng, 40)
	replicaPull(t, leader, follower)
	ids = append(ids, replicaLoad(t, leader, rng, 40)...)
	replicaDelete(t, leader, ids[3], ids[17], ids[50], ids[70])
	var buf bytes.Buffer
	if _, err := leader.WriteSnapshot(&buf, follower.Have()); err != nil {
		t.Fatal(err)
	}
	return follower, buf.Bytes()
}

// TestDeltaStreamRefusesDamage puts a replication stream through the same
// gauntlet on a non-empty follower: every single-byte change and every
// truncation is refused and leaves the follower exactly where it was; the
// stream itself then installs.
func TestDeltaStreamRefusesDamage(t *testing.T) {
	follower, stream := deltaStream(t)
	if ends := blockEnds(t, stream); len(ends) != 5 || stream[ends[0]] != blockio.TagHeld || stream[ends[1]] != blockio.TagSegment {
		t.Fatalf("fixture wants engine, held, segment, memtable and end blocks; block ends %v", ends)
	}
	before, q := follower.Have(), []float64{0.2, -0.4}
	want, err := follower.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	install := func(data []byte) error {
		err := follower.InstallSnapshot(bytes.NewReader(data))
		if err != nil {
			if got, _ := follower.Aggregate(q); got != want || !reflect.DeepEqual(follower.Have(), before) || follower.Status().Tombstones != 0 {
				t.Fatalf("a refused stream (%v) changed the follower", err)
			}
		}
		return err
	}
	refusedAtEveryFlip(t, "delta stream", stream, install)
	refusedAtEveryCut(t, "delta stream", stream, install)
	st := follower.Status()
	if st.Tombstones != 3 || st.MemtableLen != 15 || len(st.Segments) != 2 {
		t.Fatalf("installed stream left %d tombstones, %d memtable rows, %d segments", st.Tombstones, st.MemtableLen, len(st.Segments))
	}
}

// TestReadRefusesLyingLength: a stream that declares 2⁴⁰ points and ends
// sixteen bytes later is refused without the reader allocating for the
// declared length — it only ever allocates for bytes that arrived.
func TestReadRefusesLyingLength(t *testing.T) {
	data := lyingLength(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := readsEngine(data)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), io.ErrUnexpectedEOF.Error()) {
		t.Fatalf("error %v, want an unexpected EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing a %d-byte stream allocated %d bytes", len(data), got)
	}
}

// kdVolumeFile returns the file of a six-point kd-tree engine in two dims at
// leaf capacity 2 and the offset of its first volume parameter, the root
// rectangle's lo[0]; node i's lo[j] is 8·(4i+j) bytes further, its hi[j]
// 8·(4i+2+j).
func kdVolumeFile(t testing.TB) (data []byte, vols int) {
	t.Helper()
	eng, err := Build([][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 2}, {3, 1}}, Gaussian(1), WithIndex(KDTree, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eng.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data = buf.Bytes()
	off := blockEnds(t, data)[0] + segKindOff + 3*8 // kind, leaf capacity, dims
	for _, size := range []int{8, 8, 4, 4} {        // points, weights, point ids, node quads
		off += 8 + size*int(binary.LittleEndian.Uint64(data[off:]))
	}
	return data, off + 8
}

// nanVolumeStream is a kd-tree engine's file with the root rectangle's lo[0]
// set to NaN and the segment block's checksum recomputed. Every point passes
// a containment test against it (NaN compares false both ways), so it used to
// load, bound every node NaN and answer every TKAQ false.
func nanVolumeStream(t testing.TB) []byte {
	t.Helper()
	data, vols := kdVolumeFile(t)
	return patched(t, data, vols, int64(math.Float64bits(math.NaN())))
}

// widenedChildStream is a kd-tree engine's file with the root's left child's
// lo[0] moved one below the root's, under a valid checksum: every row still
// lies inside both rectangles, so a check of rows against every ancestor
// accepts it, but the child's bounds now cover space its parent does not.
func widenedChildStream(t testing.TB) []byte {
	t.Helper()
	data, vols := kdVolumeFile(t)
	lo := math.Float64frombits(binary.LittleEndian.Uint64(data[vols:]))
	return patched(t, data, vols+8*4, int64(math.Float64bits(lo-1)))
}

// TestReadRefusesWidenedChild: a kd cell that pokes out of its parent is
// refused by name, as a file and as a replication stream, though no row lies
// outside any rectangle above it.
func TestReadRefusesWidenedChild(t *testing.T) {
	data := widenedChildStream(t)
	follower, err := NewDynamic(Gaussian(1))
	if err != nil {
		t.Fatal(err)
	}
	for what, err := range map[string]error{
		"ReadEngine":      readsEngine(data),
		"InstallSnapshot": follower.InstallSnapshot(bytes.NewReader(data)),
	} {
		if err == nil || !strings.Contains(err.Error(), "node 1's rectangle is not inside its parent 0's") {
			t.Fatalf("%s: err = %v, want the widened cell refused by name", what, err)
		}
	}
}

// TestReadRefusesNaNVolume: a checksum-valid stream with one NaN volume
// parameter is refused by name, as a file and as a replication stream.
func TestReadRefusesNaNVolume(t *testing.T) {
	data := nanVolumeStream(t)
	follower, err := NewDynamic(Gaussian(1))
	if err != nil {
		t.Fatal(err)
	}
	for what, err := range map[string]error{
		"ReadEngine":      readsEngine(data),
		"InstallSnapshot": follower.InstallSnapshot(bytes.NewReader(data)),
	} {
		if err == nil || !strings.Contains(err.Error(), "non-finite volume parameter NaN") {
			t.Fatalf("%s: err = %v, want the NaN volume parameter refused by name", what, err)
		}
	}
}

// TestReadEngineRejectsTruncated checks every truncation point of a valid
// built engine stream fails with an error instead of a panic or a
// silently short engine.
func TestReadEngineRejectsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	eng, err := Build(cloud(rng, 200, 3), Gaussian(1), WithIndex(BallTree, 16))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eng.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	refusedAtEveryCut(t, "built engine", buf.Bytes(), readsEngine)
}

// TestReadDynamicRejectsTruncated covers a multi-segment streamed engine:
// cut anywhere, between two segment blocks included, it must fail loudly.
func TestReadDynamicRejectsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	d, err := NewDynamic(Gaussian(2), WithSealSize(32), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := d.Insert([]float64{rng.Float64(), rng.Float64()}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(d.Status().Segments); got < 2 {
		t.Fatalf("want a multi-segment manifest, got %d segments", got)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	refusedAtEveryCut(t, "streamed engine", buf.Bytes(), readsEngine)
}

// TestReadDynamicRejectsBadVersionAndGarbage pins the reader's error
// quality: another format version names itself and the one this build
// reads, and bytes that are no block stream fail outright.
func TestReadDynamicRejectsBadVersionAndGarbage(t *testing.T) {
	future := append([]byte(nil), readFixture(t, "streamed.bin")...)
	future[streamStart-1] = 99
	err := readsEngine(future)
	for _, want := range []string{"version 99", "reads version 8"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version error %v does not mention %q", err, want)
		}
	}
	if readsEngine([]byte("KARLv99 this is not a block stream")) == nil {
		t.Fatal("garbage accepted")
	}
	if readsEngine(nil) == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestClusterManifestRejectsTruncated puts the dynamic cluster manifest
// (the writable coordinator's routing/membership file) through the same
// truncation gauntlet as the engine streams: every prefix of a valid
// stream must fail loudly, and the full stream must load back with the
// epoch intact.
func TestClusterManifestRejectsTruncated(t *testing.T) {
	man, err := shard.NewManifest(shard.Hash, []shard.Member{
		{ID: 1, Name: "a", Points: 90, WPos: 45.5},
		{ID: 2, Name: "b", Points: 110, WPos: 54, WNeg: 1.5},
		{ID: 3, Name: "c", Points: 70, WPos: 36},
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := man.MemberSlots(2)
	man, err = man.ApplySplit(2, shard.Member{ID: 4, Name: "b/split-4", BaseSeq: 111},
		shard.SplitRule{Kind: shard.Hash, NumSlots: man.NumSlots, Slots: slots[len(slots)/2:]})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := man.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	refusedAtEveryCut(t, "manifest", buf.Bytes(), readsManifest)
	loaded, err := shard.ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch != man.Epoch || len(loaded.Members) != len(man.Members) {
		t.Fatalf("manifest round trip drifted: epoch %d/%d, members %d/%d",
			loaded.Epoch, man.Epoch, len(loaded.Members), len(man.Members))
	}
}

// TestClusterManifestV2RejectsCorrupt puts a replica-bearing manifest
// through the truncation gauntlet, then checks the reader's replica
// validation: bad roles, empty or duplicate replica names, and non-leader
// top-level members must all fail loudly.
func TestClusterManifestV2RejectsCorrupt(t *testing.T) {
	build := func() *shard.Manifest {
		man, err := shard.NewManifest(shard.Hash, []shard.Member{
			{ID: 1, Name: "a", Points: 90, WPos: 45.5},
			{ID: 2, Name: "b", Points: 110, WPos: 54},
		})
		if err != nil {
			t.Fatal(err)
		}
		man.Members[0].Replicas = []shard.Replica{{Name: "a-f0", Role: shard.RoleFollower, AckedSeq: 90}}
		man.Members[1].Replicas = []shard.Replica{{Name: "b-f0", Role: shard.RoleCatchingUp, AckedSeq: 12}}
		return man
	}
	var buf bytes.Buffer
	if _, err := build().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	refusedAtEveryCut(t, "manifest with replicas", buf.Bytes(), readsManifest)
	loaded, err := shard.ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Members[0].Replicas) != 1 || loaded.Members[0].Replicas[0].AckedSeq != 90 {
		t.Fatalf("manifest round trip dropped replicas: %+v", loaded.Members[0])
	}

	corrupt := func(name string, mutate func(*shard.Manifest), wantSub string) {
		t.Helper()
		man := build()
		mutate(man)
		var b bytes.Buffer
		if _, err := man.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		_, err := shard.ReadManifest(bytes.NewReader(b.Bytes()))
		if err == nil {
			t.Fatalf("%s: corrupt manifest accepted", name)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}
	corrupt("bad replica role",
		func(m *shard.Manifest) { m.Members[0].Replicas[0].Role = shard.Role(9) }, "role")
	corrupt("leader-role replica",
		func(m *shard.Manifest) { m.Members[0].Replicas[0].Role = shard.RoleLeader }, "role")
	corrupt("empty replica name",
		func(m *shard.Manifest) { m.Members[0].Replicas[0].Name = "" }, "empty name")
	corrupt("replica name collides with member",
		func(m *shard.Manifest) { m.Members[0].Replicas[0].Name = "b" }, "reuses")
	corrupt("replica name collides across members",
		func(m *shard.Manifest) { m.Members[1].Replicas[0].Name = "a-f0" }, "reuses")
	corrupt("non-leader member",
		func(m *shard.Manifest) { m.Members[1].Role = shard.RoleFollower }, "must be leaders")
}

// TestShardProvenanceRoundTrip checks a shard engine persists its
// partition provenance and the manifest masses agree with the reloaded
// engines.
func TestShardProvenanceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	pts := cloud(rng, 240, 2)
	w := make([]float64, len(pts))
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	eng, err := Build(pts, Gaussian(1), WithWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := eng.Shard(3, KDPartition)
	if err != nil {
		t.Fatal(err)
	}
	var sumPos, sumNeg float64
	for i, se := range shards {
		wp, wn := se.WeightMass()
		sumPos, sumNeg = sumPos+wp, sumNeg+wn
		var buf bytes.Buffer
		if _, err := se.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadEngine(&buf)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		prov, ok := loaded.ShardInfo()
		if !ok {
			t.Fatalf("shard %d lost provenance", i)
		}
		want := ShardProvenance{Index: i, Of: 3, Partition: KDPartition, SourceLen: 240}
		if prov != want {
			t.Fatalf("shard %d provenance = %+v, want %+v", i, prov, want)
		}
		wpos, wneg := loaded.WeightMass()
		if wantPos, wantNeg := se.WeightMass(); wpos != wantPos || wneg != wantNeg {
			t.Fatalf("shard %d masses %v/%v across the round trip, written from %v/%v", i, wpos, wneg, wantPos, wantNeg)
		}
	}
	// Any partition conserves each sign class's weight mass.
	if wp, wn := eng.WeightMass(); math.Abs(sumPos-wp) > 1e-9 || math.Abs(sumNeg-wn) > 1e-9 {
		t.Fatalf("shard masses sum to %v/%v, the source holds %v/%v", sumPos, sumNeg, wp, wn)
	}
	// A non-shard engine stays provenance-free across a round trip.
	var buf bytes.Buffer
	if _, err := eng.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loaded.ShardInfo(); ok {
		t.Fatal("full engine grew shard provenance across round trip")
	}
}

// TestRestoreRejectsCorruptShardProvenance covers the validation of the
// optional shard-provenance fields of the engine block: out-of-range
// indices and an empty source must fail with an error naming the problem.
func TestRestoreRejectsCorruptShardProvenance(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	eng, err := Build(cloud(rng, 120, 2), Gaussian(1))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := eng.Shard(2, HashPartition)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := shards[0].WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// The engine block of a shard ends: shard flag, Index, Of, Partition,
	// SourceLen, the reserved sketch flag, checksum.
	end := blockEnds(t, buf.Bytes())[0]
	sourceLen := end - 4 - 1 - 8
	of, index := sourceLen-2*8, sourceLen-3*8
	corrupt := func(edits map[int]int64) error {
		data := buf.Bytes()
		for off, v := range edits {
			data = patched(t, data, off, v)
		}
		return readsEngine(data)
	}
	cases := map[string]map[int]int64{
		"index ≥ of":        {index: 5},
		"negative index":    {index: -1},
		"zero of":           {of: 0},
		"empty source":      {sourceLen: 0},
		"negative leftover": {of: -3, index: -4},
	}
	for name, edits := range cases {
		err := corrupt(edits)
		if err == nil {
			t.Fatalf("%s: corrupt provenance accepted", name)
		}
		if !strings.Contains(err.Error(), "shard provenance") {
			t.Fatalf("%s: error %q does not name shard provenance", name, err)
		}
	}
	// The same edit writing the values already there still loads (the
	// harness is sound).
	if err := corrupt(map[int]int64{index: 0, of: 2, sourceLen: 120}); err != nil {
		t.Fatalf("valid provenance rejected: %v", err)
	}
}

// withSketchFlag returns the stream data with its engine block's last
// field, the reserved sketch flag, set (and the block checksum redone).
func withSketchFlag(tb testing.TB, data []byte) []byte {
	tb.Helper()
	flag := blockEnds(tb, data)[0] - 4 - 1
	if data[flag] != 0 {
		tb.Fatalf("sketch flag is %d, want 0", data[flag])
	}
	return patched(tb, data, flag-7, int64(binary.LittleEndian.Uint64(data[flag-7:]))|1<<56)
}

// TestRestoreRefusesSketchFlag: the engine block's last field is a reserved
// flag that once announced a coreset's provenance. It is always written
// false; a file that sets it holds a coreset engine, and the load fails with
// an error that names it.
func TestRestoreRefusesSketchFlag(t *testing.T) {
	for _, name := range []string{"built.bin", "streamed.bin"} {
		err := readsEngine(withSketchFlag(t, readFixture(t, name)))
		if err == nil || !strings.Contains(err.Error(), "sketch (coreset) record") {
			t.Fatalf("%s with the sketch flag set: error %v, want one naming the sketch record", name, err)
		}
	}
}
