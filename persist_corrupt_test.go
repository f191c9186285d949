package karl

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"

	"karl/internal/shard"
)

// TestReadEngineRejectsTruncated checks every truncation point of a valid
// static engine stream fails with an error instead of a panic or a
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
	full := buf.Bytes()
	for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.99} {
		cut := int(frac * float64(len(full)))
		if _, err := ReadEngine(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("stream truncated to %d/%d bytes accepted", cut, len(full))
		}
	}
	if _, err := ReadEngine(bytes.NewReader(full[:len(full)-1])); err == nil {
		t.Fatal("stream short by one byte accepted")
	}
	// The untruncated original still loads (the harness is sound).
	if _, err := ReadEngine(bytes.NewReader(full)); err != nil {
		t.Fatalf("full stream rejected: %v", err)
	}
}

// TestReadDynamicRejectsTruncated covers truncated manifest streams: a
// multi-segment dynamic engine cut mid-stream must fail loudly at every
// truncation point.
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
	if got := len(d.Segments()); got < 2 {
		t.Fatalf("want a multi-segment manifest, got %d segments", got)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.99} {
		cut := int(frac * float64(len(full)))
		if _, err := ReadEngine(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("stream truncated to %d/%d bytes accepted", cut, len(full))
		}
	}
	if _, err := ReadEngine(bytes.NewReader(full)); err != nil {
		t.Fatalf("full stream rejected: %v", err)
	}
}

// TestReadDynamicRejectsBadVersionAndGarbage pins the dynamic reader's
// error quality: a wrong version names itself and the readable range, and
// non-gob bytes fail outright.
func TestReadDynamicRejectsBadVersionAndGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dynamicPayload{Version: 99, SealSize: 64}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadEngine(&buf)
	if err == nil {
		t.Fatal("version 99 accepted")
	}
	if !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("version error %q does not name the version", err)
	}

	if _, err := ReadEngine(bytes.NewReader([]byte("KARLv99 this is not a gob stream"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadEngine(bytes.NewReader(nil)); err == nil {
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
	full := buf.Bytes()
	for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.99} {
		cut := int(frac * float64(len(full)))
		if _, err := shard.ReadManifest(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("manifest truncated to %d/%d bytes accepted", cut, len(full))
		}
	}
	if _, err := shard.ReadManifest(bytes.NewReader(full[:len(full)-1])); err == nil {
		t.Fatal("manifest short by one byte accepted")
	}
	loaded, err := shard.ReadManifest(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("full manifest rejected: %v", err)
	}
	if loaded.Epoch != man.Epoch || len(loaded.Members) != len(man.Members) {
		t.Fatalf("manifest round trip drifted: epoch %d/%d, members %d/%d",
			loaded.Epoch, man.Epoch, len(loaded.Members), len(man.Members))
	}
}

// TestClusterManifestV2RejectsCorrupt puts a replica-bearing manifest
// (format v2) through the truncation gauntlet, then checks the reader's
// replica validation: bad roles, empty or duplicate replica names, and
// non-leader top-level members must all fail loudly.
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
	full := buf.Bytes()
	for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.99} {
		cut := int(frac * float64(len(full)))
		if _, err := shard.ReadManifest(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("v2 manifest truncated to %d/%d bytes accepted", cut, len(full))
		}
	}
	if _, err := shard.ReadManifest(bytes.NewReader(full[:len(full)-1])); err == nil {
		t.Fatal("v2 manifest short by one byte accepted")
	}
	loaded, err := shard.ReadManifest(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("full v2 manifest rejected: %v", err)
	}
	if len(loaded.Members[0].Replicas) != 1 || loaded.Members[0].Replicas[0].AckedSeq != 90 {
		t.Fatalf("v2 manifest round trip dropped replicas: %+v", loaded.Members[0])
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
	shards, man, err := eng.Shard(3, KDPartition)
	if err != nil {
		t.Fatal(err)
	}
	for i, se := range shards {
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
		if wpos != man.Shards[i].WeightPos || wneg != man.Shards[i].WeightNeg {
			t.Fatalf("shard %d masses %v/%v, manifest says %v/%v",
				i, wpos, wneg, man.Shards[i].WeightPos, man.Shards[i].WeightNeg)
		}
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
// optional shard-provenance block: out-of-range indices and an empty
// source must fail with an error naming the problem.
func TestRestoreRejectsCorruptShardProvenance(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	eng, err := Build(cloud(rng, 120, 2), Gaussian(1))
	if err != nil {
		t.Fatal(err)
	}
	shards, _, err := eng.Shard(2, HashPartition)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(*shardWire)) error {
		p := staticPayload(t, shards[0])
		mutate(p.Shard)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p); err != nil {
			t.Fatal(err)
		}
		_, err := ReadEngine(&buf)
		return err
	}
	cases := map[string]func(*shardWire){
		"index ≥ of":        func(s *shardWire) { s.Index = 5 },
		"negative index":    func(s *shardWire) { s.Index = -1 },
		"zero of":           func(s *shardWire) { s.Of = 0 },
		"empty source":      func(s *shardWire) { s.SourceLen = 0 },
		"negative leftover": func(s *shardWire) { s.Of = -3; s.Index = -4 },
	}
	for name, mutate := range cases {
		err := corrupt(mutate)
		if err == nil {
			t.Fatalf("%s: corrupt provenance accepted", name)
		}
		if !strings.Contains(err.Error(), "shard provenance") {
			t.Fatalf("%s: error %q does not name shard provenance", name, err)
		}
	}
	// Unmutated payloads still load (the harness is sound).
	if err := corrupt(func(*shardWire) {}); err != nil {
		t.Fatalf("valid provenance rejected: %v", err)
	}
}
