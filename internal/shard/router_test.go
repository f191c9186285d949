package shard

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// grownManifest builds a hash manifest taken through two splits, so
// round-trip tests cover lineage, reassigned slots and a multi-epoch
// history.
func grownManifest(t *testing.T) *Manifest {
	t.Helper()
	man, err := NewManifest(Hash, []Member{
		{ID: 1, Name: "a", Points: 100, WPos: 50},
		{ID: 2, Name: "b", Points: 120, WPos: 61, WNeg: 2},
	})
	if err != nil {
		t.Fatalf("NewManifest: %v", err)
	}
	slots := man.MemberSlots(1)
	man, err = man.ApplySplit(1, Member{ID: 3, Name: "a/split-3", BaseSeq: 77, Points: 40, WPos: 20},
		SplitRule{Kind: Hash, NumSlots: man.NumSlots, Slots: slots[len(slots)/2:]})
	if err != nil {
		t.Fatalf("ApplySplit: %v", err)
	}
	slots = man.MemberSlots(2)
	man, err = man.ApplySplit(2, Member{ID: 4, Name: "b/split-4", BaseSeq: 130, Points: 60, WPos: 31},
		SplitRule{Kind: Hash, NumSlots: man.NumSlots, Slots: slots[len(slots)/2:]})
	if err != nil {
		t.Fatalf("ApplySplit: %v", err)
	}
	return man
}

// grownKDManifest builds a kd manifest grown from one member by two
// splits.
func grownKDManifest(t *testing.T) *Manifest {
	t.Helper()
	man, err := NewManifest(KDSplit, []Member{{ID: 1, Name: "root", Points: 200, WPos: 100}})
	if err != nil {
		t.Fatalf("NewManifest: %v", err)
	}
	man, err = man.ApplySplit(1, Member{ID: 2, Name: "root/split-2", BaseSeq: 201},
		SplitRule{Kind: KDSplit, Dim: 0, Cut: 0.5})
	if err != nil {
		t.Fatalf("ApplySplit: %v", err)
	}
	man, err = man.ApplySplit(2, Member{ID: 3, Name: "root/split-2/split-3", BaseSeq: 260},
		SplitRule{Kind: KDSplit, Dim: 1, Cut: -1.25})
	if err != nil {
		t.Fatalf("ApplySplit: %v", err)
	}
	return man
}

// TestManifestRoundTrip serializes grown hash and kd manifests and checks
// the loaded copy is identical — same epoch, lineage, and routing
// decisions on random points.
func TestManifestRoundTrip(t *testing.T) {
	for name, man := range map[string]*Manifest{
		"hash": grownManifest(t),
		"kd":   grownKDManifest(t),
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			n, err := man.WriteTo(&buf)
			if err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
			}
			got, err := ReadManifest(&buf)
			if err != nil {
				t.Fatalf("ReadManifest: %v", err)
			}
			if !reflect.DeepEqual(got, man) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, man)
			}
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 200; i++ {
				p := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
				if got.Route(p) != man.Route(p) {
					t.Fatalf("loaded manifest routes %v to %d, original to %d", p, got.Route(p), man.Route(p))
				}
			}
		})
	}
}

// TestManifestRejectsTruncated cuts the stream at every offset, for both
// routing kinds; every prefix must fail loudly, never yield a partial
// manifest.
func TestManifestRejectsTruncated(t *testing.T) {
	for _, man := range []*Manifest{grownManifest(t), grownKDManifest(t)} {
		var buf bytes.Buffer
		if _, err := man.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		full := buf.Bytes()
		for n := range full {
			if _, err := ReadManifest(bytes.NewReader(full[:n])); err == nil {
				t.Fatalf("truncation at %d/%d bytes: expected an error", n, len(full))
			}
		}
	}
}

// TestManifestRejectsBadVersionAndGarbage covers the self-description
// checks: another format version, zero epoch, and noise that is no block
// stream at all.
func TestManifestRejectsBadVersionAndGarbage(t *testing.T) {
	encode := func(m Manifest) []byte {
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	good := Manifest{
		Epoch: 1, Kind: Hash,
		Members:  []Member{{ID: 1, Name: "a"}},
		NumSlots: 4, Slots: []uint64{1, 1, 1, 1},
	}
	if _, err := ReadManifest(bytes.NewReader(encode(good))); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}

	future := encode(good)
	future[7] += 41 // the version byte closes the 8-byte stream header
	if _, err := ReadManifest(bytes.NewReader(future)); err == nil || !strings.Contains(err.Error(), "version 49") {
		t.Errorf("future version: err = %v, want a version error", err)
	}
	bad := good
	bad.Epoch = 0
	if _, err := ReadManifest(bytes.NewReader(encode(bad))); err == nil {
		t.Error("epoch 0 must be rejected")
	}
	if _, err := ReadManifest(bytes.NewReader([]byte("not a manifest at all"))); err == nil {
		t.Error("garbage must be rejected")
	}
}

// TestManifestRejectsStructurallyInvalid pins the structural validation a
// coordinator's boot depends on: dangling slot owners, malformed kd
// trees, duplicate members and broken lineage all refuse to load.
func TestManifestRejectsStructurallyInvalid(t *testing.T) {
	cases := map[string]Manifest{
		"slot owned by unknown member": {
			Epoch: 2, Kind: Hash,
			Members:  []Member{{ID: 1}},
			NumSlots: 2, Slots: []uint64{1, 9},
		},
		"slot table wrong size": {
			Epoch: 2, Kind: Hash,
			Members:  []Member{{ID: 1}},
			NumSlots: 4, Slots: []uint64{1, 1},
		},
		"duplicate member ids": {
			Epoch: 2, Kind: Hash,
			Members:  []Member{{ID: 1}, {ID: 1}},
			NumSlots: 1, Slots: []uint64{1},
		},
		"member id zero": {
			Epoch: 2, Kind: Hash,
			Members:  []Member{{ID: 0}},
			NumSlots: 1, Slots: []uint64{0},
		},
		"unknown parent": {
			Epoch: 2, Kind: Hash,
			Members:  []Member{{ID: 1, Parent: 7}},
			NumSlots: 1, Slots: []uint64{1},
		},
		"kd leaf names unknown member": {
			Epoch: 2, Kind: KDSplit,
			Members: []Member{{ID: 1}},
			Nodes:   []RouteNode{{Dim: -1, Member: 3}},
		},
		"kd child index out of range": {
			Epoch: 2, Kind: KDSplit,
			Members: []Member{{ID: 1}},
			Nodes:   []RouteNode{{Dim: 0, Cut: 0, Left: 5, Right: 6}},
		},
		"kd cycle": {
			Epoch: 2, Kind: KDSplit,
			Members: []Member{{ID: 1}},
			Nodes:   []RouteNode{{Dim: 0, Left: 0, Right: 0}},
		},
		"kd unreachable node": {
			Epoch: 2, Kind: KDSplit,
			Members: []Member{{ID: 1}},
			Nodes:   []RouteNode{{Dim: -1, Member: 1}, {Dim: -1, Member: 1}},
		},
		"unknown kind": {
			Epoch: 2, Kind: 42,
			Members: []Member{{ID: 1}},
		},
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := p.WriteTo(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			if _, err := ReadManifest(&buf); err == nil {
				t.Error("expected a validation error")
			}
		})
	}
}

// TestApplySplitValidation covers the mutation-side checks that keep a
// manifest consistent while it grows.
func TestApplySplitValidation(t *testing.T) {
	man := grownManifest(t)
	rule := SplitRule{Kind: Hash, NumSlots: man.NumSlots, Slots: man.MemberSlots(1)[:1]}

	if _, err := man.ApplySplit(9, Member{ID: 10}, rule); err == nil {
		t.Error("unknown source member must fail")
	}
	if _, err := man.ApplySplit(1, Member{ID: 2}, rule); err == nil {
		t.Error("reused member id must fail")
	}
	if _, err := man.ApplySplit(1, Member{ID: 10}, SplitRule{Kind: KDSplit, Dim: 0}); err == nil {
		t.Error("rule kind mismatch must fail")
	}
	// Slots the source does not own cannot move.
	foreign := man.MemberSlots(2)[:1]
	if _, err := man.ApplySplit(1, Member{ID: 10},
		SplitRule{Kind: Hash, NumSlots: man.NumSlots, Slots: foreign}); err == nil {
		t.Error("moving a foreign slot must fail")
	}
	// A valid split advances the epoch by exactly one and preserves the
	// original (copy-on-write).
	before := man.Epoch
	man2, err := man.ApplySplit(1, Member{ID: 10}, rule)
	if err != nil {
		t.Fatalf("ApplySplit: %v", err)
	}
	if man2.Epoch != before+1 || man.Epoch != before {
		t.Fatalf("epochs: original %d, split %d (started at %d)", man.Epoch, man2.Epoch, before)
	}
	if man2.Member(10).Parent != 1 {
		t.Fatalf("lineage: parent = %d, want 1", man2.Member(10).Parent)
	}
}

// TestSplitRulePred checks the predicate compilation both routing kinds
// hand to the engine's Split.
func TestSplitRulePred(t *testing.T) {
	pred, err := SplitRule{Kind: Hash, NumSlots: 8, Slots: []uint64{1, 3}}.Pred()
	if err != nil {
		t.Fatalf("hash Pred: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	moved := 0
	for i := 0; i < 400; i++ {
		p := []float64{rng.NormFloat64(), rng.NormFloat64()}
		want := SlotOf(p, 8) == 1 || SlotOf(p, 8) == 3
		if pred(p) != want {
			t.Fatalf("hash pred(%v) = %v, want %v", p, pred(p), want)
		}
		if want {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("hash predicate moved nothing over 400 random points")
	}

	pred, err = SplitRule{Kind: KDSplit, Dim: 1, Cut: 0.25}.Pred()
	if err != nil {
		t.Fatalf("kd Pred: %v", err)
	}
	if !pred([]float64{0, 0.3}) || pred([]float64{0, 0.2}) {
		t.Fatal("kd predicate does not honor the cut")
	}

	if _, err := (SplitRule{Kind: Hash, NumSlots: 0}).Pred(); err == nil {
		t.Error("hash rule without a slot space must fail")
	}
	if _, err := (SplitRule{Kind: Hash, NumSlots: 4, Slots: []uint64{4}}).Pred(); err == nil {
		t.Error("out-of-range slot must fail")
	}
	if _, err := (SplitRule{Kind: KDSplit, Dim: -1}).Pred(); err == nil {
		t.Error("negative kd dim must fail")
	}
}
