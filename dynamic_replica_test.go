package karl

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"karl/internal/blockio"
	"karl/internal/segment"
)

// replicaPull runs one replication round — the leader's stream for what the
// follower says it holds, installed on the follower — and returns the bytes
// that crossed (0 when the leader answered "unchanged").
func replicaPull(t testing.TB, leader, follower *Engine) int64 {
	t.Helper()
	var buf bytes.Buffer
	n, err := leader.WriteSnapshot(&buf, follower.Have())
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteSnapshot reported %d bytes, wrote %d", n, buf.Len())
	}
	if n == 0 {
		return 0
	}
	if err := follower.InstallSnapshot(&buf); err != nil {
		t.Fatalf("install: %v", err)
	}
	return n
}

// replicaProbes is the probe set the mirror checks compare answers on.
var replicaProbes = [][]float64{{0.3, 0.3}, {0.8, 0.2}, {0.5, 0.9}, {-0.8, 0.2}, {0, 0}}

// checkReplicaMirrored asserts the follower is a mirror of the leader: the
// same counters, the same manifest segment for segment (ids, sizes, dead
// counts), and bitwise the same answers — one round must get it there from
// whatever it held before.
func checkReplicaMirrored(t *testing.T, leader, follower *Engine) {
	t.Helper()
	if l, f := leader.NextSeq(), follower.NextSeq(); l != f {
		t.Fatalf("next seq: leader %d follower %d", l, f)
	}
	if l, f := leader.Epoch(), follower.Epoch(); l != f {
		t.Fatalf("epoch: leader %d follower %d", l, f)
	}
	if l, f := leader.Deletes(), follower.Deletes(); l != f {
		t.Fatalf("deletes: leader %d follower %d", l, f)
	}
	if l, f := leader.Len(), follower.Len(); l != f {
		t.Fatalf("len: leader %d follower %d", l, f)
	}
	if l, f := leader.Segments(), follower.Segments(); !reflect.DeepEqual(l, f) {
		t.Fatalf("manifest:\n leader   %+v\n follower %+v", l, f)
	}
	lp, ln := leader.WeightMass()
	fp, fn := follower.WeightMass()
	if lp != fp || ln != fn {
		t.Fatalf("mass: leader %v/%v follower %v/%v", lp, ln, fp, fn)
	}
	for _, q := range replicaProbes {
		want, err := leader.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := follower.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("aggregate at %v: leader %v follower %v", q, want, got)
		}
	}
}

// replicaLoad inserts n random weighted 2-d points and returns their ids.
func replicaLoad(t testing.TB, d *Engine, rng *rand.Rand, n int) []uint64 {
	t.Helper()
	ids := make([]uint64, n)
	for i := range ids {
		id, err := d.InsertID([]float64{rng.NormFloat64(), rng.NormFloat64()}, 0.2+rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

func replicaDelete(t testing.TB, d *Engine, ids ...uint64) {
	t.Helper()
	for _, id := range ids {
		if err := d.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
	}
}

// TestReplicaIncrementalCatchUp drives a fresh follower to convergence in
// one round — sealed segments ship whole, the memtable ships as rows, dead
// rows ride their segments — then keeps it converged across further inserts,
// deletes, and rows inserted and deleted again between two pulls.
func TestReplicaIncrementalCatchUp(t *testing.T) {
	mk := func() *Engine {
		d, err := NewDynamic(Gaussian(1.5), WithSealSize(32), WithAutoCompaction(false))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	leader, follower := mk(), mk()
	rng := rand.New(rand.NewSource(71))
	ids := replicaLoad(t, leader, rng, 150)
	for i := 0; i < len(ids); i += 7 {
		replicaDelete(t, leader, ids[i])
	}
	whole := replicaPull(t, leader, follower)
	checkReplicaMirrored(t, leader, follower)

	// Steady state: more inserts and deletes, including a row deleted
	// before the follower ever saw it (it ships as nothing at all).
	ids = append(ids, replicaLoad(t, leader, rng, 40)...)
	ephemeral, err := leader.InsertID([]float64{0.1, 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	replicaDelete(t, leader, ephemeral, ids[len(ids)-3], ids[1])
	if n := replicaPull(t, leader, follower); n >= whole {
		t.Fatalf("steady-state pull shipped %d bytes, the bootstrap %d: held segments were not elided", n, whole)
	}
	checkReplicaMirrored(t, leader, follower)

	// A pull from where the leader stands is answered with nothing, and the
	// whole engine file installs over the mirror as a no-op.
	if n := replicaPull(t, leader, follower); n != 0 {
		t.Fatalf("pull against an unchanged leader shipped %d bytes", n)
	}
	var file bytes.Buffer
	if _, err := leader.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	if err := follower.InstallSnapshot(&file); err != nil {
		t.Fatalf("redelivery: %v", err)
	}
	checkReplicaMirrored(t, leader, follower)
}

// TestReplicaSnapshotThenTail covers a follower that starts from a whole
// engine file (a WriteTo stream) and was configured unlike its leader: the
// install adopts everything, a second install onto the now non-empty engine
// is as good as the first, and pulls continue from there.
func TestReplicaSnapshotThenTail(t *testing.T) {
	leader, err := NewDynamic(Gaussian(2), WithSealSize(16), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	ids := replicaLoad(t, leader, rng, 70)
	replicaDelete(t, leader, ids[2], ids[20], ids[45])
	follower, err := NewDynamic(Gaussian(2))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		var buf bytes.Buffer
		if _, err := leader.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if err := follower.InstallSnapshot(&buf); err != nil {
			t.Fatalf("install %d: %v", round, err)
		}
		checkReplicaMirrored(t, leader, follower)
	}
	replicaLoad(t, leader, rng, 25)
	replicaDelete(t, leader, ids[60])
	replicaPull(t, leader, follower)
	checkReplicaMirrored(t, leader, follower)
}

// TestReplicaTimedEngineTail is the first wedge: a live follower pulls
// mid-memtable, the leader crosses a seal — so the new segment holds rows
// the follower already had loose — and the next pull must converge in one
// round. On a timed engine the parent commit demanded a snapshot here and
// could not install one; the untimed case (leaf capacity 4, so sealing
// permutes the rows) shipped the straddling rows one by one.
func TestReplicaTimedEngineTail(t *testing.T) {
	for name, opt := range map[string]Option{
		"untimed": WithIndex(KDTree, 4),
		"ttl":     WithTTL(time.Hour),
		"decay":   WithDecayHalfLife(30 * time.Minute),
	} {
		t.Run(name, func(t *testing.T) {
			clock := int64(1_700_000_000_000_000_000)
			mk := func() *Engine {
				d, err := NewDynamic(Gaussian(1), WithSealSize(32), WithAutoCompaction(false),
					opt, withClock(func() int64 { return clock }))
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			leader, follower := mk(), mk()
			rng := rand.New(rand.NewSource(73))
			step := func(n int) []uint64 {
				ids := make([]uint64, 0, n)
				for i := 0; i < n; i++ {
					ids = append(ids, replicaLoad(t, leader, rng, 1)...)
					clock += int64(time.Second)
				}
				return ids
			}
			ids := step(20)
			replicaPull(t, leader, follower)
			checkReplicaMirrored(t, leader, follower)

			// Two seals on: segment 1 straddles what the follower had,
			// segment 2 is all new, the rest is memtable; deletes on both
			// sides of the old position.
			ids = append(ids, step(76)...)
			replicaDelete(t, leader, ids[4], ids[25], ids[40])
			replicaPull(t, leader, follower)
			checkReplicaMirrored(t, leader, follower)
			if got := len(follower.Segments()); got != 3 {
				t.Fatalf("follower holds %d segments, want the leader's 3", got)
			}
			clock += int64(10 * time.Minute)
			checkReplicaMirrored(t, leader, follower)
		})
	}
}

// TestReplicaReloadedLeader is the second wedge: a follower two deletes
// behind a leader that went through its own file (a restart). The reloaded
// leader has no history to replay from, and needs none.
func TestReplicaReloadedLeader(t *testing.T) {
	leader, err := NewDynamic(Gaussian(1.5), WithSealSize(32), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := NewDynamic(Gaussian(1.5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(74))
	ids := replicaLoad(t, leader, rng, 100)
	replicaDelete(t, leader, ids[3])
	replicaPull(t, leader, follower)
	replicaDelete(t, leader, ids[10], ids[99]) // a sealed row and a memtable row
	var file bytes.Buffer
	if _, err := leader.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	full := file.Len()
	reloaded, err := ReadEngine(&file)
	if err != nil {
		t.Fatal(err)
	}
	if n := replicaPull(t, reloaded, follower); n == 0 || n > int64(full)/4 {
		t.Fatalf("pull from the reloaded leader shipped %d bytes of a %d-byte engine: want the dead seqs and the memtable only", n, full)
	}
	checkReplicaMirrored(t, reloaded, follower)
}

// TestReplicaLongDisconnection is the third wedge: a follower that comes
// back after the leader took more deletes than any log would keep, merged
// tiers and rewrote dead-heavy segments. One round.
func TestReplicaLongDisconnection(t *testing.T) {
	const churn = 72_000
	mk := func() *Engine {
		d, err := NewDynamic(Gaussian(1.5), WithSealSize(128))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	leader, follower := mk(), mk()
	defer leader.Close()
	defer follower.Close()
	rng := rand.New(rand.NewSource(75))
	live := replicaLoad(t, leader, rng, 1000)
	waitMaintenance(leader)
	replicaPull(t, leader, follower)
	checkReplicaMirrored(t, leader, follower)

	for done := 0; done < churn; {
		live = append(live, replicaLoad(t, leader, rng, 200)...)
		for k := 0; k < 200; k++ {
			at := 0 // oldest first on even rounds, anywhere on odd
			if (done/200)%2 == 1 {
				at = rng.Intn(len(live))
			}
			replicaDelete(t, leader, live[at])
			live = append(live[:at], live[at+1:]...)
			done++
		}
	}
	waitMaintenance(leader)
	if leader.Deletes() < churn || leader.Compactions() < 3 || leader.DeadRewrites() == 0 {
		t.Fatalf("setup: %d deletes, %d compactions, %d dead-share rewrites", leader.Deletes(), leader.Compactions(), leader.DeadRewrites())
	}
	replicaPull(t, leader, follower)
	checkReplicaMirrored(t, leader, follower)
	checkStorageInvariants(t, follower, true)
	for _, id := range live[:50] {
		if err := follower.Delete(id); err != nil {
			t.Fatalf("follower cannot address live id %d: %v", id, err)
		}
	}
}

// TestReplicaElisionIdentity: a segment id does not identify content across
// leaders. Two built leaders both hold "segment 1, 512 rows, seqs 1..512"
// over different points; a follower of the first re-pointed at the second
// must get the second's segment whole. And the other way round: a follower
// re-pointed at its old leader's promoted ex-follower shares every segment
// with it and downloads none of them again.
func TestReplicaElisionIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	build := func() *Engine {
		pts := make([][]float64, 512)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		eng, err := Build(pts, Gaussian(1.5), WithSealSize(64), WithAutoCompaction(false))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.Segments(), b.Segments()) || a.NextSeq() != b.NextSeq() || a.Epoch() != b.Epoch() {
		t.Fatalf("setup wants two leaders alike in everything but their points: %+v / %+v", a.Segments(), b.Segments())
	}
	follower, err := NewDynamic(Gaussian(1))
	if err != nil {
		t.Fatal(err)
	}
	whole := replicaPull(t, a, follower)
	checkReplicaMirrored(t, a, follower)
	if n := replicaPull(t, b, follower); n < whole {
		t.Fatalf("re-pointed at another leader's segment 1, the follower received %d bytes (a whole engine is %d): it kept the first leader's rows under the second's id", n, whole)
	}
	checkReplicaMirrored(t, b, follower)

	// a leads, b and f follow; a dies with writes b never saw; b is promoted
	// and takes writes of its own; f re-points at b.
	a = build()
	b, f := build(), build() // any state will do to start from
	replicaLoad(t, a, rng, 200)
	replicaPull(t, a, b)
	replicaLoad(t, a, rng, 70) // one more seal b never saw
	replicaDelete(t, a, 5, 600)
	whole = replicaPull(t, a, f)
	checkReplicaMirrored(t, a, f)
	ids := replicaLoad(t, b, rng, 70) // b's own seal, under an id f holds a's segment by
	replicaDelete(t, b, 7, ids[0])
	n := replicaPull(t, b, f)
	checkReplicaMirrored(t, b, f)
	if n > whole/4 {
		t.Fatalf("re-pointed at the promoted follower, f received %d bytes of a %d-byte engine: shared segments were downloaded again", n, whole)
	}
}

// TestReplicaMirrorIsCheap pins what keeps a follower's CPU down: a pull
// that moves only the memtable and dead rows leaves every held segment the
// object it was, the manifest and the configuration generation untouched —
// so armed forests stay armed — and ships no point of a held segment.
func TestReplicaMirrorIsCheap(t *testing.T) {
	mk := func() *Engine {
		d, err := NewDynamic(Gaussian(1.5), WithSealSize(64), WithAutoCompaction(false))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	leader, follower := mk(), mk()
	rng := rand.New(rand.NewSource(77))
	ids := replicaLoad(t, leader, rng, 200)
	whole := replicaPull(t, leader, follower)
	view := follower.Clone()
	if _, err := view.Aggregate(replicaProbes[0]); err != nil {
		t.Fatal(err)
	}
	man, gen := follower.sh.man, follower.sh.cfgGen
	segs := append([]*segment.Segment(nil), man.Segs...)

	replicaLoad(t, leader, rng, 10)
	replicaDelete(t, leader, ids[0], ids[70], ids[150], ids[199])
	n := replicaPull(t, leader, follower)
	checkReplicaMirrored(t, leader, follower)
	if follower.sh.man != man || follower.sh.cfgGen != gen || !slices.Equal(follower.sh.man.Segs, segs) {
		t.Fatalf("a memtable-and-dead-rows pull replaced the manifest (%v) or bumped the config generation (%d -> %d)", follower.sh.man != man, gen, follower.sh.cfgGen)
	}
	if view.fMan != man {
		t.Fatal("a view armed before the pull is no longer armed on the follower's manifest")
	}
	want, _ := leader.Aggregate(replicaProbes[0])
	if got, err := view.Aggregate(replicaProbes[0]); err != nil || got != want {
		t.Fatalf("armed view answers %v, %v; leader %v", got, err, want)
	}
	// 3 held blocks (id, 1–2 dead seqs) and < 64 memtable rows of 2 dims.
	if limit := int64(64*(8+5*8) + 512); n > limit || n > whole/3 {
		t.Fatalf("pull shipped %d bytes (bootstrap %d): more than dead seqs and a memtable", n, whole)
	}

	// A pull that does cross a seal keeps the held segments' objects too.
	replicaLoad(t, leader, rng, 64)
	replicaPull(t, leader, follower)
	checkReplicaMirrored(t, leader, follower)
	if follower.sh.man == man || !slices.Equal(follower.sh.man.Segs[:len(segs)], segs) {
		t.Fatal("a pull across a seal must swap the manifest and keep the held segments")
	}
	if follower.sh.cfgGen != gen {
		t.Fatal("config generation bumped with the same leader configuration")
	}
}

// TestReplicaInstallIsAtomic: a stream that cannot be applied — it elides a
// segment the follower does not hold, or names a dead row the held segment
// does not store — is refused by name and leaves the follower as it was.
func TestReplicaInstallIsAtomic(t *testing.T) {
	leader, err := NewDynamic(Gaussian(1.5), WithSealSize(32), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := NewDynamic(Gaussian(1.5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	ids := replicaLoad(t, leader, rng, 70)
	replicaPull(t, leader, follower)
	replicaLoad(t, leader, rng, 40)
	replicaDelete(t, leader, ids[1], ids[40])

	// forged is the leader's stream for the follower with the held blocks
	// rewritten: a stream whose every checksum is good.
	forged := func(edit func(h *heldSegment)) []byte {
		var buf bytes.Buffer
		sh := leader.sh
		c := blockio.NewEncoder(&buf)
		nsegs, rows := len(sh.man.Segs), sh.memRowsLocked()
		var rho *float64
		sh.engineBlock(c, &rho, &nsegs)
		for i, s := range sh.man.Segs {
			if i >= 2 {
				segmentBlock(c, s, s.Dead)
				continue
			}
			h := heldSegment{id: s.ID}
			if s.Dead != nil {
				h.dead = append(h.dead, s.Dead.Seqs...)
			}
			edit(&h)
			heldBlock(c, &h)
		}
		memtableBlock(c, &rows)
		if _, err := c.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := follower.Have()
	for name, c := range map[string]struct {
		edit func(h *heldSegment)
		want string
	}{
		"unknown held id":    {func(h *heldSegment) { h.id += 40 }, "does not hold"},
		"dead row elsewhere": {func(h *heldSegment) { h.dead = append(h.dead, 69) }, "not a row of it"},
		"dead rows unsorted": {func(h *heldSegment) { h.dead = append(h.dead, h.dead[0]) }, "not ascending"},
	} {
		err := follower.InstallSnapshot(bytes.NewReader(forged(c.edit)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %v, want one containing %q", name, err, c.want)
		}
		if after := follower.Have(); !reflect.DeepEqual(before, after) || follower.Tombstones() != 0 {
			t.Fatalf("%s: refused stream changed the follower: %+v -> %+v, %d tombstones", name, before, after, follower.Tombstones())
		}
	}
	if err := follower.InstallSnapshot(bytes.NewReader(forged(func(*heldSegment) {}))); err != nil {
		t.Fatalf("unedited forged stream refused (the harness is unsound): %v", err)
	}
	checkReplicaMirrored(t, leader, follower)

	// The same stream is no engine file: a held block has nothing to
	// resolve against.
	if _, err := ReadEngine(bytes.NewReader(forged(func(*heldSegment) {}))); err == nil || !strings.Contains(err.Error(), "held-segment block") {
		t.Fatalf("ReadEngine on a replication stream: error %v", err)
	}
}
