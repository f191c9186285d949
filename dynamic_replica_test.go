package karl

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// replicaPump pulls leader batches into the follower until the follower's
// fence and delete position reach the leader's counters.
func replicaPump(t *testing.T, leader, follower *Engine, fence, delPos uint64) (uint64, uint64) {
	t.Helper()
	for {
		b, err := leader.PullBatch(fence, delPos)
		if err != nil {
			t.Fatalf("pull at fence %d: %v", fence, err)
		}
		newFence, err := follower.ApplyBatch(b)
		if err != nil {
			t.Fatalf("apply at fence %d: %v", fence, err)
		}
		fence, delPos = newFence, b.DeletePos
		if fence >= b.NextSeq-1 && delPos == b.DeletePos {
			return fence, delPos
		}
	}
}

// checkReplicaConverged asserts the follower answers queries identically
// to the leader up to float summation order (the two hold the same live
// mass in differently shaped manifests): same point count, same mass and
// same aggregates within 1e-9 relative.
func checkReplicaConverged(t *testing.T, leader, follower *Engine, qs [][]float64) {
	t.Helper()
	close9 := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
	}
	if lg, fg := leader.Len(), follower.Len(); lg != fg {
		t.Fatalf("len diverged: leader %d follower %d", lg, fg)
	}
	lp, ln := leader.WeightMass()
	fp, fn := follower.WeightMass()
	if !close9(lp, fp) || !close9(ln, fn) {
		t.Fatalf("mass diverged: leader %v/%v follower %v/%v", lp, ln, fp, fn)
	}
	for _, q := range qs {
		want, err := leader.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := follower.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		if !close9(want, got) {
			t.Fatalf("aggregate diverged at %v: leader %v follower %v", q, want, got)
		}
	}
}

// TestReplicaIncrementalCatchUp drives a fresh follower to convergence
// purely through PullBatch/ApplyBatch — sealed segments ship whole, the
// memtable tail ships as rows, deletes replay from the log — then keeps
// it converged across further inserts, deletes, and rows that are
// inserted and deleted again between two pulls.
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
	var ids []uint64
	for i := 0; i < 150; i++ {
		id, err := leader.InsertID([]float64{rng.Float64(), rng.Float64()}, 0.5+rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < len(ids); i += 7 {
		if err := leader.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	qs := [][]float64{{0.3, 0.3}, {0.8, 0.2}, {0.5, 0.9}}
	fence, delPos := replicaPump(t, leader, follower, 0, 0)
	checkReplicaConverged(t, leader, follower, qs)

	// Steady state: more inserts and deletes, including a row deleted
	// before the follower ever saw it (ships only as a delete-log entry).
	for i := 0; i < 40; i++ {
		id, err := leader.InsertID([]float64{rng.Float64(), rng.Float64()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ephemeral, err := leader.InsertID([]float64{0.1, 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Delete(ephemeral); err != nil {
		t.Fatal(err)
	}
	if err := leader.Delete(ids[len(ids)-3]); err != nil {
		t.Fatal(err)
	}
	fence, delPos = replicaPump(t, leader, follower, fence, delPos)
	checkReplicaConverged(t, leader, follower, qs)
	if want := leader.NextSeq() - 1; fence != want {
		t.Fatalf("fence %d after ephemeral delete, want %d", fence, want)
	}

	// Redelivering the same batch is a no-op (idempotent apply).
	b, err := leader.PullBatch(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.ApplyBatch(b); err != nil {
		t.Fatalf("redelivery: %v", err)
	}
	checkReplicaConverged(t, leader, follower, qs)
	_ = delPos
}

// TestReplicaSnapshotThenTail covers the fresh-follower bootstrap path:
// full snapshot install (delete position captured before serialization),
// then incremental pulls from the snapshot's fence.
func TestReplicaSnapshotThenTail(t *testing.T) {
	leader, err := NewDynamic(Gaussian(2), WithSealSize(16), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	var ids []uint64
	for i := 0; i < 70; i++ {
		id, err := leader.InsertID([]float64{rng.Float64(), rng.Float64()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, i := range []int{2, 20, 45} {
		if err := leader.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	delPos := leader.DeletePos()
	var buf bytes.Buffer
	if _, err := leader.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	follower, err := NewDynamic(Gaussian(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.InstallSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	qs := [][]float64{{0.4, 0.6}, {0.9, 0.1}}
	checkReplicaConverged(t, leader, follower, qs)

	// A second install must refuse: the follower is no longer empty.
	var buf2 bytes.Buffer
	if _, err := leader.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if err := follower.InstallSnapshot(&buf2); err == nil {
		t.Fatal("snapshot install onto a non-empty engine accepted")
	}

	// Incremental pulls continue from the snapshot fence.
	for i := 0; i < 25; i++ {
		if _, err := leader.InsertID([]float64{rng.Float64(), rng.Float64()}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Delete(ids[60]); err != nil {
		t.Fatal(err)
	}
	replicaPump(t, leader, follower, follower.NextSeq()-1, delPos)
	checkReplicaConverged(t, leader, follower, qs)
}

// TestReplicaTimedEngineTail checks replication of TTL/decay engines
// through the memtable tail (timestamps travel with the rows) and that a
// fence straddling a sealed segment of a timed engine forces a full
// resync instead of a wrong-decay per-row replay.
func TestReplicaTimedEngineTail(t *testing.T) {
	clock := int64(1_700_000_000_000_000_000)
	mk := func() *Engine {
		d, err := NewDynamic(Gaussian(1), WithSealSize(32), WithAutoCompaction(false),
			WithDecayHalfLife(30*time.Minute), withClock(func() int64 { return clock }))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	leader, follower := mk(), mk()
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < 40; i++ {
		if _, err := leader.InsertID([]float64{rng.Float64(), rng.Float64()}, 1); err != nil {
			t.Fatal(err)
		}
		clock += int64(time.Second)
	}
	fence, delPos := replicaPump(t, leader, follower, 0, 0)
	checkReplicaConverged(t, leader, follower, [][]float64{{0.5, 0.5}})
	_, _ = fence, delPos

	// Fence 5 falls inside the leader's first sealed segment: per-row
	// replay cannot reproduce decay state, so the pull demands a resync.
	if _, err := leader.PullBatch(5, 0); !errors.Is(err, ErrReplicaResync) {
		t.Fatalf("straddling pull on a timed engine: got %v, want ErrReplicaResync", err)
	}
}

// TestReplicaDeleteLogBounds pins the delete-log error surface of
// PullBatch: a position ahead of the log is corruption, a position behind
// the trimmed head demands a resync.
func TestReplicaDeleteLogBounds(t *testing.T) {
	d, err := NewDynamic(Gaussian(1), WithSealSize(8), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PullBatch(0, 3); err == nil {
		t.Fatal("position ahead of the log accepted")
	}
	id, err := d.InsertID([]float64{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(id); err != nil {
		t.Fatal(err)
	}
	b, err := d.PullBatch(0, 0)
	if err != nil || len(b.Deletes) != 1 || b.Deletes[0] != id || b.DeletePos != 1 {
		t.Fatalf("PullBatch(0, 0) = %+v, %v", b, err)
	}
	// Simulate a trimmed head: a reloaded engine's pre-existing deletes
	// are not in the log, so position 0 is unrecoverable.
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.PullBatch(0, 0); !errors.Is(err, ErrReplicaResync) {
		t.Fatalf("pre-log position: got %v, want ErrReplicaResync", err)
	}
	if _, err := d2.PullBatch(0, d2.DeletePos()); err != nil {
		t.Fatalf("current position rejected: %v", err)
	}
}

// TestReplicaStraddlerSegmentOrder pins two subtle catch-up bugs in one
// deterministic scenario: the follower's fence lands INSIDE a sealed
// segment while newer sealed segments exist, so one batch carries loose
// rows extracted from the straddler (low seqs), a whole segment (middle
// seqs) and the memtable tail (high seqs). The extraction must map each
// seq through the tree's leaf permutation (Seqs is insertion-ordered,
// rows are stored in leaf order), and the apply must land the straddler
// rows BEFORE installing the whole segment — installing first advances
// the idempotency fence past them and they would be dropped as
// duplicates.
func TestReplicaStraddlerSegmentOrder(t *testing.T) {
	mk := func() *Engine {
		// LeafCap 4 forces a real leaf permutation inside each 32-row
		// segment, so misindexing insertion order against leaf order
		// ships wrong points and the convergence check below catches it.
		d, err := NewDynamic(Gaussian(1.2), WithIndex(KDTree, 4), WithSealSize(32), WithAutoCompaction(false))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	leader, follower := mk(), mk()
	rng := rand.New(rand.NewSource(97))
	insert := func(n int) []uint64 {
		ids := make([]uint64, n)
		for i := range ids {
			id, err := leader.InsertID([]float64{rng.NormFloat64(), rng.NormFloat64()}, 0.2+rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		return ids
	}

	// Sync mid-memtable: fence 20, with every row still loose.
	ids := insert(20)
	fence, delPos := replicaPump(t, leader, follower, 0, 0)

	// Grow the leader past two seal boundaries: segment 1 (seqs 1..32)
	// straddles the fence, segment 2 (33..64) ships whole, the rest stays
	// in the memtable. Delete a couple of pre-fence rows so the straddler
	// extraction also has tombstones to skip.
	ids = append(ids, insert(76)...)
	if err := leader.Delete(ids[4]); err != nil {
		t.Fatal(err)
	}
	if err := leader.Delete(ids[25]); err != nil {
		t.Fatal(err)
	}

	b, err := leader.PullBatch(fence, delPos)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Segments) == 0 || len(b.Rows) == 0 {
		t.Fatalf("scenario must mix whole segments with loose rows: %d segments, %d rows", len(b.Segments), len(b.Rows))
	}
	if b.Rows[0].Seq >= 33 {
		t.Fatalf("scenario must extract straddler rows below the whole segment: first row seq %d", b.Rows[0].Seq)
	}
	if _, err := follower.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	checkReplicaConverged(t, leader, follower, [][]float64{{0.3, 0.3}, {-0.8, 0.2}, {0.5, -0.9}})
}

// TestReplicaRefusesOtherKernel: a segment block shipped by a leader serving
// another kernel is refused on install — its aggregates are kernel-free, so
// nothing in the block itself would give the mismatch away — and the
// follower is left as it was.
func TestReplicaRefusesOtherKernel(t *testing.T) {
	leader, err := NewDynamic(Gaussian(1.5), WithSealSize(32), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := NewDynamic(Gaussian(3), WithSealSize(32), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 40; i++ {
		if err := leader.Insert([]float64{rng.Float64(), rng.Float64()}, 1); err != nil {
			t.Fatal(err)
		}
	}
	b, err := leader.PullBatch(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Segments) == 0 {
		t.Fatal("setup wants a sealed segment in the batch")
	}
	if _, err := follower.ApplyBatch(b); err == nil || !strings.Contains(err.Error(), "differs from engine kernel") {
		t.Fatalf("batch from a Gaussian(1.5) leader on a Gaussian(3) follower: error %v", err)
	}
	if follower.Len() != 0 || len(follower.Segments()) != 0 {
		t.Fatalf("refused batch left %d points in %d segments behind", follower.Len(), len(follower.Segments()))
	}
}
