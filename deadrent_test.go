package karl

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"karl/internal/segment"
)

// rentEngine bulk-loads n random 2-d points as one segment (ids 1..n) and
// returns the engine with its points by id.
func rentEngine(t *testing.T, n int, opts ...Option) (*Engine, map[uint64][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	pts := make([][]float64, n)
	live := make(map[uint64][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
		live[uint64(i+1)] = pts[i]
	}
	d, err := Build(pts, Gaussian(2), append([]Option{WithIndex(KDTree, 8)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return d, live
}

// rentProbes are the queries the steady readers cycle through.
var rentProbes = [][]float64{{0.2, 0.3}, {0.7, 0.6}, {0.5, 0.5}, {0.9, 0.1}}

// onlySegment returns the engine's single segment's size and dead count.
func onlySegment(t *testing.T, d *Engine) (n, dead int) {
	t.Helper()
	segs := d.Segments()
	if len(segs) > 1 {
		t.Fatalf("deletes alone produced %d segments", len(segs))
	}
	if len(segs) == 0 {
		return 0, 0
	}
	return segs[0].Len, segs[0].Dead
}

// TestDeadRentSteadyReader deletes a segment oldest first beside a reader
// that queries r times after every delete. Each read pays one evaluation
// per pending tombstone, so k tombstones have cost r·k(k+1)/2 and the rent
// rule rewrites the segment before that reaches RowRewriteEvals·Len: at
// rest there are never more than √(2·RowRewriteEvals·Len/r) tombstones,
// well under the Len/Fanout the dead-share rule alone allows. The debt
// /v1/stats reports is that sum exactly, and every answer stays exact.
func TestDeadRentSteadyReader(t *testing.T) {
	const n, r = 1024, 4
	d, live := rentEngine(t, n)
	defer d.Close()
	maxTombs := 0
	for id := uint64(1); id <= n; id++ {
		if err := d.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		delete(live, id)
		if len(live) == 0 {
			break
		}
		for k := 0; k < r; k++ {
			q := rentProbes[(int(id)+k)%len(rentProbes)]
			got, err := d.Aggregate(q)
			if err != nil {
				t.Fatal(err)
			}
			var want float64
			for _, p := range live {
				want += Gaussian(2).Eval(q, p)
			}
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("after deleting %d: Aggregate = %v, exact %v", id, got, want)
			}
		}
		waitMaintenance(d)
		checkStorageInvariants(t, d, true)
		size, dead := onlySegment(t, d)
		if bound := math.Sqrt(2 * segment.RowRewriteEvals * float64(size) / r); float64(dead) > bound {
			t.Fatalf("after deleting %d: %d tombstones beside %d stored rows, the rent rule allows %.1f", id, dead, size, bound)
		}
		if dead > 0 {
			if got, want := d.DeadEvals()[d.Segments()[0].ID], int64(r*dead*(dead+1)/2); got != want {
				t.Fatalf("after deleting %d: debt %d, the reads paid %d", id, got, want)
			}
		}
		maxTombs = max(maxTombs, dead)
	}
	t.Logf("%d dead-row rewrites, %d drops, tombstones peaked at %d (the dead share alone lets %d pile up)",
		d.DeadRewrites(), d.DeadDrops(), maxTombs, n/segment.DefaultPolicy().Fanout-1)
}

// TestDeadRentNoReadsKeepsDeadShareRule runs the same oldest-first delete
// stream with no read at all: no rent is charged, so the rewrites are the
// dead-share rule's alone, simulated here segment size by segment size:
// 21 rewrites and a drop, what an engine without the rent rule makes.
func TestDeadRentNoReadsKeepsDeadShareRule(t *testing.T) {
	const n = 1024
	d, _ := rentEngine(t, n)
	defer d.Close()
	fanout := segment.DefaultPolicy().Fanout // rentEngine's
	size, dead, rewrites, drops := n, 0, 0, 0
	for id := uint64(1); id <= n; id++ {
		if err := d.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		waitMaintenance(d)
		switch dead++; {
		case dead >= size:
			size, dead, drops = 0, 0, drops+1
		case dead*fanout >= size:
			size, dead, rewrites = size-dead, 0, rewrites+1
		}
		if gotSize, gotDead := onlySegment(t, d); gotSize != size || gotDead != dead {
			t.Fatalf("after deleting %d: segment of %d rows with %d dead, the dead-share rule leaves %d with %d", id, gotSize, gotDead, size, dead)
		}
		if evals := d.DeadEvals(); len(evals) > 0 && !reflect.DeepEqual(evals, map[uint64]int64{d.Segments()[0].ID: 0}) {
			t.Fatalf("no read ran, yet the debt is %v", evals)
		}
	}
	if d.DeadRewrites() != rewrites || d.DeadDrops() != drops || rewrites != 21 || drops != 1 {
		t.Fatalf("%d rewrites and %d drops; the dead-share rule makes %d and %d", d.DeadRewrites(), d.DeadDrops(), rewrites, drops)
	}
}

// TestDeadRentFollowerNeverRewrites reads a follower far past any rent, on
// the single-query path and through a dual-tree batch (the read that
// charges m·dead in one call): it charges nothing and rewrites
// nothing, so its manifest stays its leader's. Its own first write makes
// it a leader, and from then on its reads pay rent and buy the rewrite.
func TestDeadRentFollowerNeverRewrites(t *testing.T) {
	const n = 512
	leader, _ := rentEngine(t, n)
	defer leader.Close()
	for id := uint64(1); id <= 60; id++ { // 60·4 < 512: under the dead share
		if err := leader.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	follower, err := NewDynamic(Gaussian(1))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	replicaPull(t, leader, follower)
	epoch, segs := follower.Epoch(), follower.Segments()
	batch := make([][]float64, 64)
	for i := range batch {
		batch[i] = rentProbes[i%len(rentProbes)]
	}
	reads := 2 * segment.RowRewriteEvals * n / 60 // twice the rent of the segment
	for i := 0; i < reads; i++ {
		if _, err := follower.Aggregate(rentProbes[i%len(rentProbes)]); err != nil {
			t.Fatal(err)
		}
	}
	before := follower.DualTreeStats().DualBatches
	if _, err := follower.BatchApproximate(batch, 0.1, 2); err != nil {
		t.Fatal(err)
	}
	if got := follower.DualTreeStats().DualBatches - before; got != 1 {
		t.Fatalf("the follower's batch of %d took %d dual-tree batches, want 1", len(batch), got)
	}
	waitMaintenance(follower)
	if got := follower.DeadRewrites() + follower.DeadDrops(); got != 0 || follower.Epoch() != epoch || !reflect.DeepEqual(follower.Segments(), segs) {
		t.Fatalf("a follower's reads rebuilt its manifest: %d rewrites/drops, epoch %d -> %d, segments %v -> %v",
			got, epoch, follower.Epoch(), segs, follower.Segments())
	}
	if evals := follower.DeadEvals(); evals[segs[0].ID] != 0 {
		t.Fatalf("a follower charged rent %v", evals)
	}
	checkReplicaMirrored(t, leader, follower)

	// Promoted: its first write makes it a leader, and reads buy the rewrite.
	if err := follower.Delete(61); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reads && follower.DeadRewrites() == 0; i++ {
		if _, err := follower.Aggregate(rentProbes[i%len(rentProbes)]); err != nil {
			t.Fatal(err)
		}
		waitMaintenance(follower)
	}
	if follower.DeadRewrites() != 1 || follower.Tombstones() != 0 {
		t.Fatalf("after its first write the follower's reads bought %d rewrites, %d tombstones left", follower.DeadRewrites(), follower.Tombstones())
	}
}

// TestDeadRentChargesEveryRead pins the charge: a single query pays one
// evaluation per pending tombstone of each segment, and a batch of m
// queries m of them on either side of the cutover — query by query below
// it, through one dual-tree snapshot above it.
func TestDeadRentChargesEveryRead(t *testing.T) {
	const dead = 10
	d, _ := rentEngine(t, 512)
	defer d.Close()
	for id := uint64(1); id <= dead; id++ {
		if err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	id := d.Segments()[0].ID
	want := map[uint64]int64{id: 0}
	if got := d.DeadEvals(); !reflect.DeepEqual(got, want) {
		t.Fatalf("debt before any read %v", got)
	}
	if _, err := d.Threshold(rentProbes[0], 1); err != nil {
		t.Fatal(err)
	}
	want[id] = dead
	if got := d.DeadEvals(); !reflect.DeepEqual(got, want) {
		t.Fatalf("debt after one query %v, want %v", got, want)
	}
	for _, m := range []int{3, dualTreeMinBatch} {
		batch := make([][]float64, m)
		for i := range batch {
			batch[i] = rentProbes[i%len(rentProbes)]
		}
		before := d.DualTreeStats()
		if _, err := d.BatchApproximate(batch, 0.1, 2); err != nil {
			t.Fatal(err)
		}
		after := d.DualTreeStats()
		dual, seq := 0, 1
		if m >= dualTreeMinBatch {
			dual, seq = 1, 0
		}
		if after.DualBatches-before.DualBatches != dual || after.SequentialBatches-before.SequentialBatches != seq {
			t.Fatalf("a batch of %d took the wrong side of the cutover: %+v -> %+v", m, before, after)
		}
		want[id] += int64(m * dead)
		if got := d.DeadEvals(); !reflect.DeepEqual(got, want) {
			t.Fatalf("debt after a batch of %d %v, want %v", m, got, want)
		}
	}
}

// TestDeadRentConcurrentReaders deletes oldest first while reader
// goroutines query their own clones, so the rewrites reads buy start while
// other reads and deletes run (the race detector's case). At rest the
// engine is within policy and exact.
func TestDeadRentConcurrentReaders(t *testing.T) {
	n := 2048
	if testing.Short() {
		n = 512
	}
	d, live := rentEngine(t, n)
	defer d.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		c := d.Clone()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := rentProbes[(g+i)%len(rentProbes)]
				if _, err := c.Approximate(q, 0.05); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for id := uint64(1); id <= uint64(n*3/4); id++ {
		if err := d.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		delete(live, id)
	}
	close(stop)
	wg.Wait()
	waitMaintenance(d)
	checkStorageInvariants(t, d, true)
	if d.DeadRewrites() == 0 {
		t.Fatalf("%d deletes beside readers rewrote nothing", n*3/4)
	}
	q := rentProbes[0]
	var want float64
	for _, p := range live {
		want += Gaussian(2).Eval(q, p)
	}
	if got, err := d.Aggregate(q); err != nil || math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("Aggregate = %v, %v; exact %v", got, err, want)
	}
}
