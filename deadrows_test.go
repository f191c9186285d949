package karl

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"karl/internal/segment"
	"karl/internal/vec"
)

// waitMaintenance blocks until no seal or background compaction is in
// flight; because every finished rebuild re-plans before it releases the
// lock, a quiet engine is one whose manifest is within policy.
func waitMaintenance(d *Engine) {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for sh.compacting || sh.sealing != nil || sh.draining {
		sh.cond.Wait()
	}
}

// checkStorageInvariants asserts what the storage layer promises at rest:
// sequence numbers ascend within every segment and from each segment to
// the next (so Find's binary search and the replica fence tests are
// sound), every tombstone is attributed to the segment that stores its
// row, and — when compaction is on — no segment is left over the
// dead-share threshold.
func checkStorageInvariants(t *testing.T, d *Engine, wantWithinPolicy bool) {
	t.Helper()
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var last uint64
	for i, s := range sh.man.Segs {
		for j, seq := range s.Seqs {
			if seq <= last {
				t.Fatalf("segment %d (manifest position %d) row %d: seq %d does not ascend past %d", s.ID, i, j, seq, last)
			}
			last = seq
		}
		dead := s.Dead
		for j := 0; j < dead.Len(); j++ {
			if j > 0 && dead.Seqs[j] <= dead.Seqs[j-1] {
				t.Fatalf("segment %d: tombstones not ascending at %d", s.ID, j)
			}
			if s.Seqs == nil {
				continue
			}
			row, ok := s.Find(dead.Seqs[j])
			if !ok {
				t.Fatalf("segment %d holds a tombstone for seq %d but not its row", s.ID, dead.Seqs[j])
			}
			if got := s.Tree.Points.Row(row); !reflect.DeepEqual(got, dead.Row(j)) {
				t.Fatalf("segment %d tombstone %d shadows %v, row stores %v", s.ID, dead.Seqs[j], dead.Row(j), got)
			}
		}
		if wantWithinPolicy && (s.AllDead() || sh.policy.RewriteDue(s)) {
			t.Fatalf("segment %d at rest with %d of %d rows dead (threshold 1/%d)", s.ID, dead.Len(), s.Len(), sh.policy.Fanout)
		}
	}
	if sh.mem.len() > 0 && sh.mem.seq[0] <= last {
		t.Fatalf("memtable starts at seq %d, manifest ends at %d", sh.mem.seq[0], last)
	}
	if wantWithinPolicy && sh.policy.Plan(sh.man) != nil {
		t.Fatalf("manifest at rest but Plan = %v", sh.policy.Plan(sh.man))
	}
}

type mirrorPoint struct {
	p []float64
	w float64
}

// exactOver scans the mirror in ascending id order.
func exactOver(kern Kernel, live map[uint64]mirrorPoint, order []uint64, q []float64) float64 {
	var sum float64
	for _, id := range order {
		if mp, ok := live[id]; ok {
			sum += mp.w * kern.Eval(q, mp.p)
		}
	}
	return sum
}

// TestDeleteChurnProperty drives a dynamic engine with background
// compaction through sustained insert+delete churn — oldest-first deletes
// (the sliding-window shape that piles every tombstone on the oldest
// segment) and uniform-random deletes (which spread them over all) — and
// checks, every few steps, answers against an exact scan over a mirror of
// the live set plus the storage invariants: ascending sequence numbers,
// every live id still addressable, pending tombstones bounded by the
// dead-share rule and the segment count bounded by the tiering.
func TestDeleteChurnProperty(t *testing.T) {
	const (
		sealSize = 32
		fanout   = 4
		initial  = 900
		chunk    = 8
		eps      = 0.05
	)
	steps, every := 1500, 25
	if testing.Short() {
		steps = 400
	}
	kern := Gaussian(3)
	for _, mode := range []string{"fifo", "random"} {
		t.Run(mode, func(t *testing.T) {
			d, err := NewDynamic(kern, WithIndex(KDTree, 8), WithSealSize(sealSize), WithCompactionFanout(fanout))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			rng := rand.New(rand.NewSource(20260928))
			live := map[uint64]mirrorPoint{}
			var order []uint64 // every id ever inserted, ascending; live filters it
			var fifo []uint64  // live ids, oldest first
			insert := func(n int) {
				for i := 0; i < n; i++ {
					p := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
					w := 0.25 + rng.Float64()
					id, err := d.InsertID(p, w)
					if err != nil {
						t.Fatalf("insert: %v", err)
					}
					live[id] = mirrorPoint{p, w}
					order = append(order, id)
					fifo = append(fifo, id)
				}
			}
			remove := func(n int) {
				for i := 0; i < n && len(fifo) > 0; i++ {
					at := 0
					if mode == "random" {
						at = rng.Intn(len(fifo))
					}
					id := fifo[at]
					fifo = append(fifo[:at], fifo[at+1:]...)
					if err := d.Delete(id); err != nil {
						t.Fatalf("live id %d is not deletable: %v", id, err)
					}
					delete(live, id)
				}
			}
			insert(initial)
			maxSegs := 0
			for step := 1; step <= steps; step++ {
				insert(chunk)
				remove(chunk)
				if step%every != 0 {
					continue
				}
				waitMaintenance(d)
				checkStorageInvariants(t, d, true)
				if d.Len() != len(live) {
					t.Fatalf("step %d: Len = %d, mirror holds %d", step, d.Len(), len(live))
				}
				// Every live id is still addressable: in the memtable or
				// findable, and not dead, in exactly one segment.
				sh := d.sh
				sh.mu.Lock()
				for id := range live {
					_, found := sh.mem.find(id)
					for _, s := range sh.man.Segs {
						if _, ok := s.Find(id); ok {
							if found || s.Dead.Has(id) {
								sh.mu.Unlock()
								t.Fatalf("step %d: live id %d is stored twice or marked dead", step, id)
							}
							found = true
						}
					}
					if !found {
						sh.mu.Unlock()
						t.Fatalf("step %d: live id %d is no longer addressable", step, id)
					}
				}
				stored, segs := sh.man.Len(), len(sh.man.Segs)
				sh.mu.Unlock()

				// Each segment at rest has dead·Fanout < Len, so over all
				// segments dead < stored/Fanout, i.e. dead < live/(Fanout−1);
				// the issue's looser form allows one seal per segment on top.
				tombs := d.Tombstones()
				if tombs*fanout >= stored && tombs > 0 {
					t.Fatalf("step %d: %d tombstones over %d stored rows breaks the 1/%d dead share", step, tombs, stored, fanout)
				}
				if limit := len(live)/fanout + sealSize*segs; tombs > limit {
					t.Fatalf("step %d: %d pending tombstones, limit %d", step, tombs, limit)
				}
				// At rest every level holds fewer than Fanout segments and
				// there is at most one level per tier.
				if limit := (fanout - 1) * (segment.Policy{SealSize: sealSize, Fanout: fanout}.Tier(stored) + 1); segs > limit {
					t.Fatalf("step %d: %d segments for %d stored rows, limit %d", step, segs, stored, limit)
				}
				if segs > maxSegs {
					maxSegs = segs
				}

				for k := 0; k < 3; k++ {
					q := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
					want := exactOver(kern, live, order, q)
					got, err := d.Aggregate(q)
					if err != nil {
						t.Fatalf("step %d: Aggregate: %v", step, err)
					}
					if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
						t.Fatalf("step %d: Aggregate = %v, exact scan = %v", step, got, want)
					}
					approx, err := d.Approximate(q, eps)
					if err != nil {
						t.Fatalf("step %d: Approximate: %v", step, err)
					}
					if math.Abs(approx-want) > eps*math.Abs(want)+1e-9 {
						t.Fatalf("step %d: Approximate = %v, outside eps=%v of %v", step, approx, eps, want)
					}
					for _, tau := range []float64{0.7 * want, 1.3 * want} {
						over, err := d.Threshold(q, tau)
						if err != nil {
							t.Fatalf("step %d: Threshold: %v", step, err)
						}
						if over != (want > tau) {
							t.Fatalf("step %d: Threshold(tau=%v) = %v, exact total %v", step, tau, over, want)
						}
					}
				}
			}
			if d.DeadRewrites()+d.DeadDrops() == 0 {
				t.Fatalf("churn finished without a single dead-row rewrite or drop")
			}
			t.Logf("%s: %d seals, %d compactions (%d dead-share rewrites), %d dead drops, peak %d segments, %d tombstones pending",
				mode, d.Seals(), d.Compactions(), d.DeadRewrites(), d.DeadDrops(), maxSegs, d.Tombstones())
		})
	}
}

// TestDeleteOnlyReclaimsSpace is the no-insert case: with nothing sealing
// new segments, deletes alone must still trigger the rewrites and drops
// that reclaim space — no Compact() call anywhere.
func TestDeleteOnlyReclaimsSpace(t *testing.T) {
	d, err := NewDynamic(Gaussian(2), WithIndex(KDTree, 8), WithSealSize(64))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(77))
	const n = 64 * 20
	ids := make([]uint64, n)
	pts := make([][]float64, n)
	for i := range ids {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
		if ids[i], err = d.InsertID(pts[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	waitMaintenance(d)
	stored := func() int {
		rows := 0
		for _, s := range d.Segments() {
			rows += s.Len
		}
		return rows
	}
	before := stored()
	if before != n {
		t.Fatalf("stored %d rows after %d inserts", before, n)
	}
	compactionsBefore := d.Compactions()

	// Delete a random 60 %: every segment crosses the 1/4 dead share.
	perm := rng.Perm(n)
	cut := n * 6 / 10
	for _, i := range perm[:cut] {
		if err := d.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitMaintenance(d)
	checkStorageInvariants(t, d, true)
	if got := stored(); got >= before*3/5 {
		t.Fatalf("stored rows %d -> %d after deleting %d: nothing was reclaimed", before, got, cut)
	}
	if d.DeadRewrites() == 0 || d.Compactions() == compactionsBefore {
		t.Fatalf("deletes alone triggered no rewrite (%d rewrites, compactions %d -> %d)", d.DeadRewrites(), compactionsBefore, d.Compactions())
	}
	var want float64
	q := []float64{0.4, 0.6}
	for _, i := range perm[cut:] {
		want += Gaussian(2).Eval(q, pts[i])
	}
	if got, err := d.Aggregate(q); err != nil || math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("Aggregate = %v, %v; exact %v", got, err, want)
	}

	// Delete the rest: the last segments leave the manifest without a
	// rebuild and nothing is left pending.
	for _, i := range perm[cut:] {
		if err := d.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitMaintenance(d)
	if d.Len() != 0 || stored() != 0 || d.Tombstones() != 0 {
		t.Fatalf("after deleting everything: Len %d, %d stored rows, %d tombstones", d.Len(), stored(), d.Tombstones())
	}
	if d.DeadDrops() == 0 {
		t.Fatalf("fully dead segments were rebuilt instead of dropped")
	}
}

// TestDeleteBitwiseRepeatable pins the summation order of the tombstone
// base term: the same query on a quiescent engine with pending tombstones
// returns bit-identical values and identical work statistics. (Tombstones
// used to be summed in Go-map iteration order.) TestBaseVisitorsBitwise
// holds the batch block's base terms to the single query's.
func TestDeleteBitwiseRepeatable(t *testing.T) {
	d, err := NewDynamic(Gaussian(1.5), WithIndex(KDTree, 8), WithSealSize(64),
		WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	var ids []uint64
	for i := 0; i < 64*6+20; i++ {
		id, err := d.InsertID([]float64{rng.NormFloat64(), rng.NormFloat64()}, 0.1+rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, i := range rng.Perm(64 * 6)[:150] {
		if err := d.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if d.Tombstones() != 150 || len(d.Segments()) != 6 {
		t.Fatalf("setup: %d tombstones over %d segments", d.Tombstones(), len(d.Segments()))
	}
	queries := make([][]float64, 16)
	for i := range queries {
		queries[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	for _, q := range queries {
		exact, err := d.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		a0, as0, err := d.ApproximateStats(q, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		h0, hs0, err := d.ThresholdStats(q, exact)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 8; rep++ {
			e, _ := d.Aggregate(q)
			a, as, _ := d.ApproximateStats(q, 0.01)
			h, hs, _ := d.ThresholdStats(q, exact)
			if math.Float64bits(e) != math.Float64bits(exact) || math.Float64bits(a) != math.Float64bits(a0) || h != h0 {
				t.Fatalf("repeat %d differs: aggregate %x vs %x, approximate %x vs %x, threshold %v vs %v",
					rep, math.Float64bits(e), math.Float64bits(exact), math.Float64bits(a), math.Float64bits(a0), h, h0)
			}
			if as != as0 || hs != hs0 {
				t.Fatalf("repeat %d did different work: approximate %+v vs %+v, threshold %+v vs %+v", rep, as, as0, hs, hs0)
			}
		}
	}
}

// TestBaseVisitorsBitwise holds the engine walk's two visitors to one
// answer: on plain, TTL and decayed engines holding memtable rows and
// pending tombstones on several segments, the base term a dual-tree batch
// scans off its copied block is, for every query, the single query's
// snapshot base bit for bit.
func TestBaseVisitorsBitwise(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"ttl", []Option{WithTTL(time.Hour)}},
		{"decayed", []Option{WithDecayHalfLife(time.Minute)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now, frozen := int64(1e15), false
			clock := func() int64 {
				if !frozen {
					now += int64(time.Second)
				}
				return now
			}
			d, err := NewDynamic(Gaussian(1.5), append([]Option{WithIndex(KDTree, 8), WithSealSize(64),
				WithAutoCompaction(false), withClock(clock)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			rng := rand.New(rand.NewSource(32))
			var ids []uint64
			for i := 0; i < 64*4+40; i++ {
				id, err := d.InsertID([]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}, 0.1+rng.Float64())
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			waitMaintenance(d)
			for _, i := range rng.Perm(64 * 4)[:70] {
				if err := d.Delete(ids[i]); err != nil {
					t.Fatal(err)
				}
			}
			if d.MemtableLen() == 0 || d.Tombstones() != 70 || len(d.Segments()) < 2 {
				t.Fatalf("setup: %d memtable rows, %d tombstones, %d segments", d.MemtableLen(), d.Tombstones(), len(d.Segments()))
			}
			queries := make([][]float64, 12)
			for i := range queries {
				queries[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			}
			frozen = true // both visitors decay to one instant
			b, err := d.batchSnapshot(3, len(queries))
			if err != nil {
				t.Fatal(err)
			}
			bases := b.bases(vec.FromRows(queries))
			for i, q := range queries {
				_, base, scanned, err := d.snapshot(q)
				if err != nil {
					t.Fatal(err)
				}
				if scanned != len(b.ws) {
					t.Fatalf("query %d: the snapshot scanned %d rows, the block holds %d", i, scanned, len(b.ws))
				}
				if math.Float64bits(base) != math.Float64bits(bases[i]) {
					t.Fatalf("query %d: block base %x (%v), snapshot base %x (%v)", i,
						math.Float64bits(bases[i]), bases[i], math.Float64bits(base), base)
				}
			}
		})
	}
}

// TestDeadAttributionPersistRoundTrip writes an engine whose tombstones
// sit on several segments (some already rewritten once) and reloads it:
// every segment block stores its own dead rows, so each segment must come
// back with exactly the set it was written with, answers must match
// bitwise, and the reloaded engine must keep compacting on them. A block
// carrying a dead row of another segment is refused when it is read.
func TestDeadAttributionPersistRoundTrip(t *testing.T) {
	d, err := NewDynamic(Gaussian(2), WithIndex(KDTree, 8), WithSealSize(32))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(12))
	var ids []uint64
	for i := 0; i < 32*14+9; i++ {
		id, err := d.InsertID([]float64{rng.Float64(), rng.Float64(), rng.Float64()}, 0.5+rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	waitMaintenance(d)
	// Enough deletes to force rewrites, then a few more that stay pending.
	perm := rng.Perm(len(ids))
	gone := len(ids) / 3
	for _, i := range perm[:gone] {
		if err := d.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitMaintenance(d)
	for ; d.Tombstones() < 6; gone++ {
		if err := d.Delete(ids[perm[gone]]); err != nil {
			t.Fatal(err)
		}
	}
	waitMaintenance(d)
	if d.DeadRewrites() == 0 || d.Tombstones() == 0 {
		t.Fatalf("setup wants rewrites done and tombstones pending, got %d rewrites, %d tombstones", d.DeadRewrites(), d.Tombstones())
	}
	checkStorageInvariants(t, d, true)

	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkStorageInvariants(t, r, true)
	if !reflect.DeepEqual(d.Segments(), r.Segments()) {
		t.Fatalf("per-segment dead counts changed across the round trip:\n wrote %+v\n  read %+v", d.Segments(), r.Segments())
	}
	if d.Tombstones() != r.Tombstones() || d.Len() != r.Len() {
		t.Fatalf("tombstones %d -> %d, len %d -> %d", d.Tombstones(), r.Tombstones(), d.Len(), r.Len())
	}
	for k := 0; k < 8; k++ {
		q := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		want, _ := d.Approximate(q, 0.02)
		got, err := r.Approximate(q, 0.02)
		if err != nil || math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("reloaded Approximate = %v, %v; original %v", got, err, want)
		}
	}
	segs := d.sh.man.Segs
	if len(segs) < 2 || segs[0].Dead.Len() == 0 {
		t.Fatalf("setup wants two segments, the first with dead rows: %+v", d.Segments())
	}
	if _, err := readSegmentStream(segmentStream(segs[1], segs[0].Dead)); err == nil || !strings.Contains(err.Error(), "is not a row of segment") {
		t.Fatalf("segment block with another segment's dead rows: error %v", err)
	}
	// The reloaded engine still reclaims: delete the rest.
	for _, i := range perm[gone:] {
		if err := r.Delete(ids[i]); err != nil {
			t.Fatalf("reloaded engine: live id %d not deletable: %v", ids[i], err)
		}
	}
	waitMaintenance(r)
	if r.Len() != 0 || r.Tombstones() != 0 || len(r.Segments()) != 0 {
		t.Fatalf("reloaded engine after deleting everything: len %d, %d tombstones, %d segments", r.Len(), r.Tombstones(), len(r.Segments()))
	}

	// A tombstone that shadows no stored row is corruption, not mass.
	bad, err := NewDynamic(Gaussian(2), WithSealSize(4), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := bad.Insert([]float64{float64(i), 0, 0}, 1); err != nil {
			t.Fatal(err)
		}
	}
	bad.sh.man.Segs[0].Dead = &segment.Dead{}
	bad.sh.man.Segs[0].Dead.Add(7, 1, 0, []float64{6, 0, 0}) // row of the OTHER segment, then dropped below
	bad.sh.man = &segment.Manifest{Epoch: 9, Segs: bad.sh.man.Segs[:1]}
	buf.Reset()
	if _, err := bad.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEngine(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatalf("loaded a stream whose tombstone shadows no stored row")
	}
}

// TestReplicaFollowerUnderLeaderRewrites keeps a follower pulling while
// the leader churns hard enough to rewrite and drop segments between
// pulls. Every pull must leave the follower a mirror — the rewritten
// segments arrive whole, the untouched ones are elided, the dropped ones
// go — with its tombstones attributed to the segments that store their
// rows, and without the follower compacting anything itself.
func TestReplicaFollowerUnderLeaderRewrites(t *testing.T) {
	mk := func() *Engine {
		d, err := NewDynamic(Gaussian(1.5), WithIndex(KDTree, 8), WithSealSize(32))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	leader, follower := mk(), mk()
	defer leader.Close()
	defer follower.Close()
	rng := rand.New(rand.NewSource(1313))
	var live []uint64
	insert := func(n int) {
		live = append(live, replicaLoad(t, leader, rng, n)...)
	}
	insert(500)
	waitMaintenance(leader)
	replicaPull(t, leader, follower)
	for round := 0; round < 60; round++ {
		insert(5 + rng.Intn(40))
		// Alternate oldest-first and random deletes.
		for k := 0; k < 5+rng.Intn(40) && len(live) > 0; k++ {
			at := 0
			if round%2 == 1 {
				at = rng.Intn(len(live))
			}
			if err := leader.Delete(live[at]); err != nil {
				t.Fatalf("round %d: leader delete %d: %v", round, live[at], err)
			}
			live = append(live[:at], live[at+1:]...)
		}
		waitMaintenance(leader) // the mirror check needs the leader at rest
		replicaPull(t, leader, follower)
		checkStorageInvariants(t, follower, true)
		checkReplicaMirrored(t, leader, follower)
	}
	if leader.DeadRewrites() == 0 {
		t.Fatalf("leader never rewrote a segment: the test exercised nothing")
	}
	if got := follower.DeadRewrites() + follower.DeadDrops(); got != 0 {
		t.Fatalf("follower ran %d compactions of its own: it mirrors, it does not maintain", got)
	}
	// Every id the leader still holds is addressable on the follower.
	for _, id := range live {
		if err := follower.Delete(id); err != nil {
			t.Fatalf("follower cannot address live id %d: %v", id, err)
		}
	}
}
