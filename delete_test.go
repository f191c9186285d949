package karl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDeleteMetamorphicGate is the PR's acceptance gate for deletes:
// across every index kind, weighting type, and kernel, an engine that
// inserted a stream and then deleted a third of it must be equivalent to
// an engine that never saw the deleted points — within floating-point
// reordering tolerance while tombstones are live (their mass is
// subtracted exactly from both refinement bounds), and BITWISE once a
// full compaction has physically dropped the dead rows (the merge
// restores surviving rows to insertion order, so both histories build
// the identical tree).
func TestDeleteMetamorphicGate(t *testing.T) {
	kinds := []IndexKind{KDTree, BallTree}
	kernels := map[string]func() Kernel{
		"gaussian":     func() Kernel { return Gaussian(4) },
		"epanechnikov": func() Kernel { return Epanechnikov(2) },
		"quartic":      func() Kernel { return Quartic(2) },
	}
	weightTypes := []string{"typeI", "typeII", "typeIII"}
	const n = 300

	for _, kind := range kinds {
		for kname, mk := range kernels {
			for _, wt := range weightTypes {
				name := map[IndexKind]string{KDTree: "kd", BallTree: "ball"}[kind] +
					"/" + kname + "/" + wt
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(name))*37 + 11))
					pts := cloud(rng, n, 2)
					ws := weightsFor(rng, wt, n)
					weightAt := func(i int) float64 {
						if ws == nil {
							return 1
						}
						return ws[i]
					}
					victim := func(i int) bool { return i%3 == 1 }

					build := func() *Engine {
						d, err := NewDynamic(mk(), WithIndex(kind, 16),
							WithSealSize(64), WithCompactionFanout(2))
						if err != nil {
							t.Fatal(err)
						}
						return d
					}

					// History A: insert everything, then delete the victims
					// (sealed ones become tombstones, memtable ones vanish
					// physically).
					a := build()
					ids := make([]uint64, n)
					for i, p := range pts {
						id, err := a.InsertID(p, weightAt(i))
						if err != nil {
							t.Fatal(err)
						}
						ids[i] = id
					}
					deleted := 0
					for i := range pts {
						if victim(i) {
							if err := a.Delete(ids[i]); err != nil {
								t.Fatal(err)
							}
							deleted++
						}
					}

					// History B: the victims were never inserted.
					b := build()
					for i, p := range pts {
						if victim(i) {
							continue
						}
						if err := b.Insert(p, weightAt(i)); err != nil {
							t.Fatal(err)
						}
					}
					if a.Len() != b.Len() {
						t.Fatalf("Len %d after deletes, want %d", a.Len(), b.Len())
					}
					if a.Deletes() != deleted {
						t.Fatalf("Deletes() = %d, want %d", a.Deletes(), deleted)
					}

					queries := cloud(rng, 20, 2)

					// Live equivalence: tombstone mass is subtracted exactly,
					// so the two histories agree to floating-point reordering.
					for _, q := range queries {
						want, err := b.Aggregate(q)
						if err != nil {
							t.Fatal(err)
						}
						got, err := a.Aggregate(q)
						if err != nil {
							t.Fatal(err)
						}
						if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
							t.Fatalf("live Aggregate %v, never-inserted %v", got, want)
						}
						if math.Abs(want) > 1e-6 {
							approx, err := a.Approximate(q, 0.1)
							if err != nil {
								t.Fatal(err)
							}
							if math.Abs(approx-want) > 0.1*math.Abs(want)+1e-9 {
								t.Fatalf("live Approximate %v, want %v ± 10%%", approx, want)
							}
						}
					}

					// Post-compaction: dead rows are physically gone and the
					// survivors rebuild in insertion order — bitwise equal to
					// the never-inserted history however its manifest looked.
					if err := a.Compact(); err != nil {
						t.Fatal(err)
					}
					if err := b.Compact(); err != nil {
						t.Fatal(err)
					}
					if a.Tombstones() != 0 {
						t.Fatalf("%d tombstones survived a full compaction", a.Tombstones())
					}
					apos, aneg := a.WeightMass()
					bpos, bneg := b.WeightMass()
					if apos != bpos || aneg != bneg {
						t.Fatalf("weight mass (%v,%v) want (%v,%v)", apos, aneg, bpos, bneg)
					}
					for _, q := range queries {
						want, _ := b.Aggregate(q)
						got, err := a.Aggregate(q)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("post-Compact Aggregate %v not bitwise-equal to never-inserted %v", got, want)
						}
					}
				})
			}
		}
	}
}

// TestDeleteErrors pins the failure modes: unknown IDs, double deletes,
// and deletes on a closed engine all fail cleanly, and ErrPointNotFound
// is detectable with errors.Is.
func TestDeleteErrors(t *testing.T) {
	d, err := NewDynamic(Gaussian(2), WithSealSize(8), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ids := make([]uint64, 20)
	for i := range ids {
		id, err := d.InsertID([]float64{rng.Float64(), rng.Float64()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	if err := d.Delete(0); !errors.Is(err, ErrPointNotFound) {
		t.Fatalf("Delete(0) = %v, want ErrPointNotFound", err)
	}
	if err := d.Delete(ids[19] + 1); !errors.Is(err, ErrPointNotFound) {
		t.Fatalf("Delete(beyond nextSeq) = %v, want ErrPointNotFound", err)
	}

	// Double delete of a sealed point (tombstoned) and a memtable point
	// (physically removed).
	for _, id := range []uint64{ids[0], ids[19]} {
		if err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := d.Delete(id); !errors.Is(err, ErrPointNotFound) {
			t.Fatalf("double Delete(%d) = %v, want ErrPointNotFound", id, err)
		}
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(ids[1]); err == nil {
		t.Fatal("Delete on closed engine succeeded")
	}
}

// TestDeleteEverythingThenCompact drives the 100%-tombstoned edge case:
// with every point deleted the engine still answers (aggregate ~ 0, the
// exact tombstone algebra cancels the index mass), and a full compaction
// produces an EMPTY manifest rather than a zero-point segment. The
// engine must remain usable for new inserts afterwards.
func TestDeleteEverythingThenCompact(t *testing.T) {
	d, err := NewDynamic(Gaussian(2), WithSealSize(16), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const n = 50
	ids := make([]uint64, n)
	for i := range ids {
		id, err := d.InsertID([]float64{rng.Float64(), rng.Float64()}, 1+rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		if err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", d.Len())
	}

	// All mass is tombstoned but rows still exist physically: queries
	// answer ~0 instead of erroring.
	q := []float64{0.5, 0.5}
	v, err := d.Aggregate(q)
	if err != nil {
		t.Fatalf("query on fully-tombstoned engine: %v", err)
	}
	if math.Abs(v) > 1e-9 {
		t.Fatalf("fully-deleted aggregate = %v, want ~0", v)
	}
	pos, neg := d.WeightMass()
	if math.Abs(pos) > 1e-9 || math.Abs(neg) > 1e-9 {
		t.Fatalf("weight mass (%v,%v) after deleting everything", pos, neg)
	}

	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if segs := d.Segments(); len(segs) != 0 {
		t.Fatalf("compaction of fully-tombstoned manifest left %d segments", len(segs))
	}
	if d.Tombstones() != 0 {
		t.Fatalf("%d tombstones survived", d.Tombstones())
	}
	// Physically empty now: queries error like a fresh engine.
	if _, err := d.Aggregate(q); err == nil {
		t.Fatal("query on physically empty engine succeeded")
	}

	// And the engine accepts new points.
	if err := d.Insert([]float64{0.3, 0.3}, 2); err != nil {
		t.Fatal(err)
	}
	v, err = d.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * Gaussian(2).Eval(q, []float64{0.3, 0.3})
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("aggregate after refill = %v, want %v", v, want)
	}
}

// TestInsertBulkAllOrNothing is the regression test for the
// partial-batch state leak: a bulk insert with an invalid point anywhere
// in the batch must validate BEFORE mutating the rotating buffer, so the
// valid prefix does not land.
func TestInsertBulkAllOrNothing(t *testing.T) {
	d, err := NewDynamic(Gaussian(1), WithSealSize(8))
	if err != nil {
		t.Fatal(err)
	}
	good := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	if ids, err := d.InsertBulk(good, nil); err != nil || len(ids) != 3 {
		t.Fatalf("valid bulk: ids %v err %v", ids, err)
	}

	for name, batch := range map[string]struct {
		pts [][]float64
		ws  []float64
	}{
		"NaN mid-batch":        {pts: [][]float64{{7, 8}, {math.NaN(), 1}, {9, 10}}},
		"Inf mid-batch":        {pts: [][]float64{{7, 8}, {math.Inf(1), 1}}},
		"dims change mid-way":  {pts: [][]float64{{7, 8}, {1}}},
		"bad weight mid-batch": {pts: [][]float64{{7, 8}, {9, 10}}, ws: []float64{1, math.NaN()}},
		"weight count":         {pts: [][]float64{{7, 8}, {9, 10}}, ws: []float64{1}},
	} {
		before := d.Len()
		ids, err := d.InsertBulk(batch.pts, batch.ws)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if ids != nil {
			t.Fatalf("%s: returned ids %v with error", name, ids)
		}
		if got := d.Len(); got != before {
			t.Fatalf("%s: leaked %d points into the memtable", name, got-before)
		}
	}

	// IDs keep ascending contiguously after rejected batches — nothing
	// consumed sequence numbers.
	ids, err := d.InsertBulk([][]float64{{11, 12}}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 4 {
		t.Fatalf("next id = %d, want 4 (rejected batches must not burn ids)", ids[0])
	}
}

// TestConcurrentInsertDeleteQueryOracle stress-tests the full mutable
// path under -race: one writer interleaves inserts and deletes while
// reader goroutines aggregate concurrently. Every observed value must
// match (to refinement tolerance) the exact oracle value of SOME state
// the engine passed through during the read — queries serve from an
// atomic manifest snapshot, so a torn read that mixes two states is a
// bug even when each half is individually plausible.
func TestConcurrentInsertDeleteQueryOracle(t *testing.T) {
	const (
		ops     = 1500
		readers = 4
	)
	d, err := NewDynamic(Gaussian(8), WithSealSize(64))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	kern := Gaussian(8)
	q := []float64{0.4, 0.6}

	// oracle[i] is the exact F(q) after the first i write operations.
	// Two counters bracket each op: started is bumped BEFORE the engine
	// mutation (op i may now be visible to readers), applied AFTER its
	// oracle entry is written (oracle[i] may now be read). A reader's
	// observation window is [applied-before-read, started-after-read] —
	// using applied on both ends would let an insert land in the engine
	// an instant before its oracle entry publishes, making the reader
	// reject a perfectly consistent state.
	// The slice is full-length from the start: the writer stores elements
	// and publishes them through applied, never touching the slice header
	// the readers index through.
	oracle := make([]float64, ops+1)
	var started, applied atomic.Int64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(17))
		type livePoint struct {
			id uint64
			v  float64
		}
		var live []livePoint
		f := 0.0
		for i := 0; i < ops; i++ {
			started.Store(int64(i + 1))
			if i%4 == 3 && len(live) > 1 {
				j := rng.Intn(len(live))
				if err := d.Delete(live[j].id); err != nil {
					errc <- err
					return
				}
				f -= live[j].v
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				p := []float64{rng.Float64(), rng.Float64()}
				w := 0.5 + rng.Float64()
				id, err := d.InsertID(p, w)
				if err != nil {
					errc <- err
					return
				}
				v := w * kern.Eval(q, p)
				live = append(live, livePoint{id, v})
				f += v
			}
			oracle[i+1] = f
			applied.Store(int64(i + 1))
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Clones are the concurrency unit for queries: they share the
			// dataset, manifest and tombstones but own refinement scratch
			// (the server pool works the same way).
			c := d.Clone()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := applied.Load()
				got, err := c.Aggregate(q)
				if err != nil {
					// Only acceptable before anything landed.
					if lo == 0 {
						continue
					}
					errc <- err
					return
				}
				hi := started.Load()
				// oracle[hi] may not be written yet; wait for the writer to
				// publish it. If the writer bailed out mid-op (stop closed
				// with applied stuck below hi), its last oracle entry will
				// never arrive — cap the window at what was published.
				for applied.Load() < hi {
					select {
					case <-stop:
						if a := applied.Load(); a < hi {
							hi = a
						}
					default:
						runtime.Gosched()
					}
				}
				ok := false
				best := math.Inf(1)
				for i := lo; i <= hi; i++ {
					diff := math.Abs(got - oracle[i])
					if diff < best {
						best = diff
					}
					if diff <= 1e-6*(1+math.Abs(oracle[i])) {
						ok = true
						break
					}
				}
				if !ok {
					errc <- fmt.Errorf("observed %v matches no state in window [%d,%d] (closest off by %v)",
						got, lo, hi, best)
					return
				}
			}
		}()
	}

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestSealRacingClose drives the seal/Close race under -race: inserts
// that trigger seals while another goroutine closes the engine must not
// panic or deadlock — inserts either land before the close or fail with
// the closed-engine error.
func TestSealRacingClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		d, err := NewDynamic(Gaussian(2), WithSealSize(16))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				view := d.Clone() // query scratch is per clone, never shared
				<-start
				for i := 0; i < 200; i++ {
					p := []float64{rng.Float64(), rng.Float64()}
					if err := d.Insert(p, 1); err != nil {
						return // closed under us: expected
					}
					if i%8 == 3 {
						_, _ = view.Aggregate(p)
					}
				}
			}(int64(round*10 + w))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := d.Close(); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
		if err := d.Insert([]float64{0, 0}, 1); err == nil {
			t.Fatal("insert after close succeeded")
		}
	}
}

// TestNoStopTheWorldDeletes is the latency acceptance gate: a sustained
// insert+delete workload must not degrade query p99 beyond 3× an
// insert-free baseline on the same dataset shape — deletes are memtable
// row removals or O(1) tombstones plus an exact per-tombstone
// subtraction at query time, never an index rebuild.
func TestNoStopTheWorldDeletes(t *testing.T) {
	if testing.Short() {
		t.Skip("latency gate skipped in -short")
	}
	const (
		seedN   = 4000
		churn   = 2000
		queries = 4000
	)
	rng := rand.New(rand.NewSource(23))
	mkPoint := func() []float64 {
		return []float64{rng.NormFloat64()*0.2 + 0.5, rng.NormFloat64()*0.2 + 0.5}
	}
	q := []float64{0.5, 0.5}

	// Baseline: frozen engine, queries only.
	base, err := NewDynamic(Gaussian(10), WithSealSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	for i := 0; i < seedN; i++ {
		if err := base.Insert(mkPoint(), 1); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(d *Engine, churning bool) time.Duration {
		ids := make([]uint64, 0, churn)
		lat := make([]time.Duration, 0, queries)
		for i := 0; i < queries; i++ {
			if churning && i%2 == 0 {
				id, err := d.InsertID(mkPoint(), 1)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
				if len(ids) > 8 {
					victim := ids[0]
					ids = ids[1:]
					if err := d.Delete(victim); err != nil {
						t.Fatal(err)
					}
				}
			}
			t0 := time.Now()
			if _, err := d.Approximate(q, 0.1); err != nil {
				t.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)*99/100]
	}
	// Warm both paths once to stabilize clone/alloc effects.
	measure(base, false)
	baseP99 := measure(base, false)

	work, err := NewDynamic(Gaussian(10), WithSealSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer work.Close()
	for i := 0; i < seedN; i++ {
		if err := work.Insert(mkPoint(), 1); err != nil {
			t.Fatal(err)
		}
	}
	measure(work, true)
	workP99 := measure(work, true)

	if workP99 > 3*baseP99 {
		t.Fatalf("insert+delete workload query p99 %v exceeds 3× insert-free baseline %v", workP99, baseP99)
	}
	t.Logf("query p99: baseline %v, under churn %v (%.2fx)", baseP99, workP99,
		float64(workP99)/float64(baseP99))
}
