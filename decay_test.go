package karl

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// decayRelDiff is the relative-difference helper for the decay suite.
// The lazy path composes Exp2 factors (insert→seal, seal→compaction,
// compaction→query) where the eager reference uses a single factor, so
// answers agree only up to a few ulps per composition — 1e-9 relative
// is orders of magnitude above that and still far below any behavioral
// difference.
func decayRelDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}

// TestDecayLazyRescaleMatchesEagerReweight is the decay property test:
// the engine never rewrites stored weights on the query path — it folds
// one 2^(−Δt/halfLife) scalar per segment into the traversal lazily —
// yet every answer must equal the eager reference that reweights each
// live point individually:
//
//	F(q, T) = Σ_live w_i · 2^(−(T−t_i)/halfLife) · K(q, p_i)
//
// The test drives a fake clock through inserts, deletes, seals, long
// idle stretches (where only the lazy scalars change — no mutation, no
// rebuild), and an explicit compaction (which rebases stored weights to
// a new epoch), checking the identity at every stage. Deletes are mixed
// in deliberately: tombstone mass must decay on exactly the same
// schedule as the live mass it cancels.
func TestDecayLazyRescaleMatchesEagerReweight(t *testing.T) {
	const (
		n   = 240
		dim = 3
	)
	halfLife := time.Hour
	rng := rand.New(rand.NewSource(99))
	var now atomic.Int64
	now.Store(1_700_000_000_000_000_000)

	d, err := NewDynamic(Gaussian(2.5),
		WithDecayHalfLife(halfLife),
		WithSealSize(32),
		WithCompactionFanout(2),
		withClock(func() int64 { return now.Load() }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	type row struct {
		p    []float64
		w    float64
		t    int64
		id   uint64
		dead bool
	}
	rows := make([]row, 0, n)
	kern := Gaussian(2.5)
	queries := [][]float64{
		{0.3, 0.3, 0.3},
		{0.8, 0.1, 0.5},
		{-0.2, 0.6, 0.9},
	}

	eager := func(q []float64) float64 {
		T := now.Load()
		sum := 0.0
		for _, r := range rows {
			if r.dead {
				continue
			}
			sum += r.w * math.Exp2(-float64(T-r.t)/float64(halfLife)) * kern.Eval(q, r.p)
		}
		return sum
	}
	check := func(stage string) {
		t.Helper()
		for _, q := range queries {
			got, err := d.Aggregate(q)
			if err != nil {
				t.Fatalf("%s: Aggregate: %v", stage, err)
			}
			want := eager(q)
			if rel := decayRelDiff(got, want); rel > 1e-9 {
				t.Fatalf("%s: Aggregate(%v) = %.15g, eager reweight = %.15g (rel %.3g)",
					stage, q, got, want, rel)
			}
		}
	}

	for i := 0; i < n; i++ {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		w := 0.1 + rng.Float64()
		// Irregular arrival times: seconds to minutes apart, so segments
		// sealed at different instants carry genuinely different scalars.
		now.Add(int64(time.Second) * int64(1+rng.Intn(180)))
		id, err := d.InsertID(p, w)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{p: p, w: w, t: now.Load(), id: id})

		if i > 20 && i%7 == 3 {
			j := rng.Intn(len(rows))
			if !rows[j].dead {
				if err := d.Delete(rows[j].id); err != nil {
					t.Fatal(err)
				}
				rows[j].dead = true
			}
		}
		if i%60 == 59 {
			check(fmt.Sprintf("mid-stream after %d inserts", i+1))
		}
	}
	check("after all inserts")

	// Idle decay: the clock moves seven half-lives with no mutation at
	// all. Nothing seals, nothing rebuilds — only the per-segment lazy
	// scalars installed at query time can account for the change.
	now.Add(int64(7 * time.Hour))
	check("after 7h idle")

	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := d.Status().Tombstones; got != 0 {
		t.Fatalf("tombstones after compaction = %d, want 0", got)
	}
	check("after compaction")

	// Compaction rebased every surviving weight to the compaction epoch;
	// further idle decay must still match the eager reference.
	now.Add(int64(3 * time.Hour))
	check("after compaction + 3h idle")
}

// TestTTLExpiryWithFakeClock pins the sliding-window contract: points
// older than the TTL are expired lazily — dropped when their rows pass
// through a seal or a compaction — and Compact forces the window exact.
// After compaction the engine must be indistinguishable from one that
// only ever held the still-live batch.
func TestTTLExpiryWithFakeClock(t *testing.T) {
	const dim = 2
	rng := rand.New(rand.NewSource(4))
	var now atomic.Int64
	now.Store(1_700_000_000_000_000_000)

	d, err := NewDynamic(Gaussian(3),
		WithTTL(time.Hour),
		WithSealSize(64),
		withClock(func() int64 { return now.Load() }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	kern := Gaussian(3)
	insert := func(k int) [][]float64 {
		batch := make([][]float64, k)
		for i := range batch {
			p := []float64{rng.Float64(), rng.Float64()}
			if err := d.Insert(p, 1); err != nil {
				t.Fatal(err)
			}
			batch[i] = p
		}
		return batch
	}

	insert(90) // batch A at t0
	now.Add(int64(30 * time.Minute))
	liveBatch := insert(70) // batch B at t0+30m
	if got := d.Len(); got != 160 {
		t.Fatalf("Len before expiry = %d, want 160", got)
	}

	// t0+75m: batch A is beyond the 1h window, batch B is 45m old.
	// Expiry is lazy, so nothing changes until a seal or compaction
	// touches the rows; Compact forces the window exact.
	now.Add(int64(45 * time.Minute))
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := d.Len(); got != len(liveBatch) {
		t.Fatalf("Len after expiring compaction = %d, want %d", got, len(liveBatch))
	}
	q := []float64{0.4, 0.6}
	got, err := d.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, p := range liveBatch {
		want += kern.Eval(q, p)
	}
	if rel := decayRelDiff(got, want); rel > 1e-9 {
		t.Fatalf("post-expiry Aggregate = %.15g, sum over live batch = %.15g (rel %.3g)",
			got, want, rel)
	}

	// Another hour and the second batch expires too: the window slides
	// to empty and compaction reclaims every row.
	now.Add(int64(time.Hour))
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := d.Len(); got != 0 {
		t.Fatalf("Len after full expiry = %d, want 0", got)
	}
	if got := len(d.Status().Segments); got != 0 {
		t.Fatalf("segments after full expiry = %d, want 0", got)
	}
}

// TestTTLExpiryAtSeal pins the other half of the lazy-expiry contract:
// a seal (not just an explicit compaction) drops expired memtable rows
// instead of freezing them into the new segment.
func TestTTLExpiryAtSeal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var now atomic.Int64
	now.Store(1_700_000_000_000_000_000)

	d, err := NewDynamic(Gaussian(3),
		WithTTL(time.Hour),
		WithSealSize(64),
		withClock(func() int64 { return now.Load() }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// 40 stale rows sit in the memtable (below the seal threshold), age
	// past the TTL, then 64 fresh inserts push the memtable over the
	// threshold. The seal must carry only unexpired rows forward.
	stale := make([][]float64, 40)
	for i := range stale {
		p := []float64{rng.Float64(), rng.Float64()}
		if err := d.Insert(p, 1); err != nil {
			t.Fatal(err)
		}
		stale[i] = p
	}
	now.Add(int64(2 * time.Hour))
	for i := 0; i < 64; i++ {
		if err := d.Insert([]float64{rng.Float64(), rng.Float64()}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if d.Status().Seals == 0 {
		t.Fatal("expected at least one seal after crossing the threshold")
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := d.Len(); got != 64 {
		t.Fatalf("Len after seal+compaction = %d, want 64 (stale rows must not survive)", got)
	}
}

// TestDecayedQuerySteadyStateZeroAlloc extends the zero-alloc hot-path
// gate to decayed queries: installing the per-segment lazy scalars every
// query (the clock has moved, so they are always recomputed) must reuse
// the engine's scratch — steady-state Aggregate stays allocation-free
// even with a half-life configured.
func TestDecayedQuerySteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var now atomic.Int64
	now.Store(1_700_000_000_000_000_000)

	d, err := NewDynamic(Gaussian(2),
		WithDecayHalfLife(time.Hour),
		WithSealSize(128),
		withClock(func() int64 { return now.Load() }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 300; i++ {
		now.Add(int64(time.Second))
		if err := d.Insert([]float64{rng.Float64(), rng.Float64()}, 0.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}

	q := []float64{0.5, 0.5}
	for i := 0; i < 50; i++ { // warm the traversal scratch
		now.Add(int64(time.Millisecond))
		if _, err := d.Aggregate(q); err != nil {
			t.Fatal(err)
		}
	}
	var aggErr error
	allocs := testing.AllocsPerRun(100, func() {
		now.Add(int64(time.Millisecond)) // force fresh scalars each run
		if _, err := d.Aggregate(q); err != nil {
			aggErr = err
		}
	})
	if aggErr != nil {
		t.Fatal(aggErr)
	}
	if allocs != 0 {
		t.Fatalf("steady-state decayed Aggregate allocates %v objects/op, want 0", allocs)
	}
}

// TestBuildStampsBulkLoadedRows: rows bulk-loaded by Build on a timed
// engine age from the build instant — one half-life later they weigh half,
// and past the TTL a Compact drops them while rows streamed in since stay.
func TestBuildStampsBulkLoadedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	var now atomic.Int64
	now.Store(1_700_000_000_000_000_000)
	eng, err := Build(cloud(rng, 200, 2), Gaussian(3),
		WithDecayHalfLife(time.Hour), WithTTL(3*time.Hour),
		withClock(func() int64 { return now.Load() }))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := []float64{0.4, 0.4}
	fresh, err := eng.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	now.Add(int64(time.Hour))
	aged, err := eng.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	if decayRelDiff(aged, fresh/2) > 1e-9 {
		t.Fatalf("one half-life after Build the aggregate is %v, want half of %v", aged, fresh)
	}
	now.Add(int64(150 * time.Minute))
	if err := eng.Insert(q, 1); err != nil {
		t.Fatal(err)
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if eng.Len() != 1 {
		t.Fatalf("past the TTL a Compact left %d points, want only the streamed one", eng.Len())
	}
}
