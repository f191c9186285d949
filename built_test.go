package karl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"karl/internal/scan"
	"karl/internal/vec"
)

// TestBuiltEngineTakesSingleSegmentLoop: a built engine, and the same engine
// loaded from its file, are a manifest of one
// sealed segment with nothing buffered, so every Threshold and Approximate
// runs the forest's single-segment loop.
func TestBuiltEngineTakesSingleSegmentLoop(t *testing.T) {
	loaded, err := ReadEngine(bytes.NewReader(readFixture(t, "built.bin")))
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range map[string]*Engine{"built": goldenStaticEngine(t), "loaded": loaded} {
		if len(eng.Segments()) != 1 || eng.MemtableLen() != 0 {
			t.Fatalf("%s: %d segments, %d buffered rows, want 1 and 0", name, len(eng.Segments()), eng.MemtableLen())
		}
		rng := rand.New(rand.NewSource(71))
		const calls = 40
		for i := 0; i < calls; i++ {
			q := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			if i%2 == 0 {
				_, err = eng.Threshold(q, 20)
			} else {
				_, err = eng.Approximate(q, 0.1)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := eng.FastPathQueries(); got != calls {
			t.Fatalf("%s: %d of %d queries took the single-segment loop", name, got, calls)
		}
	}
}

// TestBuiltEngineZeroAlloc: the steady-state query path of a built engine
// allocates nothing — the snapshot under the lock, the epoch check and the
// single-segment loop included.
func TestBuiltEngineZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	eng, err := Build(cloud(rng, 2000, 3), Gaussian(4))
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.4, 0.5, 0.3}
	exact, err := eng.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	for name, query := range map[string]func(){
		"ThresholdStats":   func() { _, _, err = eng.ThresholdStats(q, exact*1.01) },
		"ApproximateStats": func() { _, _, err = eng.ApproximateStats(q, 0.05) },
		"AggregateStats":   func() { _, _, err = eng.AggregateStats(q) },
	} {
		query() // arm the forest
		if allocs := testing.AllocsPerRun(50, query); allocs != 0 || err != nil {
			t.Errorf("%s: %v allocs/op (err %v), want 0", name, allocs, err)
		}
	}
}

// TestBulkLoadThenStream: Build numbers its rows 1..n in input order, and
// the built engine then takes inserts and deletes like any other — answers
// stay within ε/τ of the exact scan over the edited set.
func TestBulkLoadThenStream(t *testing.T) {
	for _, typ := range []string{"typeI", "typeIII"} {
		rng := rand.New(rand.NewSource(73))
		pts := cloud(rng, 700, 3)
		w := weightsFor(rng, typ, len(pts))
		const built = 600
		var opts []Option
		if w != nil {
			opts = append(opts, WithWeights(w[:built]))
		} else {
			w = make([]float64, len(pts))
			for i := range w {
				w[i] = 1
			}
		}
		eng, err := Build(pts[:built], Gaussian(6), opts...)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := eng.InsertBulk(pts[built:], w[built:])
		if err != nil {
			t.Fatal(err)
		}
		if ids[0] != built+1 {
			t.Fatalf("%s: first streamed id %d, want %d (built rows hold 1..%d)", typ, ids[0], built+1, built)
		}
		// Built id k is input row k−1; streamed id ids[j] is row built+j.
		dead := map[int]bool{0: true, 17: true, built - 1: true, built + 5: true}
		for row := range dead {
			if err := eng.Delete(uint64(row + 1)); err != nil {
				t.Fatalf("%s: deleting id %d: %v", typ, row+1, err)
			}
		}
		var livePts [][]float64
		var liveW []float64
		for i := range pts {
			if !dead[i] {
				livePts, liveW = append(livePts, pts[i]), append(liveW, w[i])
			}
		}
		sc, err := scan.NewScanner(vec.FromRows(livePts), liveW, eng.Kernel())
		if err != nil {
			t.Fatal(err)
		}
		if eng.Len() != len(livePts) {
			t.Fatalf("%s: Len %d, want %d", typ, eng.Len(), len(livePts))
		}
		for i := 0; i < 30; i++ {
			q := []float64{rng.Float64() * 0.8, rng.Float64() * 0.8, rng.Float64() * 0.8}
			exact := sc.Aggregate(q)
			got, err := eng.Aggregate(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-exact) > 1e-9*(1+math.Abs(exact)) {
				t.Fatalf("%s: Aggregate %v, exact scan %v", typ, got, exact)
			}
			const eps = 0.1
			approx, err := eng.Approximate(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(approx-exact) > eps*math.Abs(exact)+1e-9 {
				t.Fatalf("%s: Approximate %v not within %v of %v", typ, approx, eps, exact)
			}
			for _, tau := range []float64{exact - 0.05*math.Abs(exact) - 1e-6, exact + 0.05*math.Abs(exact) + 1e-6} {
				over, err := eng.Threshold(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				if over != (exact > tau) {
					t.Fatalf("%s: Threshold(τ=%v) = %v with F = %v", typ, tau, over, exact)
				}
			}
		}
	}
}

// TestSketchAndShardReadLiveRows: Sketch and Shard over an engine holding
// buffered rows and tombstones see exactly its live rows — the same derived
// engines as the same call on a fresh Build of those rows.
func TestSketchAndShardReadLiveRows(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	pts := cloud(rng, 1500, 2)
	w := weightsFor(rng, "typeII", len(pts))
	const built = 1400
	dirty, err := Build(pts[:built], Gaussian(8), WithWeights(w[:built]), WithIndex(BallTree, 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dirty.InsertBulk(pts[built:], w[built:]); err != nil {
		t.Fatal(err)
	}
	dead := map[int]bool{3: true, 400: true, 1399: true, 1450: true}
	for row := range dead {
		if err := dirty.Delete(uint64(row + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if dirty.MemtableLen() == 0 || dirty.Tombstones() == 0 {
		t.Fatalf("fixture: %d buffered rows, %d tombstones; want some of each", dirty.MemtableLen(), dirty.Tombstones())
	}
	var livePts [][]float64
	var liveW []float64
	for i := range pts {
		if !dead[i] {
			livePts, liveW = append(livePts, pts[i]), append(liveW, w[i])
		}
	}
	fresh, err := Build(livePts, Gaussian(8), WithWeights(liveW), WithIndex(BallTree, 20))
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers := func(what string, a, b *Engine) {
		t.Helper()
		if a.Len() != b.Len() {
			t.Fatalf("%s: %d points vs %d", what, a.Len(), b.Len())
		}
		for i := 0; i < 20; i++ {
			q := []float64{rng.Float64() * 0.8, rng.Float64() * 0.8}
			va, err := a.Aggregate(q)
			if err != nil {
				t.Fatal(err)
			}
			vb, err := b.Aggregate(q)
			if err != nil {
				t.Fatal(err)
			}
			if va != vb {
				t.Fatalf("%s: Aggregate %v vs %v", what, va, vb)
			}
		}
	}

	skDirty, err := dirty.Sketch(0.1, WithCoresetSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	skFresh, err := fresh.Sketch(0.1, WithCoresetSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	infoDirty, _ := skDirty.SketchInfo()
	infoFresh, _ := skFresh.SketchInfo()
	if infoDirty != infoFresh || infoDirty.SourceLen != len(livePts) || infoDirty.Len >= len(livePts) {
		t.Fatalf("sketch provenance %+v vs %+v over %d live rows", infoDirty, infoFresh, len(livePts))
	}
	sameAnswers("sketch", skDirty, skFresh)

	shDirty, err := dirty.Shard(3, KDPartition)
	if err != nil {
		t.Fatal(err)
	}
	shFresh, err := fresh.Shard(3, KDPartition)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shDirty {
		dp, dn := shDirty[i].WeightMass()
		fp, fn := shFresh[i].WeightMass()
		if shDirty[i].Len() != shFresh[i].Len() || dp != fp || dn != fn {
			t.Fatalf("shard %d: %d points W⁺=%v W⁻=%v vs %d points W⁺=%v W⁻=%v",
				i, shDirty[i].Len(), dp, dn, shFresh[i].Len(), fp, fn)
		}
		sameAnswers("shard", shDirty[i], shFresh[i])
	}
	// The source is untouched: its buffered rows and tombstones are still
	// pending.
	if dirty.MemtableLen() == 0 || dirty.Tombstones() == 0 {
		t.Fatal("Sketch/Shard compacted the engine they read")
	}
	empty, err := NewDynamic(Gaussian(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Sketch(0.1); err == nil {
		t.Fatal("Sketch of an empty engine succeeded")
	}
}
