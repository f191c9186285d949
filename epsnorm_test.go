package karl

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"karl/internal/scan"
	"karl/internal/vec"
)

// TestEpsNormCertified holds the normalized stop to its contract against an
// exact scan of the live rows: for every query LB ≤ F ≤ UB,
// (UB − LB)/2 ≤ eps_norm·W and |v − F| ≤ eps_norm·W, with W = Σ|w| at the
// query's instant — single queries, sequential batches and dual-tree
// batches, over Type I/II/III, on a static engine and on a mutable one that
// holds memtable rows, dead rows and decayed weights.
func TestEpsNormCertified(t *testing.T) {
	const (
		n    = 600
		dims = 3
	)
	rng := rand.New(rand.NewSource(61))
	queries := make([][]float64, 80)
	for i := range queries {
		queries[i] = []float64{rng.Float64() * 0.8, rng.Float64() * 0.8, rng.Float64() * 0.8}
	}
	for _, typ := range []string{"typeI", "typeII", "typeIII"} {
		pts := cloud(rng, n, dims)
		w := weightsFor(rng, typ, n)
		if w == nil {
			w = make([]float64, n)
			for i := range w {
				w[i] = 1
			}
		}
		t.Run(typ+"/static", func(t *testing.T) {
			eng, err := Build(pts, Gaussian(8), WithWeights(w))
			if err != nil {
				t.Fatal(err)
			}
			checkEpsNorm(t, eng, queries, pts, w)
		})
		t.Run(typ+"/mutable", func(t *testing.T) {
			const halfLife = time.Hour
			var now atomic.Int64
			now.Store(1_700_000_000_000_000_000)
			eng, err := NewDynamic(Gaussian(8), WithSealSize(64), WithAutoCompaction(false),
				WithDecayHalfLife(halfLife), withClock(func() int64 { return now.Load() }))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			stamp := make([]int64, n)
			for lo := 0; lo < n; lo += 50 {
				hi := min(lo+50, n)
				if _, err := eng.InsertBulk(pts[lo:hi], w[lo:hi]); err != nil {
					t.Fatal(err)
				}
				for i := lo; i < hi; i++ {
					stamp[i] = now.Load()
				}
				now.Add(int64(10 * time.Minute))
			}
			var livePts [][]float64
			var liveW []float64
			for i := range pts {
				if i%7 == 3 {
					if err := eng.Delete(uint64(i + 1)); err != nil {
						t.Fatal(err)
					}
					continue
				}
				age := float64(now.Load()-stamp[i]) / float64(halfLife)
				livePts, liveW = append(livePts, pts[i]), append(liveW, w[i]*math.Exp2(-age))
			}
			if st := eng.Status(); st.MemtableLen == 0 || st.Tombstones == 0 || len(st.Segments) < 2 {
				t.Fatalf("fixture: %d memtable rows, %d tombstones, %d segments", st.MemtableLen, st.Tombstones, len(st.Segments))
			}
			checkEpsNorm(t, eng, queries, livePts, liveW)
		})
	}
}

// checkEpsNorm holds eng to the normalized contract at three budgets: the
// first 16 queries one by one and as a sequential batch, all of them (≥ 64
// over ≥ 256 points) as a dual-tree batch.
func checkEpsNorm(t *testing.T, eng *Engine, queries, livePts [][]float64, liveW []float64) {
	t.Helper()
	sc, err := scan.NewScanner(vec.FromRows(livePts), liveW, eng.Kernel())
	if err != nil {
		t.Fatal(err)
	}
	var mass float64
	for _, wi := range liveW {
		mass += math.Abs(wi)
	}
	slack := 1e-9 * mass
	truth := make([]float64, len(queries))
	for i, q := range queries {
		truth[i] = sc.Aggregate(q)
	}
	for _, epsNorm := range []float64{0.01, 0.05, 0.2} {
		budget := epsNorm*mass + slack
		single := queries[:16]
		for i, q := range single {
			v, st, err := eng.ApproximateNormStats(q, epsNorm)
			if err != nil {
				t.Fatal(err)
			}
			f := truth[i]
			if st.LB > f+slack || f > st.UB+slack {
				t.Fatalf("eps_norm %v query %d: F = %v outside [%v, %v]", epsNorm, i, f, st.LB, st.UB)
			}
			if (st.UB-st.LB)/2 > budget {
				t.Fatalf("eps_norm %v query %d: half gap %v over the budget %v", epsNorm, i, (st.UB-st.LB)/2, budget)
			}
			if math.Abs(v-f) > budget {
				t.Fatalf("eps_norm %v query %d: |%v − %v| over the budget %v", epsNorm, i, v, f, budget)
			}
		}
		batch := func(what string, qs [][]float64, wantDual bool) {
			t.Helper()
			before := eng.DualTreeStats().DualBatches
			vs, _, err := eng.BatchApproximateNormStats(qs, epsNorm, 2)
			if err != nil {
				t.Fatal(err)
			}
			if dual := eng.DualTreeStats().DualBatches > before; dual != wantDual {
				t.Fatalf("%s batch: dual-tree %v, want %v", what, dual, wantDual)
			}
			for i, v := range vs {
				if math.Abs(v-truth[i]) > budget {
					t.Fatalf("eps_norm %v %s batch query %d: |%v − %v| over the budget %v", epsNorm, what, i, v, truth[i], budget)
				}
			}
		}
		batch("sequential", single, false)
		batch("dual", queries, true)
	}
}
