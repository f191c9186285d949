package karl

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"karl/internal/dualtree"
)

func TestBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := cloud(rng, 800, 3)
	eng, err := Build(pts, Gaussian(4))
	if err != nil {
		t.Fatal(err)
	}
	queries := cloud(rng, 50, 3)
	exact, err := eng.BatchAggregate(queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4} {
		got, err := eng.BatchAggregate(queries, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != exact[i] {
				t.Fatalf("workers=%d query %d: %v vs %v", workers, i, got[i], exact[i])
			}
		}
		th, err := eng.BatchThreshold(queries, exact[0], workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range th {
			if want := exact[i] > exact[0]; th[i] != want && math.Abs(exact[i]-exact[0]) > 1e-9 {
				t.Fatalf("workers=%d query %d: threshold %v want %v", workers, i, th[i], want)
			}
		}
		ap, err := eng.BatchApproximate(queries, 0.1, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ap {
			if exact[i] == 0 {
				continue
			}
			if rel := math.Abs(ap[i]-exact[i]) / exact[i]; rel > 0.1+1e-9 {
				t.Fatalf("workers=%d query %d: rel error %v", workers, i, rel)
			}
		}
	}
}

func TestBatchEmptyAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pts := cloud(rng, 50, 2)
	eng, _ := Build(pts, Gaussian(1))
	if out, err := eng.BatchThreshold(nil, 1, 4); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v %v", out, err)
	}
	// A dimension mismatch inside the batch surfaces as an error.
	bad := [][]float64{{0.1, 0.2}, {0.1}}
	if _, err := eng.BatchAggregate(bad, 2); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := eng.BatchApproximate(bad, 0.1, 1); err == nil {
		t.Fatal("bad query accepted sequentially")
	}
}

// TestBatchWorkerError pins the first-error-aborts contract: an invalid
// query in the middle of a batch surfaces as an error naming that index,
// for every worker-count regime.
func TestBatchWorkerError(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pts := cloud(rng, 200, 2)
	eng, err := Build(pts, Gaussian(2))
	if err != nil {
		t.Fatal(err)
	}
	queries := cloud(rng, 40, 2)
	queries[17] = []float64{0.5} // dimension mismatch mid-batch
	for _, workers := range []int{1, 4, 64} {
		if _, err := eng.BatchAggregate(queries, workers); err == nil {
			t.Fatalf("workers=%d: bad query accepted", workers)
		} else if !strings.Contains(err.Error(), "query 17") {
			t.Fatalf("workers=%d: error does not name the failing index: %v", workers, err)
		}
		if _, err := eng.BatchThreshold(queries, 1, workers); err == nil {
			t.Fatalf("workers=%d: threshold bad query accepted", workers)
		}
		if _, err := eng.BatchApproximate(queries, 0.1, workers); err == nil {
			t.Fatalf("workers=%d: approximate bad query accepted", workers)
		}
	}
}

// TestBatchWorkerClamping checks that workers ≤ 0 (GOMAXPROCS fallback)
// and workers > len(queries) (clamped to the batch size) both complete
// with results identical to the sequential path.
func TestBatchWorkerClamping(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	pts := cloud(rng, 150, 2)
	eng, err := Build(pts, Gaussian(2))
	if err != nil {
		t.Fatal(err)
	}
	queries := cloud(rng, 5, 2)
	want, err := eng.BatchAggregate(queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, -2, 100} {
		got, err := eng.BatchAggregate(queries, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(queries) {
			t.Fatalf("workers=%d: %d results for %d queries", workers, len(got), len(queries))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d query %d: %v want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestBatchStatsAccumulate checks the summed work statistics of the
// Stats-returning batch variants.
func TestBatchStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pts := cloud(rng, 300, 2)
	eng, err := Build(pts, Gaussian(2))
	if err != nil {
		t.Fatal(err)
	}
	queries := cloud(rng, 6, 2)
	_, st, err := eng.BatchAggregateStats(queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(queries) * eng.Len(); st.PointsScanned != want {
		t.Fatalf("aggregate batch scanned %d points, want %d", st.PointsScanned, want)
	}
	_, st, err = eng.BatchApproximateStats(queries, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations+st.PointsScanned == 0 {
		t.Fatalf("approximate batch reports no work: %+v", st)
	}
	if st.LB != 0 || st.UB != 0 {
		t.Fatalf("summed stats must leave per-query LB/UB zero: %+v", st)
	}
	// A tau equal to one query's exact value forces real refinement (a
	// far-off tau can be decided at the root with zero iterations).
	exact0, err := eng.Aggregate(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	_, st, err = eng.BatchThresholdStats(queries, exact0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations+st.PointsScanned == 0 {
		t.Fatalf("threshold batch reports no work: %+v", st)
	}
}

func TestRegressionRecoversFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 3000
	pts := make([][]float64, n)
	targets := make([]float64, n)
	for i := range pts {
		x := rng.Float64() * math.Pi
		pts[i] = []float64{x}
		targets[i] = math.Sin(2*x) + rng.NormFloat64()*0.05
	}
	r, err := NewRegression(pts, targets, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.4, 1.1, 2.0, 2.7} {
		approx, err := r.Predict([]float64{x}, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := r.PredictExact([]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-math.Sin(2*x)) > 0.12 {
			t.Fatalf("exact prediction at %v = %v, want ≈ %v", x, exact, math.Sin(2*x))
		}
		// The eKAQ-served prediction tracks the exact ratio within ~2ε.
		if math.Abs(approx-exact) > 0.15*(1+math.Abs(exact)) {
			t.Fatalf("approx %v far from exact %v at %v", approx, exact, x)
		}
	}
}

func TestRegressionValidation(t *testing.T) {
	if _, err := NewRegression(nil, nil, 1); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := NewRegression([][]float64{{1}}, []float64{1, 2}, 1); err == nil {
		t.Fatal("target mismatch accepted")
	}
	if _, err := NewRegression([][]float64{{1}, {2}}, []float64{1, 2}, -5); err == nil {
		t.Fatal("bad gamma accepted")
	}
}

func TestRegressionFarQueryPrior(t *testing.T) {
	r, err := NewRegression([][]float64{{0}, {1}}, []float64{2, 4}, 1e8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Predict([]float64{1e6}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("far prediction %v, want prior 3", got)
	}
}

func TestMultiSVM(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	centers := [][]float64{{0, 0}, {3, 0}, {0, 3}, {3, 3}}
	n := 400
	pts := make([][]float64, n)
	labels := make([]int, n)
	for i := range pts {
		c := i % 4
		labels[i] = 100 - c*10 // descending, non-contiguous labels
		pts[i] = []float64{
			centers[c][0] + rng.NormFloat64()*0.3,
			centers[c][1] + rng.NormFloat64()*0.3,
		}
	}
	mm, err := TrainMultiClassSVM(pts, labels, SVMConfig{Kernel: Gaussian(1), C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(mm.Classes) != 4 {
		t.Fatalf("classes = %v", mm.Classes)
	}
	for i := 1; i < len(mm.Classes); i++ {
		if mm.Classes[i] < mm.Classes[i-1] {
			t.Fatalf("classes not sorted: %v", mm.Classes)
		}
	}
	var correct int
	for i := range pts {
		got, err := mm.Predict(pts[i])
		if err != nil {
			t.Fatal(err)
		}
		if got == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.96 {
		t.Fatalf("training accuracy %v", acc)
	}
}

func TestMultiSVMValidation(t *testing.T) {
	if _, err := TrainMultiClassSVM(nil, nil, SVMConfig{}); err == nil {
		t.Fatal("empty accepted")
	}
	pts := [][]float64{{0}, {1}}
	if _, err := TrainMultiClassSVM(pts, []int{1}, SVMConfig{}); err == nil {
		t.Fatal("label mismatch accepted")
	}
	if _, err := TrainMultiClassSVM(pts, []int{1, 1}, SVMConfig{}); err == nil {
		t.Fatal("single class accepted")
	}
}

func TestPairIdxUnique(t *testing.T) {
	for k := 2; k <= 7; k++ {
		seen := map[int]bool{}
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				idx := pairIdx(a, b, k)
				if idx < 0 || idx >= k*(k-1)/2 || seen[idx] {
					t.Fatalf("k=%d (%d,%d) → %d invalid or duplicate", k, a, b, idx)
				}
				seen[idx] = true
			}
		}
	}
}

// TestFanOutCapsWorkers: a batch's worker count is caller input (a
// /v1/batch body names it), so fanOut starts at most GOMAXPROCS workers
// however many are asked for, and they still answer every query.
func TestFanOutCapsWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	workers := procs + 8
	n := 4 * workers
	var opened, answered atomic.Int64
	_, err := fanOut(n, workers, 1, func() (chunkFunc, error) {
		opened.Add(1)
		return func(lo, hi int) (dualtree.Stats, error) {
			answered.Add(int64(hi - lo))
			return dualtree.Stats{}, nil
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := opened.Load(); got > int64(procs) {
		t.Fatalf("asked for %d workers: %d started, GOMAXPROCS is %d", workers, got, procs)
	}
	if got := answered.Load(); got != int64(n) {
		t.Fatalf("%d of %d queries answered", got, n)
	}
}
