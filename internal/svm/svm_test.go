package svm

import (
	"math"
	"math/rand"
	"testing"

	"karl/internal/kernel"
	"karl/internal/vec"
)

// twoBlobs generates a separable-ish 2-class problem: class +1 around
// (+off,…), class −1 around (−off,…).
func twoBlobs(rng *rand.Rand, n, d int, off, noise float64) (*vec.Matrix, []float64) {
	x := vec.NewMatrix(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		y[i] = sign
		row := x.Row(i)
		for j := range row {
			row[j] = sign*off + rng.NormFloat64()*noise
		}
	}
	return x, y
}

func TestTrainTwoClassValidation(t *testing.T) {
	cfg := Config{Kernel: kernel.NewGaussian(1)}
	if _, err := TrainTwoClass(nil, nil, cfg); err == nil {
		t.Fatal("nil input accepted")
	}
	x := vec.FromRows([][]float64{{0}, {1}})
	if _, err := TrainTwoClass(x, []float64{1}, cfg); err == nil {
		t.Fatal("label count mismatch accepted")
	}
	if _, err := TrainTwoClass(x, []float64{1, 2}, cfg); err == nil {
		t.Fatal("non ±1 label accepted")
	}
	if _, err := TrainTwoClass(x, []float64{1, 1}, cfg); err == nil {
		t.Fatal("single-class input accepted")
	}
	bad := cfg
	bad.Kernel = kernel.NewGaussian(-1)
	if _, err := TrainTwoClass(x, []float64{1, -1}, bad); err == nil {
		t.Fatal("invalid kernel accepted")
	}
}

func TestTwoClassSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	x, y := twoBlobs(rng, 200, 4, 1.0, 0.3)
	m, err := TrainTwoClass(x, y, Config{Kernel: kernel.NewGaussian(0.5), C: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Training accuracy should be near-perfect on well-separated blobs.
	var correct int
	for i := 0; i < x.Rows; i++ {
		if float64(m.Predict(x.Row(i))) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(x.Rows); acc < 0.97 {
		t.Fatalf("training accuracy %v < 0.97", acc)
	}
	// Weights must mix signs (Type III) and every |w| ≤ C.
	var hasPos, hasNeg bool
	for _, w := range m.Weights {
		if w > 0 {
			hasPos = true
		}
		if w < 0 {
			hasNeg = true
		}
		if math.Abs(w) > 1+1e-9 {
			t.Fatalf("|w| = %v exceeds C", math.Abs(w))
		}
	}
	if !hasPos || !hasNeg {
		t.Fatal("2-class weights should have both signs")
	}
	// Dual feasibility: Σ w_i = Σ α_i·y_i = 0.
	var sum float64
	for _, w := range m.Weights {
		sum += w
	}
	if math.Abs(sum) > 1e-6 {
		t.Fatalf("Σ α·y = %v, want 0", sum)
	}
}

func TestTwoClassGeneralization(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	x, y := twoBlobs(rng, 300, 3, 1.2, 0.35)
	m, err := TrainTwoClass(x, y, Config{Kernel: kernel.NewGaussian(0.8), C: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh test points from the same distribution.
	xt, yt := twoBlobs(rng, 200, 3, 1.2, 0.35)
	var correct int
	for i := 0; i < xt.Rows; i++ {
		if float64(m.Predict(xt.Row(i))) == yt[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(xt.Rows); acc < 0.95 {
		t.Fatalf("test accuracy %v < 0.95", acc)
	}
}

func TestTwoClassXORNeedsKernel(t *testing.T) {
	// XOR is not linearly separable; the Gaussian kernel must solve it.
	x := vec.FromRows([][]float64{
		{0, 0}, {1, 1}, {0, 1}, {1, 0},
		{0.05, 0.05}, {0.95, 0.95}, {0.05, 0.95}, {0.95, 0.05},
	})
	y := []float64{1, 1, -1, -1, 1, 1, -1, -1}
	m, err := TrainTwoClass(x, y, Config{Kernel: kernel.NewGaussian(4), C: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows; i++ {
		if float64(m.Predict(x.Row(i))) != y[i] {
			t.Fatalf("XOR point %d misclassified", i)
		}
	}
}

func TestTwoClassPolynomialKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	x, y := twoBlobs(rng, 150, 3, 0.8, 0.25)
	// Normalize into [−1,1]³ as the paper does for polynomial kernels.
	x.NormalizeUnit(-1, 1)
	m, err := TrainTwoClass(x, y, Config{Kernel: kernel.NewPolynomial(1, 1, 3), C: 1})
	if err != nil {
		t.Fatal(err)
	}
	var correct int
	for i := 0; i < x.Rows; i++ {
		if float64(m.Predict(x.Row(i))) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(x.Rows); acc < 0.9 {
		t.Fatalf("poly-kernel training accuracy %v < 0.9", acc)
	}
}

func TestOneClassValidation(t *testing.T) {
	if _, err := TrainOneClass(nil, Config{Kernel: kernel.NewGaussian(1)}); err == nil {
		t.Fatal("nil input accepted")
	}
	x := vec.FromRows([][]float64{{0}})
	if _, err := TrainOneClass(x, Config{Kernel: kernel.NewGaussian(0)}); err == nil {
		t.Fatal("invalid kernel accepted")
	}
}

func TestOneClassProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	n, d := 300, 4
	x := vec.NewMatrix(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 0.2
	}
	nu := 0.1
	m, err := TrainOneClass(x, Config{Kernel: kernel.NewGaussian(1), Nu: nu})
	if err != nil {
		t.Fatal(err)
	}
	// Type II weighting: all positive, bounded by 1/(νn), summing to 1.
	var sum float64
	upper := 1 / (nu * float64(n))
	for _, w := range m.Weights {
		if w <= 0 {
			t.Fatalf("one-class weight %v not positive", w)
		}
		if w > upper+1e-9 {
			t.Fatalf("weight %v exceeds 1/(νn) = %v", w, upper)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Σα = %v, want 1", sum)
	}
	// ν controls the outlier fraction: roughly ≤ ν of training points
	// should fall outside (decision < 0), allowing slack for tolerance.
	var outliers int
	for i := 0; i < n; i++ {
		if m.Predict(x.Row(i)) < 0 {
			outliers++
		}
	}
	if frac := float64(outliers) / float64(n); frac > 2.5*nu+0.05 {
		t.Fatalf("outlier fraction %v far exceeds ν = %v", frac, nu)
	}
	// A point far outside the cloud must be rejected.
	far := make([]float64, d)
	for j := range far {
		far[j] = 10
	}
	if m.Predict(far) != -1 {
		t.Fatal("distant point accepted as inlier")
	}
}

func TestOneClassDetectsInliersVsOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	n, d := 400, 3
	x := vec.NewMatrix(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 0.1
	}
	m, err := TrainOneClass(x, Config{Kernel: kernel.NewGaussian(5), Nu: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var inlierOK, outlierOK int
	const trials = 100
	for i := 0; i < trials; i++ {
		in := []float64{rng.NormFloat64() * 0.05, rng.NormFloat64() * 0.05, rng.NormFloat64() * 0.05}
		out := []float64{2 + rng.Float64(), 2 + rng.Float64(), 2 + rng.Float64()}
		if m.Predict(in) == 1 {
			inlierOK++
		}
		if m.Predict(out) == -1 {
			outlierOK++
		}
	}
	if inlierOK < 85 || outlierOK < 99 {
		t.Fatalf("inlier acc %d/100, outlier acc %d/100", inlierOK, outlierOK)
	}
}

func TestDecisionThresholdEquivalence(t *testing.T) {
	// Predict must equal the TKAQ formulation: F(q) > ρ.
	rng := rand.New(rand.NewSource(96))
	x, y := twoBlobs(rng, 100, 2, 1, 0.4)
	m, err := TrainTwoClass(x, y, Config{Kernel: kernel.NewGaussian(1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		q := []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
		f := kernel.Aggregate(m.Kernel, q, m.SV, m.Weights)
		want := 1
		if f <= m.Rho {
			want = -1
		}
		if got := m.Predict(q); got != want {
			t.Fatalf("Predict = %d, TKAQ says %d", got, want)
		}
	}
}

func TestKernelCacheFullVsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	n, d := 60, 3
	x := vec.NewMatrix(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	k := kernel.NewGaussian(0.7)
	full := newKernelCache(x, k, 8)
	if full.full == nil {
		t.Fatal("small problem should use the full matrix")
	}
	// Force the row-cache path by constructing directly.
	rowCache := &kernelCache{kern: k, x: x, n: n, maxRows: 4}
	rowCache.rows = make(map[int][]float64, 4)
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(n)
		want := full.row(i)
		got := rowCache.row(i)
		for j := 0; j < n; j++ {
			if math.Abs(got[j]-want[j]) > 1e-12 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, got[j], want[j])
			}
		}
		if len(rowCache.rows) > 4 {
			t.Fatalf("cache grew to %d rows, cap 4", len(rowCache.rows))
		}
	}
}

func TestMaxIterCapRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	x, y := twoBlobs(rng, 100, 2, 0.1, 1.0) // heavily overlapping = slow convergence
	m, err := TrainTwoClass(x, y, Config{Kernel: kernel.NewGaussian(1), C: 100, MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iters > 5 {
		t.Fatalf("Iters = %d exceeds MaxIter 5", m.Iters)
	}
}
