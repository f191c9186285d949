package karl

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// cloud generates n clustered points in [0,1]^d.
func cloud(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		base := float64(i%3) * 0.3
		for j := range pts[i] {
			pts[i][j] = base + rng.Float64()*0.2
		}
	}
	return pts
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Gaussian(1)); err == nil {
		t.Fatal("empty points accepted")
	}
	pts := [][]float64{{0, 0}, {1, 1}}
	if _, err := Build(pts, Gaussian(-1)); err == nil {
		t.Fatal("bad kernel accepted")
	}
	if _, err := Build(pts, Gaussian(1), WithIndex(KDTree, 0)); err == nil {
		t.Fatal("leafCap 0 accepted")
	}
	if _, err := Build(pts, Gaussian(1), WithIndex(IndexKind(9), 10)); err == nil {
		t.Fatal("unknown index kind accepted")
	}
	if _, err := Build(pts, Gaussian(1), WithWeights([]float64{1})); err == nil {
		t.Fatal("weight mismatch accepted")
	}
}

// TestBuildRefusesWhatInsertRefuses: every row or weight InsertBulk refuses —
// NaN or ±Inf coordinates and weights, ragged rows, rows of no width — Build
// refuses too, with an error naming the row rather than a panic or an engine
// whose answers are NaN.
func TestBuildRefusesWhatInsertRefuses(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	ok := [][]float64{{0, 0}, {1, 1}, {0.5, 0.25}}
	cases := []struct {
		name string
		pts  [][]float64
		w    []float64
		row  string
	}{
		{"NaN weight", ok, []float64{1, nan, 1}, "point 1"},
		{"NaN weight beside a negative one", ok, []float64{nan, 1, -1}, "point 0"},
		{"+Inf weight", ok, []float64{1, 1, inf}, "point 2"},
		{"-Inf weight", ok, []float64{-inf, 1, 1}, "point 0"},
		{"NaN coordinate", [][]float64{{0, 0}, {nan, 1}}, nil, "point 1"},
		{"+Inf coordinate", [][]float64{{0, inf}, {1, 1}}, nil, "point 0"},
		{"-Inf coordinate", [][]float64{{0, 0}, {1, 1}, {-inf, 0}}, []float64{1, 2, 3}, "point 2"},
		{"ragged rows", [][]float64{{0, 0}, {1, 1, 1}, {2, 2}}, nil, "point 1"},
		{"zero-width rows", [][]float64{{}, {}}, nil, "point 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Build panicked: %v", r)
				}
			}()
			if _, err := Build(c.pts, Gaussian(1), WithWeights(c.w)); err == nil || !strings.Contains(err.Error(), c.row) {
				t.Fatalf("Build error %v, want one naming %s", err, c.row)
			}
			d, err := NewDynamic(Gaussian(1))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if _, err := d.InsertBulk(c.pts, c.w); err == nil || !strings.Contains(err.Error(), c.row) {
				t.Fatalf("InsertBulk error %v, want one naming %s", err, c.row)
			}
		})
	}
}

func TestEngineBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := cloud(rng, 500, 4)
	eng, err := Build(pts, Gaussian(3))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Len() != 500 || eng.Dims() != 4 {
		t.Fatalf("Len/Dims = %d/%d", eng.Len(), eng.Dims())
	}
	q := []float64{0.3, 0.3, 0.3, 0.3}
	exact, err := eng.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	if exact <= 0 {
		t.Fatalf("Aggregate = %v", exact)
	}
	over, err := eng.Threshold(q, exact*0.9)
	if err != nil || !over {
		t.Fatalf("Threshold below exact: %v %v", over, err)
	}
	under, err := eng.Threshold(q, exact*1.1)
	if err != nil || under {
		t.Fatalf("Threshold above exact: %v %v", under, err)
	}
	approx, err := eng.Approximate(q, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(approx-exact) / exact; rel > 0.1 {
		t.Fatalf("Approximate rel error %v", rel)
	}
}

func TestEngineStatsVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := cloud(rng, 300, 3)
	eng, _ := Build(pts, Gaussian(5))
	q := []float64{0.3, 0.3, 0.3}
	exact, _ := eng.Aggregate(q)
	_, st, err := eng.ThresholdStats(q, exact)
	if err != nil {
		t.Fatal(err)
	}
	if st.UB < st.LB {
		t.Fatal("stats bounds inverted")
	}
	v, st2, err := eng.ApproximateStats(q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if v < st2.LB-1e-9 || v > st2.UB+1e-9 {
		t.Fatal("approximate value outside its own bounds")
	}
}

func TestAllKernelsAndIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := cloud(rng, 200, 3)
	w := make([]float64, len(pts))
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	kernels := []Kernel{Gaussian(2), Polynomial(0.5, 1, 3), Sigmoid(0.5, 0), Epanechnikov(2), Quartic(2)}
	for _, kern := range kernels {
		for _, kind := range []IndexKind{KDTree, BallTree} {
			eng, err := Build(pts, kern, WithWeights(w), WithIndex(kind, 16))
			if err != nil {
				t.Fatal(err)
			}
			q := []float64{0.4, 0.4, 0.4}
			exact, err := eng.Aggregate(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Threshold(q, exact-0.01)
			if err != nil || !got {
				t.Fatalf("%v/%v: threshold failed: %v %v", kern.Kind, kind, got, err)
			}
		}
	}
}

func TestMethodOption(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := cloud(rng, 2000, 4)
	q := []float64{0.35, 0.35, 0.35, 0.35}
	karlEng, _ := Build(pts, Gaussian(8), WithMethod(MethodKARL))
	sotaEng, _ := Build(pts, Gaussian(8), WithMethod(MethodSOTA))
	exact, _ := karlEng.Aggregate(q)
	tau := exact * 1.05
	_, ks, _ := karlEng.ThresholdStats(q, tau)
	okSOTA, ss, _ := sotaEng.ThresholdStats(q, tau)
	okKARL, _, _ := karlEng.ThresholdStats(q, tau)
	if okKARL != okSOTA {
		t.Fatal("methods disagree on the answer")
	}
	if ks.Iterations > ss.Iterations {
		t.Fatalf("KARL iterations %d exceed SOTA %d", ks.Iterations, ss.Iterations)
	}
}

func TestClone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := cloud(rng, 100, 2)
	eng, _ := Build(pts, Gaussian(2))
	c := eng.Clone()
	q := []float64{0.3, 0.3}
	a, _ := eng.Aggregate(q)
	b, _ := c.Aggregate(q)
	if a != b {
		t.Fatal("clone disagrees")
	}
}

func TestKDEAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := cloud(rng, 800, 2)
	k, err := NewKDE(pts)
	if err != nil {
		t.Fatal(err)
	}
	if k.Gamma() <= 0 {
		t.Fatalf("Gamma = %v", k.Gamma())
	}
	dense, err := k.Density([]float64{0.35, 0.35}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := k.Density([]float64{5, 5}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if dense <= sparse {
		t.Fatalf("density inside cloud (%v) should exceed far outside (%v)", dense, sparse)
	}
	over, err := k.DensityExceeds([]float64{0.35, 0.35}, sparse)
	if err != nil || !over {
		t.Fatalf("DensityExceeds: %v %v", over, err)
	}
	if _, err := NewKDE(nil); err == nil {
		t.Fatal("empty points accepted")
	}
	if _, err := NewKDEWithGamma(pts, -1); err == nil {
		t.Fatal("bad gamma accepted")
	}
}

// TestNewKDEZeroVariance: Scott's rule divides by the mean per-dimension
// std, so a dataset of identical points must fail with an error that names
// the problem and the workaround rather than yielding gamma = +Inf.
func TestNewKDEZeroVariance(t *testing.T) {
	pts := [][]float64{{3, 7}, {3, 7}, {3, 7}, {3, 7}}
	_, err := NewKDE(pts)
	if err == nil {
		t.Fatal("zero-variance data accepted")
	}
	msg := err.Error()
	for _, want := range []string{"zero variance", "NewKDEWithGamma"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not mention %q", msg, want)
		}
	}
	// The escape hatch the error suggests must actually work.
	k, err := NewKDEWithGamma(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := k.Density([]float64{3, 7}, 0.1); err != nil || d != 1 {
		t.Fatalf("density at the atom = %v, %v (want 1)", d, err)
	}
}

func TestSVMAPIs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 200
	pts := make([][]float64, n)
	labels := make([]float64, n)
	for i := range pts {
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		labels[i] = sign
		pts[i] = []float64{sign + rng.NormFloat64()*0.3, sign + rng.NormFloat64()*0.3}
	}
	two, err := TrainTwoClassSVM(pts, labels, SVMConfig{Kernel: Gaussian(1), C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if two.SupportVectors == 0 {
		t.Fatal("no support vectors")
	}
	var correct int
	for i := range pts {
		got, err := two.Classify(pts[i])
		if err != nil {
			t.Fatal(err)
		}
		if got == (labels[i] > 0) {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Fatalf("2-class accuracy %v", acc)
	}
	// Classify must agree with the sign of Decision.
	for _, q := range [][]float64{{1, 1}, {-1, -1}, {0.2, -0.1}} {
		c, _ := two.Classify(q)
		d, _ := two.Decision(q)
		if c != (d > 0) {
			t.Fatalf("Classify(%v)=%v disagrees with Decision=%v", q, c, d)
		}
	}

	// One-class: inliers around origin.
	inliers := make([][]float64, 300)
	for i := range inliers {
		inliers[i] = []float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1}
	}
	one, err := TrainOneClassSVM(inliers, SVMConfig{Kernel: Gaussian(5), Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := one.Classify([]float64{0, 0}); !ok {
		t.Fatal("center rejected")
	}
	if ok, _ := one.Classify([]float64{4, 4}); ok {
		t.Fatal("distant outlier accepted")
	}
	// Validation.
	if _, err := TrainTwoClassSVM(pts, labels[:10], SVMConfig{}); err == nil {
		t.Fatal("label mismatch accepted")
	}
	if _, err := TrainOneClassSVM(nil, SVMConfig{}); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := TrainTwoClassSVM(nil, nil, SVMConfig{}); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestNewSVMWrapsExternalModel(t *testing.T) {
	// A hand-made "model": one positive SV at the origin, ρ = 0.5, so the
	// decision region is a ball around the origin.
	m, err := NewSVM([][]float64{{0, 0}}, []float64{1}, 0.5, Gaussian(1))
	if err != nil {
		t.Fatal(err)
	}
	if in, _ := m.Classify([]float64{0.1, 0}); !in {
		t.Fatal("near point rejected")
	}
	if in, _ := m.Classify([]float64{3, 0}); in {
		t.Fatal("far point accepted")
	}
	if _, err := NewSVM(nil, nil, 0, Gaussian(1)); err == nil {
		t.Fatal("empty SVs accepted")
	}
	if _, err := NewSVM([][]float64{{0}}, []float64{1, 2}, 0, Gaussian(1)); err == nil {
		t.Fatal("weight mismatch accepted")
	}
}

func TestSVMDefaultKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := make([][]float64, 100)
	labels := make([]float64, 100)
	for i := range pts {
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		labels[i] = sign
		pts[i] = []float64{sign*2 + rng.NormFloat64()*0.2, rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	// Zero-value config: γ must default to 1/d.
	m, err := TrainTwoClassSVM(pts, labels, SVMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if g := m.Engine().Kernel().Gamma; math.Abs(g-0.25) > 1e-12 {
		t.Fatalf("default gamma %v, want 1/d = 0.25", g)
	}
}
