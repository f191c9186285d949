package bound

import (
	"math"
	"math/rand"
	"testing"

	"karl/internal/geom"
	"karl/internal/index"
	"karl/internal/kdtree"
	"karl/internal/kernel"
	"karl/internal/vec"
)

func TestMethodString(t *testing.T) {
	if SOTA.String() != "SOTA" || KARL.String() != "KARL" || Method(9).String() != "Method(9)" {
		t.Fatal("Method.String mismatch")
	}
}

// testCase bundles a random node (points, positive weights, aggregate,
// volume) with a query.
type testCase struct {
	pts  *vec.Matrix
	w    []float64
	agg  index.Agg
	rect *geom.Rect
	ball *geom.Ball
	q    []float64
	qc   *QueryCtx
}

func makeCase(rng *rand.Rand, n, d int, spread float64) *testCase {
	tc := &testCase{pts: vec.NewMatrix(n, d), w: make([]float64, n)}
	center := make([]float64, d)
	for j := range center {
		center[j] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		row := tc.pts.Row(i)
		for j := range row {
			row[j] = center[j] + rng.NormFloat64()*spread
		}
		tc.w[i] = rng.Float64()*2 + 0.01
	}
	for i := 0; i < n; i++ {
		tc.agg = addAgg(tc.agg, tc.w[i], tc.pts.Row(i))
	}
	tc.rect = geom.BoundRows(tc.pts, 0, n)
	tc.ball = geom.BoundRowsBall(tc.pts, 0, n)
	tc.q = make([]float64, d)
	for j := range tc.q {
		tc.q[j] = rng.NormFloat64() * 2
	}
	tc.qc = NewQueryCtx(tc.q)
	return tc
}

// rootNode returns the one node of a kd-tree whose leaf holds every point:
// their bounding rectangle and both sign classes' aggregates in one record.
func rootNode(t *testing.T, pts *vec.Matrix, w []float64) *index.Node {
	t.Helper()
	tr, err := kdtree.Build(pts, w, pts.Rows)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Root()
}

// addAgg mirrors index.Agg accumulation without exporting its add method.
func addAgg(a index.Agg, w float64, p []float64) index.Agg {
	a.Count++
	a.W += w
	if a.A == nil {
		a.A = make([]float64, len(p))
	}
	vec.Axpy(a.A, w, p)
	a.B += w * vec.Norm2(p)
	return a
}

func (tc *testCase) exact(k kernel.Params) float64 {
	return kernel.Aggregate(k, tc.q, tc.pts, tc.w)
}

var allKernels = []kernel.Params{
	kernel.NewGaussian(0.8),
	kernel.NewGaussian(5),
	kernel.NewPolynomial(0.5, 1, 2),
	kernel.NewPolynomial(0.5, 0.3, 3),
	kernel.NewPolynomial(0.3, -0.2, 4),
	kernel.NewPolynomial(0.4, 0, 5),
	kernel.NewSigmoid(0.5, 0.1),
	kernel.NewSigmoid(1.2, -0.4),
}

// TestBoundValidity is the central soundness property: for every kernel,
// method and volume type, lb ≤ Σ w_i·K(q,p_i) ≤ ub on random clustered
// data.
func TestBoundValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(30)
		d := 1 + rng.Intn(6)
		spread := math.Pow(10, rng.Float64()*3-2) // 0.01 .. 10
		tc := makeCase(rng, n, d, spread)
		for _, k := range allKernels {
			exact := tc.exact(k)
			tol := 1e-7 * (1 + math.Abs(exact))
			for _, vol := range []geom.Volume{tc.rect, tc.ball} {
				for _, m := range []Method{SOTA, KARL} {
					lb, ub := ClassBounds(m, k, tc.qc, vol, &tc.agg)
					if lb > exact+tol || ub < exact-tol {
						t.Fatalf("trial %d %v %v %T: bounds [%v,%v] exclude exact %v",
							trial, m, k.Kind, vol, lb, ub, exact)
					}
					if lb > ub+tol {
						t.Fatalf("trial %d %v %v: lb %v > ub %v", trial, m, k.Kind, lb, ub)
					}
				}
			}
		}
	}
}

// TestKARLTighterThanSOTA checks Lemmas 3 and 4 (and their dot-product
// analogues): KARL's bounds are never looser than SOTA's.
func TestKARLTighterThanSOTA(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(30)
		d := 1 + rng.Intn(6)
		spread := math.Pow(10, rng.Float64()*3-2)
		tc := makeCase(rng, n, d, spread)
		for _, k := range allKernels {
			for _, vol := range []geom.Volume{tc.rect, tc.ball} {
				sLB, sUB := ClassBounds(SOTA, k, tc.qc, vol, &tc.agg)
				kLB, kUB := ClassBounds(KARL, k, tc.qc, vol, &tc.agg)
				tol := 1e-9 * (1 + math.Abs(sUB) + math.Abs(sLB))
				if kLB < sLB-tol {
					t.Fatalf("trial %d %v %T: KARL lb %v looser than SOTA %v",
						trial, k.Kind, vol, kLB, sLB)
				}
				if kUB > sUB+tol {
					t.Fatalf("trial %d %v %T: KARL ub %v looser than SOTA %v",
						trial, k.Kind, vol, kUB, sUB)
				}
			}
		}
	}
}

// TestKARLStrictlyTighterOnSpreadData demonstrates the speedup source: on a
// node with real spread, KARL's gap (ub−lb) is materially smaller than
// SOTA's for the Gaussian kernel.
func TestKARLStrictlyTighterOnSpreadData(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	k := kernel.NewGaussian(1)
	var karlWins int
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		tc := makeCase(rng, 40, 4, 1.0)
		sLB, sUB := ClassBounds(SOTA, k, tc.qc, tc.rect, &tc.agg)
		kLB, kUB := ClassBounds(KARL, k, tc.qc, tc.rect, &tc.agg)
		if kUB-kLB < (sUB-sLB)*0.9 {
			karlWins++
		}
	}
	if karlWins < trials*3/4 {
		t.Fatalf("KARL materially tighter in only %d/%d trials", karlWins, trials)
	}
}

func TestEmptyClassBounds(t *testing.T) {
	qc := NewQueryCtx([]float64{0, 0})
	var empty index.Agg
	rect := &geom.Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	for _, m := range []Method{SOTA, KARL} {
		lb, ub := ClassBounds(m, kernel.NewGaussian(1), qc, rect, &empty)
		if lb != 0 || ub != 0 {
			t.Fatalf("%v: empty class bounds [%v,%v], want [0,0]", m, lb, ub)
		}
	}
}

func TestIntervalGaussian(t *testing.T) {
	k := kernel.NewGaussian(2)
	qc := NewQueryCtx([]float64{3, 0})
	rect := &geom.Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	a, b := Interval(k, qc, rect)
	if math.Abs(a-2*4) > 1e-12 {
		t.Fatalf("a = %v want 8", a)
	}
	if math.Abs(b-2*10) > 1e-12 {
		t.Fatalf("b = %v want 20", b)
	}
}

func TestIntervalDotKernel(t *testing.T) {
	k := kernel.NewPolynomial(2, 1, 3)
	qc := NewQueryCtx([]float64{1, 1})
	rect := &geom.Rect{Lo: []float64{0, 0}, Hi: []float64{1, 2}}
	a, b := Interval(k, qc, rect)
	if math.Abs(a-1) > 1e-12 { // 2·0+1
		t.Fatalf("a = %v want 1", a)
	}
	if math.Abs(b-7) > 1e-12 { // 2·3+1
		t.Fatalf("b = %v want 7", b)
	}
}

func TestDegenerateInterval(t *testing.T) {
	// All points identical → zero-width interval; both bounds must equal
	// the exact value.
	pts := vec.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}})
	w := []float64{1, 2, 3}
	rect := geom.BoundRows(pts, 0, 3)
	var agg index.Agg
	for i := 0; i < 3; i++ {
		agg = addAgg(agg, w[i], pts.Row(i))
	}
	q := []float64{2, 2}
	qc := NewQueryCtx(q)
	for _, k := range allKernels {
		exact := kernel.Aggregate(k, q, pts, w)
		lb, ub := ClassBounds(KARL, k, qc, rect, &agg)
		tol := 1e-9 * (1 + math.Abs(exact))
		if math.Abs(lb-exact) > tol || math.Abs(ub-exact) > tol {
			t.Fatalf("%v: degenerate bounds [%v,%v] want %v", k.Kind, lb, ub, exact)
		}
	}
}

// TestNodeBoundsTypeIII validates the P⁺/P⁻ decomposition of Section IV-A:
// node bounds with signed weights must bracket the exact signed sum.
func TestNodeBoundsTypeIII(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(30)
		d := 1 + rng.Intn(5)
		pts := vec.NewMatrix(n, d)
		w := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				pts.Row(i)[j] = rng.NormFloat64()
			}
			w[i] = rng.NormFloat64() // mixed signs
		}
		node := rootNode(t, pts, w)
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		qc := NewQueryCtx(q)
		for _, k := range allKernels {
			exact := kernel.Aggregate(k, q, pts, w)
			tol := 1e-7 * (1 + math.Abs(exact))
			for _, m := range []Method{SOTA, KARL} {
				lb, ub := NodeBounds(m, k, qc, node)
				if lb > exact+tol || ub < exact-tol {
					t.Fatalf("trial %d %v %v: [%v,%v] excludes %v", trial, m, k.Kind, lb, ub, exact)
				}
			}
		}
	}
}

// TestScalarLinearBoundsPointwise hammers the scalar-level construction:
// for each kernel the lower line must sit below the outer function and the
// upper line above it across the whole interval, not just at x̄. We verify
// by evaluating the construction at many x̄ positions and comparing against
// f at that same position — for a valid linear bound L_l(x) ≤ f(x) ≤ L_u(x)
// pointwise.
func TestScalarLinearBoundsPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 200; trial++ {
		a := rng.NormFloat64() * 3
		b := a + rng.Float64()*6 + 1e-6
		for _, k := range allKernels {
			if k.DistanceBased() && a < 0 {
				continue // γ·dist² is never negative
			}
			for s := 0; s <= 20; s++ {
				x := a + (b-a)*float64(s)/20
				lo, hi := linearBoundsAt(k, endsOf(k, a, b), x)
				fx := k.Outer(x)
				tol := 1e-8 * (1 + math.Abs(fx) + math.Abs(lo) + math.Abs(hi))
				if lo > fx+tol {
					t.Fatalf("%v on [%v,%v]: lower line %v above f(%v)=%v", k.Kind, a, b, lo, x, fx)
				}
				if hi < fx-tol {
					t.Fatalf("%v on [%v,%v]: upper line %v below f(%v)=%v", k.Kind, a, b, hi, x, fx)
				}
			}
		}
	}
}

// TestGaussianKnownBounds checks the closed forms on a hand-computed case.
func TestGaussianKnownBounds(t *testing.T) {
	// Two unit-weight points at distance 1 and 3 from q, γ=1:
	// exact = e⁻¹ + e⁻⁹. x̄ = (1+9)/2 = 5.
	pts := vec.FromRows([][]float64{{1}, {3}})
	rect := geom.BoundRows(pts, 0, 2)
	var agg index.Agg
	agg = addAgg(agg, 1, pts.Row(0))
	agg = addAgg(agg, 1, pts.Row(1))
	q := []float64{0}
	qc := NewQueryCtx(q)
	k := kernel.NewGaussian(1)
	lb, ub := ClassBounds(KARL, k, qc, rect, &agg)
	// Jensen: 2·exp(−5).
	wantLB := 2 * math.Exp(-5)
	if math.Abs(lb-wantLB) > 1e-12 {
		t.Fatalf("lb = %v want %v", lb, wantLB)
	}
	// Chord over [1,9] evaluated at 5 is the midpoint of e⁻¹,e⁻⁹ times 2.
	wantUB := math.Exp(-1) + math.Exp(-9)
	if math.Abs(ub-wantUB) > 1e-12 {
		t.Fatalf("ub = %v want %v", ub, wantUB)
	}
	sLB, sUB := ClassBounds(SOTA, k, qc, rect, &agg)
	if math.Abs(sLB-2*math.Exp(-9)) > 1e-12 || math.Abs(sUB-2*math.Exp(-1)) > 1e-12 {
		t.Fatalf("SOTA = [%v,%v]", sLB, sUB)
	}
}

// TestLargeGammaUnderflow ensures numerical robustness when exp underflows.
func TestLargeGammaUnderflow(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	tc := makeCase(rng, 10, 3, 5)
	k := kernel.NewGaussian(1e6)
	lb, ub := ClassBounds(KARL, k, tc.qc, tc.rect, &tc.agg)
	if math.IsNaN(lb) || math.IsNaN(ub) || lb < 0 || lb > ub {
		t.Fatalf("underflow bounds broken: [%v,%v]", lb, ub)
	}
}

func BenchmarkClassBoundsKARLGaussian(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tc := makeCase(rng, 100, 32, 1)
	k := kernel.NewGaussian(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClassBounds(KARL, k, tc.qc, tc.rect, &tc.agg)
	}
}

func BenchmarkClassBoundsSOTAGaussian(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tc := makeCase(rng, 100, 32, 1)
	k := kernel.NewGaussian(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClassBounds(SOTA, k, tc.qc, tc.rect, &tc.agg)
	}
}
