package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"karl/internal/vec"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Gaussian: "gaussian", Polynomial: "polynomial", Sigmoid: "sigmoid", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q want %q", int(k), got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := NewGaussian(0.5).Validate(); err != nil {
		t.Fatalf("valid gaussian rejected: %v", err)
	}
	if err := NewGaussian(0).Validate(); err == nil {
		t.Fatal("gamma=0 accepted")
	}
	if err := NewPolynomial(1, 0, 0).Validate(); err == nil {
		t.Fatal("degree=0 accepted")
	}
	if err := NewPolynomial(1, 1, 3).Validate(); err != nil {
		t.Fatalf("valid polynomial rejected: %v", err)
	}
	if err := NewSigmoid(0.1, -1).Validate(); err != nil {
		t.Fatalf("valid sigmoid rejected: %v", err)
	}
	if err := (Params{Kind: Kind(7), Gamma: 1}).Validate(); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestGaussianEvalKnown(t *testing.T) {
	p := NewGaussian(0.5)
	q := []float64{0, 0}
	x := []float64{1, 1} // dist² = 2 → exp(−1)
	if got, want := p.Eval(q, x), math.Exp(-1); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Eval = %v want %v", got, want)
	}
	// Same point → kernel value 1.
	if got := p.Eval(q, q); got != 1 {
		t.Fatalf("Eval(q,q) = %v want 1", got)
	}
}

func TestPolynomialEvalKnown(t *testing.T) {
	p := NewPolynomial(2, 1, 3)
	q := []float64{1, 2}
	x := []float64{3, 4} // q·x = 11 → (2·11+1)³ = 23³
	if got, want := p.Eval(q, x), 23.0*23*23; got != want {
		t.Fatalf("Eval = %v want %v", got, want)
	}
}

func TestSigmoidEvalKnown(t *testing.T) {
	p := NewSigmoid(1, 0)
	q := []float64{1, 0}
	x := []float64{1, 0}
	if got, want := p.Eval(q, x), math.Tanh(1); got != want {
		t.Fatalf("Eval = %v want %v", got, want)
	}
}

func TestPowIntMatchesMathPow(t *testing.T) {
	f := func(xRaw float64, nRaw uint8) bool {
		x := math.Mod(xRaw, 10)
		n := int(nRaw % 9)
		got := powInt(x, n)
		want := math.Pow(x, float64(n))
		return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPowIntNegativeExponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	powInt(2, -1)
}

func TestOuterDerivNumerically(t *testing.T) {
	params := []Params{
		NewGaussian(1),
		NewPolynomial(1, 0, 2),
		NewPolynomial(1, 0, 3),
		NewPolynomial(1, 0, 5),
		NewSigmoid(1, 0),
	}
	rng := rand.New(rand.NewSource(3))
	const h = 1e-6
	for _, p := range params {
		for trial := 0; trial < 50; trial++ {
			x := rng.NormFloat64() * 2
			want := (p.Outer(x+h) - p.Outer(x-h)) / (2 * h)
			got := p.OuterDeriv(x)
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%v: OuterDeriv(%v) = %v, numeric %v", p.Kind, x, got, want)
			}
		}
	}
}

func TestScalarFactorization(t *testing.T) {
	// Eval must equal Outer∘Scalar for all kernels on random pairs.
	rng := rand.New(rand.NewSource(5))
	params := []Params{NewGaussian(0.7), NewPolynomial(0.3, 1, 3), NewSigmoid(0.2, -0.5)}
	for _, p := range params {
		for trial := 0; trial < 30; trial++ {
			d := 1 + rng.Intn(8)
			q, x := make([]float64, d), make([]float64, d)
			for j := 0; j < d; j++ {
				q[j], x[j] = rng.NormFloat64(), rng.NormFloat64()
			}
			if got, want := p.Eval(q, x), p.Outer(p.Scalar(q, x)); got != want {
				t.Fatalf("%v: Eval %v != Outer(Scalar) %v", p.Kind, got, want)
			}
		}
	}
}

func TestAggregateMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := vec.NewMatrix(40, 5)
	w := make([]float64, 40)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	q := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	p := NewGaussian(1.5)
	var want float64
	for i := 0; i < m.Rows; i++ {
		want += w[i] * p.Eval(q, m.Row(i))
	}
	if got := Aggregate(p, q, m, w); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Aggregate = %v want %v", got, want)
	}
	// nil weights = unit weights.
	var wantUnit float64
	for i := 0; i < m.Rows; i++ {
		wantUnit += p.Eval(q, m.Row(i))
	}
	if got := Aggregate(p, q, m, nil); math.Abs(got-wantUnit) > 1e-12 {
		t.Fatalf("Aggregate(nil) = %v want %v", got, wantUnit)
	}
}

func TestAggregateRowsMatchesEvalLoop(t *testing.T) {
	// Every kernel's specialized range evaluator — with and without the
	// squared-norm cache, with and without weights — must agree with a naive
	// per-point Eval loop up to the rounding of the fused distance form.
	rng := rand.New(rand.NewSource(13))
	params := []Params{
		NewGaussian(2), NewEpanechnikov(0.4), NewQuartic(0.3),
		NewPolynomial(0.3, 1, 3), NewSigmoid(0.2, -0.5),
	}
	for _, p := range params {
		for trial := 0; trial < 10; trial++ {
			n, d := 1+rng.Intn(25), 1+rng.Intn(6)
			m := vec.NewMatrix(n, d)
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
			w := make([]float64, n)
			norms := make([]float64, n)
			for i := 0; i < n; i++ {
				w[i] = rng.NormFloat64()
				norms[i] = vec.Norm2(m.Row(i))
			}
			q := make([]float64, d)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			start := rng.Intn(n)
			end := start + rng.Intn(n-start+1)
			var want, wantUnit float64
			for i := start; i < end; i++ {
				v := p.Eval(q, m.Row(i))
				want += w[i] * v
				wantUnit += v
			}
			tol := 1e-9 * (1 + math.Abs(want) + math.Abs(wantUnit))
			rows := p.RowsEvaluator()
			qn := vec.Norm2(q)
			for _, cached := range [][]float64{nil, norms} {
				if got := rows(q, qn, m, cached, w, start, end); math.Abs(got-want) > tol {
					t.Fatalf("%v (norms=%v): rows = %v want %v", p.Kind, cached != nil, got, want)
				}
				if got := rows(q, qn, m, cached, nil, start, end); math.Abs(got-wantUnit) > tol {
					t.Fatalf("%v (norms=%v): unit rows = %v want %v", p.Kind, cached != nil, got, wantUnit)
				}
			}
			// Split ranges must sum to the full range.
			if end > start {
				mid := start + (end-start)/2
				sum := AggregateRows(p, q, m, norms, w, start, mid) +
					AggregateRows(p, q, m, norms, w, mid, end)
				if math.Abs(sum-want) > tol {
					t.Fatalf("%v: split sum = %v want %v", p.Kind, sum, want)
				}
			}
		}
	}
	// Empty range contributes nothing.
	m := vec.NewMatrix(3, 2)
	if got := AggregateRows(NewGaussian(1), []float64{0, 0}, m, nil, nil, 1, 1); got != 0 {
		t.Fatalf("empty range = %v want 0", got)
	}
}

func TestFusedDistanceGuardsCancellation(t *testing.T) {
	// When q equals a stored point, ‖q‖²−2q·p+‖p‖² can round slightly
	// negative; the evaluator must clamp so exp(−γ·d²) never exceeds 1.
	q := []float64{1e8, 1e-8, 3.14159}
	m := vec.FromRows([][]float64{q})
	norms := []float64{vec.Norm2(q)}
	rows := NewGaussian(1000).RowsEvaluator()
	if got := rows(q, vec.Norm2(q), m, norms, nil, 0, 1); got > 1 || math.IsNaN(got) {
		t.Fatalf("self-distance kernel value = %v, want ≤ 1", got)
	}
}

// TestGaussianRowsMatchesClosureForm holds the direct Gaussian loop to the
// closure form it replaced, bit for bit — weighted and unit rows, with norms
// and without (the fallback), ranges that start and end mid-matrix, widths on
// both sides of the four-lane unroll — and to the vec.Dist2 reference within
// 1e-12 of the summed mass.
func TestGaussianRowsMatchesClosureForm(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, d := range []int{1, 3, 4, 7, 10, 123} {
		gamma := 0.5 / float64(d)
		rows := NewGaussian(gamma).RowsEvaluator()
		closure := distanceRows(gamma, func(d2 float64) float64 { return vec.Exp(-gamma * d2) })
		n := 300
		m := vec.NewMatrix(n, d)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		w, norms := make([]float64, n), make([]float64, n)
		for i := range w {
			w[i] = rng.NormFloat64()
			norms[i] = vec.Norm2(m.Row(i))
		}
		for trial := 0; trial < 40; trial++ {
			q := vec.Clone(m.Row(rng.Intn(n))) // a stored point: distance exactly zero
			if trial%2 == 0 {
				for j := range q {
					q[j] = rng.NormFloat64()
				}
			}
			qn := vec.Norm2(q)
			start := rng.Intn(n - 49)
			end := start + 1 + rng.Intn(49)
			for _, weights := range [][]float64{nil, w} {
				var ref, mass float64
				for i := start; i < end; i++ {
					wi := 1.0
					if weights != nil {
						wi = weights[i]
					}
					v := wi * math.Exp(-gamma*vec.Dist2(q, m.Row(i)))
					ref += v
					mass += math.Abs(v)
				}
				for _, cached := range [][]float64{nil, norms} {
					got := rows(q, qn, m, cached, weights, start, end)
					want := closure(q, qn, m, cached, weights, start, end)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("d=%d [%d,%d) weights=%v norms=%v: direct %x closure %x",
							d, start, end, weights != nil, cached != nil, math.Float64bits(got), math.Float64bits(want))
					}
					if math.Abs(got-ref) > 1e-12*(1+mass) {
						t.Fatalf("d=%d [%d,%d) weights=%v norms=%v: %v, reference %v",
							d, start, end, weights != nil, cached != nil, got, ref)
					}
				}
			}
		}
	}
}

// TestGaussianRowsGuardsCancellation is TestFusedDistanceGuardsCancellation's
// regime for the direct loop: rows a hair away from a query of magnitude 1e8,
// where ‖q‖² − 2q·p + ‖p‖² rounds below zero. The clamp keeps every term at
// most 1 and the sum bitwise the closure form's.
func TestGaussianRowsGuardsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	q := []float64{1e8, -3e7, 3.14159, 2e8, 1e-8}
	m := vec.NewMatrix(64, len(q))
	norms := make([]float64, m.Rows)
	negative := 0
	for i := 0; i < m.Rows; i++ {
		for j, v := range q {
			m.Row(i)[j] = v * (1 + 1e-15*float64(rng.Intn(9)-4))
		}
		norms[i] = vec.Norm2(m.Row(i))
		if vec.Norm2(q)-2*vec.Dot(q, m.Row(i))+norms[i] < 0 {
			negative++
		}
	}
	if negative == 0 {
		t.Fatal("no row's fused distance rounds negative: the guard is not exercised")
	}
	gamma := 1000.0
	rows := NewGaussian(gamma).RowsEvaluator()
	closure := distanceRows(gamma, func(d2 float64) float64 { return vec.Exp(-gamma * d2) })
	got, want := rows(q, vec.Norm2(q), m, norms, nil, 0, m.Rows), closure(q, vec.Norm2(q), m, norms, nil, 0, m.Rows)
	if math.Float64bits(got) != math.Float64bits(want) || got > float64(m.Rows) || math.IsNaN(got) {
		t.Fatalf("direct %v closure %v over %d rows (%d clamped), want equal and at most one a row", got, want, m.Rows, negative)
	}
}

// BenchmarkLeafRows scans 49-row ranges at random offsets of a 200k×10
// matrix — the shape of a kde-refine leaf. The harness's kernel.ns_per_point
// scans the whole matrix in one call and is memory-bound (≈35 ns a point with
// either loop), so it does not show what a leaf scan costs; this does.
func BenchmarkLeafRows(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n, d, leaf := 200000, 10, 49
	if testing.Short() {
		n = 20000
	}
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	norms := make([]float64, n)
	for i := range norms {
		norms[i] = vec.Norm2(m.Row(i))
	}
	offsets := make([]int, 4096)
	for i := range offsets {
		offsets[i] = rng.Intn(n - leaf)
	}
	q := vec.Clone(m.Row(17))
	qn := vec.Norm2(q)
	gamma := 0.5
	for _, c := range []struct {
		name string
		rows RowsFunc
	}{
		{"direct", NewGaussian(gamma).RowsEvaluator()},
		{"closure", distanceRows(gamma, func(d2 float64) float64 { return math.Exp(-gamma * d2) })},
	} {
		b.Run(c.name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				at := offsets[i%len(offsets)]
				sink += c.rows(q, qn, m, norms, nil, at, at+leaf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*leaf), "ns/point")
			if math.IsNaN(sink) {
				b.Fatal("NaN sum")
			}
		})
	}
}
