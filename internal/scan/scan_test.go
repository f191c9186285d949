package scan

import (
	"math"
	"math/rand"
	"testing"

	"karl/internal/kernel"
	"karl/internal/vec"
)

func TestNewScannerValidation(t *testing.T) {
	if _, err := NewScanner(nil, nil, kernel.NewGaussian(1)); err == nil {
		t.Fatal("nil matrix accepted")
	}
	m := vec.FromRows([][]float64{{1}})
	if _, err := NewScanner(m, []float64{1, 2}, kernel.NewGaussian(1)); err == nil {
		t.Fatal("weight mismatch accepted")
	}
	if _, err := NewScanner(m, nil, kernel.NewGaussian(0)); err == nil {
		t.Fatal("invalid kernel accepted")
	}
}

func TestScannerAggregate(t *testing.T) {
	m := vec.FromRows([][]float64{{0}, {1}})
	s, err := NewScanner(m, []float64{2, 3}, kernel.NewGaussian(1))
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0}
	want := 2*1.0 + 3*math.Exp(-1)
	if got := s.Aggregate(q); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Aggregate = %v want %v", got, want)
	}
	if !s.Threshold(q, want-0.1) || s.Threshold(q, want+0.1) {
		t.Fatal("Threshold inconsistent with Aggregate")
	}
	if got := s.Approximate(q, 0.5); got != s.Aggregate(q) {
		t.Fatal("Approximate should be exact for the scanner")
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	v := []float64{0, 1.5, 0, 0, -2, 0}
	sv := FromDense(v)
	if len(sv.Index) != 2 || sv.Index[0] != 1 || sv.Index[1] != 4 {
		t.Fatalf("indices = %v", sv.Index)
	}
	if sv.Value[0] != 1.5 || sv.Value[1] != -2 {
		t.Fatalf("values = %v", sv.Value)
	}
	if got := FromDense(nil); len(got.Index) != 0 {
		t.Fatal("empty dense should give empty sparse")
	}
}

func TestSparseDotMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(30)
		a, b := make([]float64, d), make([]float64, d)
		for j := 0; j < d; j++ {
			// ~60% sparsity, like SVM feature vectors.
			if rng.Float64() < 0.4 {
				a[j] = rng.NormFloat64()
			}
			if rng.Float64() < 0.4 {
				b[j] = rng.NormFloat64()
			}
		}
		want := vec.Dot(a, b)
		got := FromDense(a).Dot(FromDense(b))
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("sparse dot = %v want %v", got, want)
		}
	}
}

func TestSparseNorm2(t *testing.T) {
	sv := FromDense([]float64{3, 0, 4})
	if got := sv.Norm2(); got != 25 {
		t.Fatalf("Norm2 = %v want 25", got)
	}
}

func TestLibSVMMatchesScannerAllKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	kernels := []kernel.Params{
		kernel.NewGaussian(2),
		kernel.NewPolynomial(0.5, 1, 3),
		kernel.NewSigmoid(0.3, 0.1),
	}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(100)
		d := 1 + rng.Intn(20)
		m := vec.NewMatrix(n, d)
		w := make([]float64, n)
		for i := 0; i < n; i++ {
			w[i] = rng.NormFloat64()
			for j := 0; j < d; j++ {
				if rng.Float64() < 0.5 {
					m.Row(i)[j] = rng.NormFloat64()
				}
			}
		}
		q := make([]float64, d)
		for j := range q {
			if rng.Float64() < 0.5 {
				q[j] = rng.NormFloat64()
			}
		}
		for _, k := range kernels {
			s, err := NewScanner(m, w, k)
			if err != nil {
				t.Fatal(err)
			}
			l, err := NewLibSVM(m, w, k)
			if err != nil {
				t.Fatal(err)
			}
			want := s.Aggregate(q)
			got := l.Aggregate(q)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("trial %d %v: LibSVM %v vs Scanner %v", trial, k.Kind, got, want)
			}
		}
	}
}

func TestLibSVMDecision(t *testing.T) {
	m := vec.FromRows([][]float64{{0, 0}})
	l, err := NewLibSVM(m, []float64{1}, kernel.NewGaussian(1))
	if err != nil {
		t.Fatal(err)
	}
	// F = exp(0) = 1 at the point itself: class +1 above τ = 0.5, −1 below 1.5.
	if !l.Threshold([]float64{0, 0}, 0.5) {
		t.Fatal("expected +1")
	}
	if l.Threshold([]float64{0, 0}, 1.5) {
		t.Fatal("expected -1")
	}
}

func TestLibSVMSparsity(t *testing.T) {
	m := vec.FromRows([][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}})
	l, err := NewLibSVM(m, nil, kernel.NewGaussian(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Sparsity(); got != 0.25 {
		t.Fatalf("Sparsity = %v want 0.25", got)
	}
}

func TestLibSVMValidation(t *testing.T) {
	if _, err := NewLibSVM(nil, nil, kernel.NewGaussian(1)); err == nil {
		t.Fatal("nil matrix accepted")
	}
	m := vec.FromRows([][]float64{{1}})
	if _, err := NewLibSVM(m, []float64{1, 2}, kernel.NewGaussian(1)); err == nil {
		t.Fatal("weight mismatch accepted")
	}
}
