package kde

import (
	"math"
	"math/rand"
	"testing"

	"karl/internal/vec"
)

func TestScottGammaValidation(t *testing.T) {
	if _, err := ScottGamma(nil); err == nil {
		t.Fatal("nil accepted")
	}
	constant := vec.FromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := ScottGamma(constant); err == nil {
		t.Fatal("zero-variance data accepted")
	}
}

func TestScottGammaKnown(t *testing.T) {
	// 1-d data with σ=2, n=16: h = 16^(−1/5)·2, γ = 1/(2h²).
	rows := make([][]float64, 16)
	for i := range rows {
		if i%2 == 0 {
			rows[i] = []float64{-2}
		} else {
			rows[i] = []float64{2}
		}
	}
	m := vec.FromRows(rows)
	got, err := ScottGamma(m)
	if err != nil {
		t.Fatal(err)
	}
	h := math.Pow(16, -0.2) * 2
	want := 1 / (2 * h * h)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ScottGamma = %v want %v", got, want)
	}
}

func TestScottGammaShrinksWithN(t *testing.T) {
	// More data → smaller bandwidth → larger γ.
	rng := rand.New(rand.NewSource(61))
	small := vec.NewMatrix(100, 3)
	large := vec.NewMatrix(10000, 3)
	for i := range small.Data {
		small.Data[i] = rng.NormFloat64()
	}
	for i := range large.Data {
		large.Data[i] = rng.NormFloat64()
	}
	gs, _ := ScottGamma(small)
	gl, _ := ScottGamma(large)
	if gl <= gs {
		t.Fatalf("γ(10000) = %v should exceed γ(100) = %v", gl, gs)
	}
}
