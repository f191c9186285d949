package bound

import (
	"math"
	"testing"
	"testing/quick"

	"karl/internal/kernel"
)

// TestQuickScalarBoundsGaussian drives the scalar-level linear bounds with
// quick-generated intervals and evaluation points: the lower bound value
// never exceeds exp(−x) and the upper bound never falls below it, anywhere
// in the interval.
func TestQuickScalarBoundsGaussian(t *testing.T) {
	k := kernel.NewGaussian(1)
	f := func(aRaw, widthRaw, posRaw float64) bool {
		a := math.Abs(math.Mod(aRaw, 50))
		width := math.Abs(math.Mod(widthRaw, 50))
		pos := math.Abs(math.Mod(posRaw, 1))
		b := a + width
		if width == 0 {
			b = a + 1e-9
		}
		x := a + (b-a)*pos
		lo, hi := linearBoundsAt(k, endsOf(k, a, b), x)
		fx := math.Exp(-x)
		tol := 1e-9 * (1 + fx)
		return lo <= fx+tol && hi >= fx-tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScalarBoundsOddPoly does the same for the degree-3 polynomial
// over intervals that may straddle the inflection point.
func TestQuickScalarBoundsOddPoly(t *testing.T) {
	k := kernel.NewPolynomial(1, 0, 3)
	f := func(aRaw, widthRaw, posRaw float64) bool {
		a := math.Mod(aRaw, 10)
		width := math.Abs(math.Mod(widthRaw, 10))
		pos := math.Abs(math.Mod(posRaw, 1))
		b := a + width
		if width == 0 {
			return true
		}
		x := a + (b-a)*pos
		lo, hi := linearBoundsAt(k, endsOf(k, a, b), x)
		fx := x * x * x
		tol := 1e-8 * (1 + math.Abs(fx) + math.Abs(lo) + math.Abs(hi))
		return lo <= fx+tol && hi >= fx-tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScalarBoundsSigmoid: same for tanh.
func TestQuickScalarBoundsSigmoid(t *testing.T) {
	k := kernel.NewSigmoid(1, 0)
	f := func(aRaw, widthRaw, posRaw float64) bool {
		a := math.Mod(aRaw, 20)
		width := math.Abs(math.Mod(widthRaw, 20))
		pos := math.Abs(math.Mod(posRaw, 1))
		b := a + width
		if width == 0 {
			return true
		}
		x := a + (b-a)*pos
		lo, hi := linearBoundsAt(k, endsOf(k, a, b), x)
		fx := math.Tanh(x)
		tol := 1e-8 * (1 + math.Abs(fx))
		return lo <= fx+tol && hi >= fx-tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScalarBoundsTruncated: Epanechnikov and quartic across the
// support kink.
func TestQuickScalarBoundsTruncated(t *testing.T) {
	for _, k := range []kernel.Params{kernel.NewEpanechnikov(1), kernel.NewQuartic(1)} {
		f := func(aRaw, widthRaw, posRaw float64) bool {
			a := math.Abs(math.Mod(aRaw, 3))
			width := math.Abs(math.Mod(widthRaw, 3))
			pos := math.Abs(math.Mod(posRaw, 1))
			b := a + width
			if width == 0 {
				return true
			}
			x := a + (b-a)*pos
			lo, hi := linearBoundsAt(k, endsOf(k, a, b), x)
			fx := k.Outer(x)
			tol := 1e-9 * (1 + fx)
			return lo <= fx+tol && hi >= fx-tol
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Fatalf("%v: %v", k.Kind, err)
		}
	}
}
