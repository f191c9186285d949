package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorms(t *testing.T) {
	v := []float64{3, 4}
	if got := Norm2(v); got != 25 {
		t.Fatalf("Norm2 = %v, want 25", got)
	}
	if got := Norm(v); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestDist(t *testing.T) {
	a := []float64{1, 1}
	b := []float64{4, 5}
	if got := Dist2(a, b); got != 25 {
		t.Fatalf("Dist2 = %v, want 25", got)
	}
	if got := Dist(a, b); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
}

func TestDist2ExpansionIdentity(t *testing.T) {
	// ‖a−b‖² == ‖a‖² − 2a·b + ‖b‖² — the identity behind Lemma 2's O(d)
	// bound evaluation, so it must hold to high precision.
	f := func(a, b [8]float64) bool {
		as, bs := make([]float64, 8), make([]float64, 8)
		for i := range as {
			// Fold quick's full-float64-range values into a modest range
			// so squares cannot overflow.
			as[i] = math.Mod(a[i], 1e3)
			bs[i] = math.Mod(b[i], 1e3)
		}
		lhs := Dist2(as, bs)
		rhs := Norm2(as) - 2*Dot(as, bs) + Norm2(bs)
		return almostEq(lhs, rhs, 1e-9*(1+math.Abs(lhs)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	if got := Add(a, b); !Equal(got, []float64{4, 7}, 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !Equal(got, []float64{2, 3}, 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := Scale(2, a); !Equal(got, []float64{2, 4}, 0) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	dst := []float64{1, 1, 1}
	AddTo(dst, []float64{1, 2, 3})
	if !Equal(dst, []float64{2, 3, 4}, 0) {
		t.Fatalf("AddTo = %v", dst)
	}
	Axpy(dst, 2, []float64{1, 1, 1})
	if !Equal(dst, []float64{4, 5, 6}, 0) {
		t.Fatalf("Axpy = %v", dst)
	}
	ScaleTo(dst, 0.5)
	if !Equal(dst, []float64{2, 2.5, 3}, 0) {
		t.Fatalf("ScaleTo = %v", dst)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := []float64{1, 2}
	c := Clone(a)
	c[0] = 9
	if a[0] != 1 {
		t.Fatal("Clone aliases input")
	}
}

func TestMean(t *testing.T) {
	m := Mean([][]float64{{0, 2}, {2, 4}})
	if !Equal(m, []float64{1, 3}, 0) {
		t.Fatalf("Mean = %v", m)
	}
}

func TestMeanEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mean(nil)
}

func TestMatrixRowsAndSwap(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	m.SwapRows(0, 2)
	if !Equal(m.Row(0), []float64{5, 6}, 0) || !Equal(m.Row(2), []float64{1, 2}, 0) {
		t.Fatalf("SwapRows failed: %v %v", m.Row(0), m.Row(2))
	}
	m.SwapRows(1, 1) // no-op must be safe
	if !Equal(m.Row(1), []float64{3, 4}, 0) {
		t.Fatalf("self-swap corrupted row: %v", m.Row(1))
	}
	// Widths on either side of the four-column step, and its tail.
	for d := 1; d <= 9; d++ {
		m := NewMatrix(3, d)
		for i := range m.Data {
			m.Data[i] = float64(i)
		}
		want := m.Clone()
		m.SwapRows(2, 0)
		if !Equal(m.Row(0), want.Row(2), 0) || !Equal(m.Row(2), want.Row(0), 0) || !Equal(m.Row(1), want.Row(1), 0) {
			t.Fatalf("d=%d: SwapRows gave %v", d, m.Data)
		}
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged input")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatrixClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Row(0)[0] = 42
	if m.Row(0)[0] != 1 {
		t.Fatal("Clone aliases storage")
	}
}

func TestColumnStats(t *testing.T) {
	m := FromRows([][]float64{{0, 10}, {2, 10}, {4, 10}})
	mean, std := m.ColumnStats()
	if !Equal(mean, []float64{2, 10}, 1e-12) {
		t.Fatalf("mean = %v", mean)
	}
	wantStd := math.Sqrt((4.0 + 0 + 4.0) / 3.0)
	if !almostEq(std[0], wantStd, 1e-12) || std[1] != 0 {
		t.Fatalf("std = %v", std)
	}
}

func TestNormalizeUnit(t *testing.T) {
	m := FromRows([][]float64{{0, 5}, {10, 5}})
	mins, maxs := m.NormalizeUnit(-1, 1)
	if mins[0] != 0 || maxs[0] != 10 {
		t.Fatalf("min/max = %v %v", mins, maxs)
	}
	if !Equal(m.Row(0), []float64{-1, -1}, 0) || !Equal(m.Row(1), []float64{1, -1}, 0) {
		t.Fatalf("normalized rows = %v %v", m.Row(0), m.Row(1))
	}
}

func TestNormalizeUnitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(50, 4)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * 100
	}
	m.NormalizeUnit(0, 1)
	for _, v := range m.Data {
		if v < 0 || v > 1 {
			t.Fatalf("value %v outside [0,1]", v)
		}
	}
}

func BenchmarkDist2(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := 64
	x := make([]float64, d)
	y := make([]float64, d)
	for i := range x {
		x[i], y[i] = rng.Float64(), rng.Float64()
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Dist2(x, y)
	}
	_ = sink
}
