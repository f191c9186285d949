package vec

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

const refPrec = 256

// bigLn2 is ln 2 = Σ 1/(k·2^k), one bit a term.
var bigLn2 = func() *big.Float {
	sum := new(big.Float).SetPrec(refPrec)
	for k := 1; k <= refPrec+8; k++ {
		term := new(big.Float).SetPrec(refPrec).SetInt64(int64(k))
		term.SetMantExp(term, k)
		sum.Add(sum, term.Quo(big.NewFloat(1), term))
	}
	return sum
}()

// refExp is e**x to about 240 bits: x = k·ln2 + r, exp(r/256) by Taylor
// series, eight squarings, a shift by k.
func refExp(x float64) *big.Float {
	bx := new(big.Float).SetPrec(refPrec).SetFloat64(x)
	k := int(math.Round(x / math.Ln2))
	r := new(big.Float).SetPrec(refPrec).SetInt64(int64(k))
	r.Sub(bx, r.Mul(r, bigLn2))
	r.SetMantExp(r, -8)
	sum := new(big.Float).SetPrec(refPrec).SetInt64(1)
	term := new(big.Float).SetPrec(refPrec).SetInt64(1)
	for n := int64(1); term.Sign() != 0 && term.MantExp(nil) > -refPrec; n++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetInt64(n))
		sum.Add(sum, term)
	}
	for i := 0; i < 8; i++ {
		sum.Mul(sum, sum)
	}
	return sum.SetMantExp(sum, k)
}

// ulpsFromRef is |got − exp(x)| in units of got's last place.
func ulpsFromRef(got, x float64) float64 { return ulpsFrom(got, refExp(x)) }

func ulpsFrom(got float64, ref *big.Float) float64 {
	diff := new(big.Float).SetPrec(refPrec).SetFloat64(got)
	diff.Sub(diff, ref)
	ulp := math.Nextafter(got, math.Inf(1)) - got
	e, _ := diff.Quo(diff, new(big.Float).SetFloat64(ulp)).Float64()
	return math.Abs(e)
}

// ulpsApart is the number of doubles between two finite results of the
// same sign.
func ulpsApart(a, b float64) uint64 {
	d := int64(math.Float64bits(a) - math.Float64bits(b))
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// special reports whether math.Exp's result is one vec.Exp must return
// identically — NaN, ±Inf, zero or a subnormal — rather than within an ulp
// bound.
func special(want float64) bool {
	return math.IsNaN(want) || math.IsInf(want, 0) || want < 0x1p-1022
}

// sameBits reports whether got and want are one float64, any NaN being
// every NaN.
func sameBits(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

func TestExpTableIsExact(t *testing.T) {
	root := new(big.Float).SetPrec(refPrec).SetInt64(2)
	for i := 0; i < expBits; i++ {
		root.Sqrt(root)
	}
	v := new(big.Float).SetPrec(refPrec).SetInt64(1)
	for j := range expTab {
		h, _ := v.Float64()
		bh := new(big.Float).SetPrec(refPrec).SetFloat64(h)
		tail := new(big.Float).SetPrec(refPrec).Sub(v, bh)
		tf, _ := tail.Quo(tail, bh).Float64()
		want := [2]uint64{math.Float64bits(tf), math.Float64bits(h) - uint64(j)<<(52-expBits)}
		if expTab[j] != want {
			t.Errorf("expTab[%d] = {%#016x, %#016x}, want {%#016x, %#016x}", j, expTab[j][0], expTab[j][1], want[0], want[1])
		}
		v.Mul(v, root)
	}
	if got, _ := v.Float64(); got != 2 {
		t.Fatalf("2^(128/128) rebuilt as %v", got)
	}
}

func TestExpAccuracy(t *testing.T) {
	nRef, nStd := 100_000, 10_000_000
	if testing.Short() {
		nRef, nStd = 10_000, 1_000_000
	}
	rng := rand.New(rand.NewSource(25))
	ranges := [][2]float64{{-708, 0}, {-40, 0}, {0, 708}}
	for _, r := range ranges {
		var worst, worstAt, worstStd, worstStdAt float64
		for i := 0; i < nRef; i++ {
			x := r[0] + rng.Float64()*(r[1]-r[0])
			ref := refExp(x)
			if e := ulpsFrom(Exp(x), ref); e > worst {
				worst, worstAt = e, x
			}
			if e := ulpsFrom(math.Exp(x), ref); e > worstStd {
				worstStd, worstStdAt = e, x
			}
		}
		t.Logf("worst error against the %d-bit reference over %d arguments in %v: vec.Exp %.4f ulp at %v, math.Exp %.4f ulp at %v",
			refPrec, nRef, r, worst, worstAt, worstStd, worstStdAt)
		if worst > 1 {
			t.Errorf("vec.Exp is %.4f ulp from the reference at %v, want <= 1", worst, worstAt)
		}
	}

	var apart uint64
	var apartAt float64
	for i := 0; i < nStd; i++ {
		r := ranges[i%len(ranges)]
		x := r[0] + rng.Float64()*(r[1]-r[0])
		if d := ulpsApart(Exp(x), math.Exp(x)); d > apart {
			apart, apartAt = d, x
		}
	}
	t.Logf("worst distance from math.Exp over %d arguments: %d ulp at %v", nStd, apart, apartAt)
	if apart > 2 {
		t.Errorf("vec.Exp is %d ulp from math.Exp at %v, want <= 2", apart, apartAt)
	}
}

func TestExpSpecials(t *testing.T) {
	if got := Exp(0); got != 1 {
		t.Errorf("Exp(0) = %v", got)
	}
	if got := Exp(math.Copysign(0, -1)); got != 1 {
		t.Errorf("Exp(-0) = %v", got)
	}
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), -745.2, -800, -1e300, 709.79, 710, 1e300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 0x1p-54, -0x1p-54,
	}
	// Subnormal and boundary results: the smallest normal is exp(−708.396…).
	for x := -708.4; x <= -708; x += 0.01 {
		specials = append(specials, x)
	}
	for _, edge := range []float64{-expMax, expMax} {
		specials = append(specials, edge, math.Nextafter(edge, 0), math.Nextafter(edge, 2*edge))
	}
	for _, x := range specials {
		got, want := Exp(x), math.Exp(x)
		if special(want) {
			if !sameBits(got, want) {
				t.Errorf("Exp(%v) = %v, math.Exp gives %v", x, got, want)
			}
			continue
		}
		if e := ulpsFromRef(got, x); e > 1 {
			t.Errorf("Exp(%v) = %v is %.4f ulp from the reference", x, got, e)
		}
	}
	// One step either side of the point where k moves on, for 64
	// consecutive k in both directions from zero and at both ends of the
	// range.
	for _, k0 := range []int{-32, -130_700, 130_600} {
		for k := k0; k < k0+64; k++ {
			edge := (float64(k) + 0.5) * math.Ln2 / expN
			for _, x := range []float64{math.Nextafter(edge, math.Inf(-1)), edge, math.Nextafter(edge, math.Inf(1))} {
				got := Exp(x)
				if e := ulpsFromRef(got, x); e > 1 {
					t.Errorf("Exp(%v) (k = %d) = %v is %.4f ulp from the reference", x, k, got, e)
				}
				if d := ulpsApart(got, math.Exp(x)); d > 2 {
					t.Errorf("Exp(%v) (k = %d) = %v is %d ulp from math.Exp", x, k, got, d)
				}
			}
		}
	}
}

func TestExpTileMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -745.2, -708.2, 709.79, 0, math.Copysign(0, -1)}
	for n := 0; n <= 130; n++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = -40 * rng.Float64()
			if rng.Intn(8) == 0 {
				x[i] = odd[rng.Intn(len(odd))]
			}
		}
		tile := append([]float64(nil), x...)
		ExpTile(tile)
		for i, v := range x {
			if want := Exp(v); !sameBits(tile[i], want) {
				t.Fatalf("n = %d: ExpTile[%d] of %v = %v, Exp gives %v", n, i, v, tile[i], want)
			}
		}
	}
}

func FuzzExp(f *testing.F) {
	for _, x := range []float64{0, 1, -1, -0.5, -36.6, 700, -700, 708, -708, -708.39, -745.2, 709.79, math.NaN(), math.Inf(1), math.Inf(-1), 0x1p-1074} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		got, want := Exp(x), math.Exp(x)
		if special(want) {
			if !sameBits(got, want) {
				t.Fatalf("Exp(%v) = %v, math.Exp gives %v", x, got, want)
			}
			return
		}
		if d := ulpsApart(got, want); d > 2 {
			t.Fatalf("Exp(%v) = %v is %d ulp from math.Exp's %v", x, got, d, want)
		}
	})
}

var expSink float64

// BenchmarkExp prices one exp three ways over an 80-wide tile of Gaussian
// arguments (a default leaf): math.Exp, vec.Exp a point, vec.ExpTile.
func BenchmarkExp(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 80)
	for i := range src {
		src[i] = -20 * rng.Float64()
	}
	tile := make([]float64, len(src))
	run := func(name string, fn func()) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/exp")
		})
	}
	run("math.Exp", func() {
		var s float64
		for _, x := range src {
			s += math.Exp(x)
		}
		expSink = s
	})
	run("vec.Exp", func() {
		var s float64
		for _, x := range src {
			s += Exp(x)
		}
		expSink = s
	})
	run("vec.ExpTile", func() {
		copy(tile, src)
		ExpTile(tile)
		var s float64
		for _, e := range tile {
			s += e
		}
		expSink = s
	})
}
