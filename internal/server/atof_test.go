package server

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// numberEnd is the oracle for the grammar: the end of the JSON number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, at b[i:], or i where there
// is none. It is the scanner the reader used before number().
func numberEnd(b []byte, i int) int {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return start
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(i + 1); b[i-1] == '.' {
			return start
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		end := digits(i)
		if end == i {
			return start
		}
		i = end
	}
	return i
}

// numberMismatch holds number() on body against the grammar oracle and
// ParseFloat: the same bits, the same ok, the same cursor. It returns what
// differs, or "".
func numberMismatch(body []byte) string {
	ref := wireReader{b: body}
	ref.ws()
	start := ref.i
	var want float64
	wantOK := false
	if end := numberEnd(body, start); end > start {
		var err error
		want, err = strconv.ParseFloat(string(body[start:end]), 64)
		ref.i, wantOK = end, err == nil
	}
	r := wireReader{b: body}
	got, ok := r.number()
	if math.Float64bits(got) != math.Float64bits(want) || ok != wantOK || r.i != ref.i {
		return fmt.Sprintf("%q: number() = %v (%#x), %v, cursor %d; ParseFloat has %v (%#x), %v, cursor %d",
			body, got, math.Float64bits(got), ok, r.i, want, math.Float64bits(want), wantOK, ref.i)
	}
	return ""
}

// TestWireNumber is the differential gate of number() against the scanner
// and ParseFloat it replaced, on seeded inputs from every corner the
// conversion has: shortest, fixed and exponent forms, long mantissas, exact
// halfway points between two float64s and their neighbours, subnormals and
// overflow.
func TestWireNumber(t *testing.T) {
	// Two entries of the power table, as strconv holds them.
	if pow10[0] != [2]uint64{0x1732C869CD60E453, 0xFA8FD5A0081C0288} || pow10[348] != [2]uint64{0, 1 << 63} {
		t.Fatalf("1e-348 is %#x and 1e0 %#x", pow10[0], pow10[348])
	}

	n := 2_000_000
	if testing.Short() || raceEnabled() {
		n /= 20
	}
	rng := rand.New(rand.NewSource(29))
	var b []byte
	tails, checked := []string{"", ",", "]}", " "}, 0
	check := func(s []byte) {
		// At the end of the body, or followed by what the reader meets next.
		checked++
		b = append(append(b[:0], s...), tails[checked%len(tails)]...)
		if msg := numberMismatch(b); msg != "" {
			t.Fatal(msg)
		}
	}
	randomFloat := func() float64 {
		if rng.Intn(2) == 0 {
			return math.Float64frombits(rng.Uint64())
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(61)-30))
	}
	digits := func(s []byte, n int) []byte {
		for i := 0; i < n; i++ {
			s = append(s, byte('0'+rng.Intn(10)))
		}
		return s
	}
	var s []byte
	for i := 0; i < n/4; i++ {
		f := randomFloat()
		check(strconv.AppendFloat(s[:0], f, 'g', -1, 64))
		check(strconv.AppendFloat(s[:0], f, 'e', rng.Intn(22), 64))
		check(strconv.AppendFloat(s[:0], f, 'f', rng.Intn(25), 64))

		// A 1–40-digit mantissa, its point anywhere, an exponent in ±400.
		s = s[:0]
		if rng.Intn(2) == 0 {
			s = append(s, '-')
		}
		nd := 1 + rng.Intn(40)
		if in := rng.Intn(nd + 1); in == 0 {
			s = digits(append(s, '0', '.'), nd)
		} else {
			s = digits(append(s, byte('1'+rng.Intn(9))), in-1)
			if in < nd {
				s = digits(append(s, '.'), nd-in)
			}
		}
		if rng.Intn(4) > 0 {
			s = append(s, "eE"[rng.Intn(2)])
			s = append(s, []string{"", "+", "-"}[rng.Intn(3)]...)
			s = strconv.AppendInt(s, int64(rng.Intn(801)), 10)
		}
		check(s)
	}

	// The exact halfway point between a float64 and the next, normal and
	// subnormal, and its two decimal neighbours: (2m+1)·2^(e-1), written
	// as the integer (2m+1)·5^(1-e) times 10^(e-1) when e < 1.
	for i := 0; i < n/100; i++ {
		m := new(big.Int).SetUint64(rng.Uint64()>>11 | 1) // odd, up to 54 bits
		e := rng.Intn(2100) - 1100
		exp10 := 0
		if e >= 0 {
			m.Lsh(m, uint(e))
		} else {
			m.Mul(m, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(-e)), nil))
			exp10 = e
		}
		for _, d := range []int64{0, 1, -1} {
			s = new(big.Int).Add(m, big.NewInt(d)).Append(s[:0], 10)
			check(append(append(s, 'e'), strconv.Itoa(exp10)...))
		}
	}

	for _, x := range []string{
		"0", "-0", "0.0", "-0.0e-999", "0e99999999999999999999", "1e309", "-1e309", "1e-400", "1e99999999999999999999",
		"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
		"18014398509481985", "9007199254740993e3", "4.9406564584124654e-324", "2.4703282292062328e-324",
		"2.4703282292062327e-324", "2.2250738585072011e-308", "2.2250738585072012e-308", "1.7976931348623157e308",
		"1.7976931348623158e308", "1.7976931348623159e308", "9999999999999999999", "10000000000000000000",
		"99999999999999999999", "1.00000000000000000000000000000001", "0.000000000000000000000000000000001234",
		"123456789012345678.5", "1234567890123456789012345678901234567890e-40",
		"", "-", "01", "1.", ".5", "+1", "1e", "1e+", "1.e5", "-.5", "0x10", "NaN", "Infinity", "1_0", " \t\n\r1", "\"1\"",
	} {
		check([]byte(x))
	}
	t.Logf("%d inputs agree", checked)

	// The reader converts without allocating, on the way the harness writes.
	body := []byte(strings.Repeat("0.52345678901234567,", 8))
	if allocs := testing.AllocsPerRun(100, func() {
		r := wireReader{b: body}
		for r.i < len(body) {
			if _, ok := r.number(); !ok || r.next() != ',' {
				t.Fatal("declined")
			}
		}
	}); allocs != 0 {
		t.Errorf("number() allocates %.1f times", allocs)
	}
}

// FuzzWireNumber holds number() to the grammar and ParseFloat on any bytes.
func FuzzWireNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "0.5234567890123456", "-1.2345678901234567e-05", "9007199254740993", "2.4703282292062328e-324",
		"1.7976931348623159e308", "1e309", "12345678901234567890123", "1.00000000000000000000000001e-7", "01", "1.e5",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if msg := numberMismatch(body); msg != "" {
			t.Fatal(msg)
		}
	})
}
