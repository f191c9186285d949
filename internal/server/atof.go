package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// pow10 holds 10^e for e in [-348, 347] as the 128-bit mantissa strconv's
// Eisel–Lemire table holds, {low, high} with the high bit of high set: 10^e
// truncated to 128 bits for e ≥ 0, 2^k/10^-e rounded down for e < 0.
var pow10 = func() (t [696][2]uint64) {
	var w [16]byte
	for i := range t {
		e := i - 348
		x := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		n := x.BitLen()
		switch {
		case e < 0:
			x.Quo(new(big.Int).Lsh(big.NewInt(1), uint(127+n)), x)
		case n > 128:
			x.Rsh(x, uint(n-128))
		default:
			x.Lsh(x, uint(128-n))
		}
		x.FillBytes(w[:])
		t[i] = [2]uint64{binary.BigEndian.Uint64(w[8:]), binary.BigEndian.Uint64(w[:8])}
	}
	return t
}()

// eiselLemire is strconv's eiselLemire64 step for step (Lemire, "Number
// Parsing at a Gigabyte per Second", arXiv:2101.11408): man·10^exp10
// correctly rounded, strconv's answer to the bit, or false outside the
// table, at a halfway ambiguity, for a subnormal or an overflow.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	var sign uint64
	if neg {
		sign = 1 << 63
	}
	if man == 0 {
		return math.Float64frombits(sign), true
	}
	if exp10 < -348 || exp10 > 347 {
		return 0, false
	}
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	p := &pow10[exp10+348]
	hi, lo := bits.Mul64(man, p[1])
	if hi&0x1FF == 0x1FF && lo+man < man { // too close to call on 64 bits: widen to 128
		yHi, yLo := bits.Mul64(man, p[0])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	mant = (mant + mant&1) >> 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	return math.Float64frombits(sign | exp2<<52 | mant&(1<<52-1)), true
}

// eight reads b[i:i+8] as the number its eight ASCII digits spell, if that is
// what they are: all eight at once in one little-endian word.
func eight(b []byte, i int) (uint64, bool) {
	v := binary.LittleEndian.Uint64(b[i:])
	if v&0xF0F0F0F0F0F0F0F0|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
		return 0, false
	}
	v -= 0x3030303030303030
	v = v*10 + v>>8 // each byte pair as one number
	return (v&0x000000FF000000FF*(100+1000000<<32) + v>>16&0x000000FF000000FF*(1+10000<<32)) >> 32, true
}

// gather appends the digits at b[i:] to man for as long as it holds at most
// 19 significant ones. It returns the index after the digits, man, how many
// digits man did not take, and exact unless one of those was not a zero.
func gather(b []byte, i int, man uint64, exact bool) (int, uint64, int, bool) {
	left := 0
	for ; ; i++ {
		for man < 1e11 && i+8 <= len(b) { // eight at a time while they fit
			v, ok := eight(b, i)
			if !ok {
				break
			}
			man, i = man*1e8+v, i+8
		}
		if i == len(b) || b[i]-'0' > 9 {
			return i, man, left, exact
		}
		if c := b[i] - '0'; man < 1e18 {
			man = man*10 + uint64(c)
		} else {
			left, exact = left+1, exact && c == 0
		}
	}
}
