package blockio

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

type kind int

type label string

// sample is a value with a field of every type a block can hold; its slices
// are long enough to span several chunks.
type sample struct {
	U    uint64
	I    int
	K    kind
	I64  int64
	F    float64
	B    bool
	S    label
	F64s []float64
	I32s []int32
	U64s []uint64
	None []int64
	Opt  *sample
	Nil  *sample
}

func newSample() *sample {
	s := &sample{U: 1 << 63, I: -42, K: 3, I64: -1, F: 0.1, B: true, S: "s0/split-3",
		F64s: make([]float64, 3*chunk/8+5), I32s: make([]int32, 2*chunk/4+3), U64s: []uint64{7, 8},
		Opt: &sample{I: 9}}
	for i := range s.F64s {
		s.F64s[i] = float64(i) / 7
	}
	for i := range s.I32s {
		s.I32s[i] = int32(i - 1000)
	}
	return s
}

// block lists the sample block's fields, once, for both directions.
func (s *sample) block(c *Codec) error {
	c.Begin(TagSegment)
	c.Uint64(&s.U)
	Int(c, &s.I)
	Int(c, &s.K)
	c.Int64(&s.I64)
	c.Float64(&s.F)
	c.Bool(&s.B)
	Text(c, &s.S)
	Slice(c, &s.F64s)
	Slice(c, &s.I32s)
	Slice(c, &s.U64s)
	Slice(c, &s.None)
	if Opt(c, &s.Opt) {
		Int(c, &s.Opt.I)
	}
	if Opt(c, &s.Nil) {
		Int(c, &s.Nil.I)
	}
	return c.End()
}

func encoded(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewEncoder(&buf)
	newSample().block(c)
	n, err := c.Finish()
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("Finish = %d, %v; wrote %d", n, err, buf.Len())
	}
	return buf.Bytes()
}

func decode(data []byte) (*sample, error) {
	c := NewDecoder(bytes.NewReader(data))
	s := &sample{}
	if err := s.block(c); err != nil {
		return nil, err
	}
	_, err := c.Finish()
	return s, err
}

func TestRoundTrip(t *testing.T) {
	got, err := decode(encoded(t))
	if err != nil {
		t.Fatal(err)
	}
	if want := newSample(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if cap(got.F64s) != len(got.F64s) {
		t.Fatalf("slice of %d values decoded into capacity %d", len(got.F64s), cap(got.F64s))
	}
}

// TestDamageIsRefused: a stream cut anywhere — in a field, between a block
// and its checksum, before the end block — is an unexpected EOF, and a
// changed byte anywhere is refused.
func TestDamageIsRefused(t *testing.T) {
	data := encoded(t)
	sampled := func(i int) bool { // most of the stream is slice payload: sample that, take both ends whole
		return i < 200 || i >= len(data)-200 || i%1009 == 0
	}
	for cut := 0; cut < len(data); cut++ {
		if !sampled(cut) {
			continue
		}
		if _, err := decode(data[:cut]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d/%d: error %v, want unexpected EOF", cut, len(data), err)
		}
	}
	for i := range data {
		if !sampled(i) {
			continue
		}
		data[i] ^= 0x04
		if _, err := decode(data); err == nil {
			t.Fatalf("byte %d/%d changed: accepted", i, len(data))
		}
		data[i] ^= 0x04
	}
}

func TestDecoderRefusesOtherFormats(t *testing.T) {
	for data, want := range map[string]string{
		"\x0d\xff\x81\x03\x01\x01\x0edynamicPayload": "written before block format 8, rebuild it",
		"KARLBLK\x07": "unsupported block format version 7 (this build reads version 8)",
		"KARL":        "unexpected EOF",
	} {
		err := NewDecoder(strings.NewReader(data)).Err()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want one containing %q", data, err, want)
		}
	}
}

// TestDeclaredLengthAllocatesNothing: a 32-byte stream declaring 2⁴⁰
// points is refused having allocated far less than 1 MiB — a length only
// ever buys memory for bytes that arrived.
func TestDeclaredLengthAllocatesNothing(t *testing.T) {
	lying := func(n uint64) []byte {
		var buf bytes.Buffer
		c := NewEncoder(&buf)
		c.Begin(TagSegment)
		c.Uint64(&n)
		c.w.Flush()
		return append(buf.Bytes(), make([]byte, 15)...)
	}
	data := lying(1 << 40)
	if len(data) != 32 {
		t.Fatalf("stream is %d bytes, want 32", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewDecoder(bytes.NewReader(data))
	c.Begin(TagSegment)
	var got []float64
	Slice(c, &got)
	runtime.ReadMemStats(&after)
	if got != nil || !errors.Is(c.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("read %d values, error %v; want none and an unexpected EOF", len(got), c.Err())
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("refusing a 32-byte stream allocated %d bytes", n)
	}
	// A length no slice can have is refused outright.
	c = NewDecoder(bytes.NewReader(lying(1 << 62)))
	c.Begin(TagSegment)
	if Slice(c, &got); c.Err() == nil || !strings.Contains(c.Err().Error(), "out of range") {
		t.Fatalf("length 2^62: error %v", c.Err())
	}
}
