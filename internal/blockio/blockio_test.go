package blockio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
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

// sliceStream is a stream of one block holding s, and the offset its
// elements start at.
func sliceStream[T Elem](t *testing.T, s []T) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	c := NewEncoder(&buf)
	c.Begin(TagSegment)
	Slice(c, &s)
	c.End()
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), len(magic) + 1 + 1 + 8 // header, tag, length
}

// decodeSlice reads the stream sliceStream wrote. With hide set the input
// does not show its length, so the decoder grows the slice as bytes arrive.
func decodeSlice[T Elem](data []byte, hide bool) ([]T, error) {
	var r io.Reader = bytes.NewReader(data)
	if hide {
		r = struct{ io.Reader }{r}
	}
	c := NewDecoder(r)
	c.Begin(TagSegment)
	var got []T
	Slice(c, &got)
	if err := c.End(); err != nil {
		return got, err
	}
	_, err := c.Finish()
	return got, err
}

// codecEdges round-trips slices of one element type at the lengths around
// the chunk a decoder grows by — 0, 1, per−1, per, per+1 and 3·per+7
// elements — through an input that shows its length and one that hides it,
// and damages each: a stream cut inside the elements is an unexpected EOF,
// a changed element byte a checksum mismatch.
func codecEdges[T Elem](t *testing.T, gen func(i int) T) {
	size := int(unsafe.Sizeof(*new(T)))
	per := chunk / size
	for _, n := range []int{0, 1, per - 1, per, per + 1, 3*per + 7} {
		want := make([]T, n)
		for i := range want {
			want[i] = gen(i)
		}
		data, at := sliceStream(t, want)
		if len(data) != at+n*size+4+5 { // elements, checksum, end block
			t.Fatalf("%T × %d: stream of %d bytes", want, n, len(data))
		}
		for _, hide := range []bool{false, true} {
			got, err := decodeSlice[T](data, hide)
			if err != nil || len(got) != n || cap(got) != n || (got == nil) != (n == 0) {
				t.Fatalf("%T × %d (hidden length %v): decoded %d of cap %d, %v", want, n, hide, len(got), cap(got), err)
			}
			if again, _ := sliceStream(t, got); !bytes.Equal(again, data) {
				t.Fatalf("%T × %d (hidden length %v): decoded values differ", want, n, hide)
			}
			for _, cut := range []int{at - 1, at, at + 1, at + size - 1, at + size, at + n*size/2, at + n*size - 1} {
				if cut >= at+n*size {
					continue
				}
				if _, err := decodeSlice[T](data[:cut], hide); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("%T × %d cut at element byte %d: %v, want unexpected EOF", want, n, cut-at, err)
				}
			}
			if n > 0 {
				bad := append([]byte(nil), data...)
				bad[at+n*size/2] ^= 0x20
				if _, err := decodeSlice[T](bad, hide); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
					t.Fatalf("%T × %d with an element byte changed: %v", want, n, err)
				}
			}
		}
	}
}

// TestSliceChunkEdges runs codecEdges for every element type a field holds,
// with values whose every byte matters: signs, NaN payloads, negative zero.
func TestSliceChunkEdges(t *testing.T) {
	codecEdges(t, func(i int) float64 {
		switch i % 5 {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return math.Float64frombits(0x7ff8_0000_0000_0001 + uint64(i))
		}
		return float64(i) / -7
	})
	codecEdges(t, func(i int) int64 { return int64(i)*-0x1234_5678_9ab + 1 })
	codecEdges(t, func(i int) uint64 { return uint64(i) * 0x9e37_79b9_7f4a_7c15 })
	codecEdges(t, func(i int) int32 { return int32(i) * -0x0765_4321 })
	codecEdges(t, func(i int) byte { return byte(i * 31) })
}

// TestUnread: what a decoder may allocate for at once is what its input
// provably holds past its offset — an in-memory reader's or a regular file's
// — and nothing for a pipe or a reader that hides its length.
func TestUnread(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, make([]byte, 100), 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(30, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()
	for what, c := range map[string]struct {
		r    io.Reader
		want int64
	}{
		"bytes.Reader":   {bytes.NewReader(make([]byte, 12)), 12},
		"strings.Reader": {strings.NewReader("abc"), 3},
		"file at 30":     {f, 70},
		"pipe":           {pr, -1},
		"hidden":         {struct{ io.Reader }{bytes.NewReader(make([]byte, 12))}, -1},
	} {
		if got := unread(c.r); got != c.want {
			t.Errorf("%s: unread %d, want %d", what, got, c.want)
		}
	}
}
