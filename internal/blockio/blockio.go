// Package blockio is the one place that knows how KARL's persistent data is
// laid out in bytes: engine files, replication streams and cluster
// manifests are all block streams moved through a Codec.
//
// A stream is the 8-byte header "KARLBLK" + format version, then blocks,
// then an end block. A block is one tag byte, the block's fields back to
// back, and the CRC-32C (Castagnoli) of everything from the tag on as four
// little-endian bytes. Fields are fixed-width little-endian: integers and
// float bit patterns are 8 bytes, a bool is 1, a string or slice is its
// element count (8 bytes) followed by the elements at their own width, and
// a matrix is a slice of its rows back to back.
// Blocks carry no length, so a block is verified exactly when it has been
// read to its checksum, and a stream that ends anywhere before its end
// block — block boundaries included — fails with io.ErrUnexpectedEOF.
//
// A Codec works in one direction, and every field call takes a pointer: an
// encoder writes what it points at, a decoder overwrites it with what it
// reads. The fields of a block are therefore listed once, by a function
// that the package owning the data runs in either direction (the engine,
// segment, held-segment and memtable blocks in package karl, the manifest
// block in internal/shard, the rows block in internal/server); DESIGN.md
// §5.2a has the table.
package blockio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"
)

// Version is the one format version this build writes and reads. It follows
// on from the seven gob-encoded versions earlier builds wrote, none of which
// this build reads.
const Version = 8

const magic = "KARLBLK"

// Block tags.
const (
	TagEnd      byte = iota // closes every stream; no fields
	TagEngine               // engine header: kernel, policy, counters, provenance
	TagSegment              // one sealed segment, whole, with its dead rows
	TagMemtable             // the buffered rows of an engine
	TagManifest             // a cluster manifest
	TagHeld                 // a segment the puller of a replication stream already holds: id and dead seqs
	TagRows                 // the rows of a bulk insert: dims, the points row-major, the weights
)

// chunk is the I/O buffer size, the unit slices are decoded in, and the most
// a declared slice length may allocate before any byte backing it has
// arrived.
const chunk = 64 << 10

// minChunk is the least an encoder into memory buffers.
const minChunk = 4 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Codec encodes onto a writer or decodes from a reader. Errors are sticky:
// after the first one every call is a no-op (a decoder leaves what it is
// pointed at untouched), and End, Finish and Err report it — so a block is
// moved field by field without a check per field, and nothing decoded from a
// block may be used before End has returned nil.
type Codec struct {
	w   *bufio.Writer // set on an encoder
	r   *bufio.Reader // set on a decoder
	crc uint32        // of the open block so far
	n   int64
	// left is how many bytes past those decoded a decoder's input is known
	// to hold, -1 when it is not known.
	left int64
	err  error
}

// NewEncoder starts a stream on w. It buffers chunk bytes, or, writing into
// a bytes.Buffer, what that has room for, between minChunk and chunk bytes.
func NewEncoder(w io.Writer) *Codec {
	size := chunk
	if b, ok := w.(*bytes.Buffer); ok {
		size = min(max(b.Available(), minChunk), chunk)
	}
	c := &Codec{w: bufio.NewWriterSize(w, size)}
	elems(c, []byte(magic+string(rune(Version))))
	return c
}

// NewDecoder opens the stream in r. It reads ahead of what it decodes, by
// at most chunk bytes and never by more than r is known to hold.
func NewDecoder(r io.Reader) *Codec {
	left, size := unread(r), chunk
	if left >= 0 && left < chunk {
		size = int(left)
	}
	c := &Codec{r: bufio.NewReaderSize(r, size), left: left}
	var head [len(magic) + 1]byte
	if elems(c, head[:]); c.err != nil {
		return c
	}
	if string(head[:len(magic)]) != magic {
		c.fail(fmt.Errorf("not a block-format stream: not a KARL file, or one written before block format %d, rebuild it", Version))
	} else if head[len(magic)] != Version {
		c.fail(fmt.Errorf("unsupported block format version %d (this build reads version %d)", head[len(magic)], Version))
	}
	return c
}

// unread returns how many bytes r is known to hold — an in-memory reader's
// Len, a regular file's size past its offset — or -1.
func unread(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case *os.File:
		st, err := r.Stat()
		off, err2 := r.Seek(0, io.SeekCurrent)
		if err == nil && err2 == nil && st.Mode().IsRegular() {
			return st.Size() - off
		}
	}
	return -1
}

// Unread returns how many bytes past those decoded a decoder's input holds,
// or a negative number when its length is not known (see unread): after
// Finish, a positive count is data behind the stream's end block.
func (c *Codec) Unread() int64 { return c.left }

// Decoding reports the Codec's direction.
func (c *Codec) Decoding() bool { return c.r != nil }

// Err returns the first error met.
func (c *Codec) Err() error { return c.err }

func (c *Codec) fail(err error) {
	if c.err == nil {
		c.err = fmt.Errorf("blockio: %w", err)
	}
}

// Elem is an element type a field can hold: a slice's, or a fixed-width
// field's once converted.
type Elem interface {
	float64 | int64 | uint64 | int32 | byte
}

// elems moves s, little-endian, through the buffer between the Codec and its
// stream — every byte of the stream passes through here and into the open
// block's checksum. An encoder encodes into the bufio.Writer's free space, a
// decoder decodes in place out of the bufio.Reader's buffered bytes: no
// staging buffer and no reflection. A decoder that meets the end of its
// input fails with io.ErrUnexpectedEOF.
func elems[T Elem](c *Codec, s []T) {
	size := int(unsafe.Sizeof(*new(T)))
	for len(s) > 0 && c.err == nil {
		var b []byte
		if c.w != nil {
			if c.w.Available() < size {
				if err := c.w.Flush(); err != nil {
					c.fail(err)
					return
				}
			}
			b = c.w.AvailableBuffer()[:min(len(s), c.w.Available()/size)*size]
			put(b, s)
			if _, err := c.w.Write(b); err != nil {
				c.fail(err)
			}
			c.n += int64(len(b))
		} else {
			var err error
			if b, err = c.r.Peek(min(len(s)*size, c.r.Size())); len(b) < size {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				c.fail(err)
				return
			}
			b = b[:len(b)/size*size]
			get(s, b)
			c.r.Discard(len(b))
			c.left -= int64(len(b))
		}
		c.crc = crc32.Update(c.crc, castagnoli, b)
		s = s[len(b)/size:]
	}
}

// put encodes the head of s that fills b.
func put[T Elem](b []byte, s []T) {
	le := binary.LittleEndian
	switch s := any(s).(type) {
	case []float64:
		for i := range len(b) / 8 {
			le.PutUint64(b[8*i:], math.Float64bits(s[i]))
		}
	case []int64:
		for i := range len(b) / 8 {
			le.PutUint64(b[8*i:], uint64(s[i]))
		}
	case []uint64:
		for i := range len(b) / 8 {
			le.PutUint64(b[8*i:], s[i])
		}
	case []int32:
		for i := range len(b) / 4 {
			le.PutUint32(b[4*i:], uint32(s[i]))
		}
	case []byte:
		copy(b, s)
	}
}

// get decodes b into the head of s.
func get[T Elem](s []T, b []byte) {
	le := binary.LittleEndian
	switch s := any(s).(type) {
	case []float64:
		for i := range len(b) / 8 {
			s[i] = math.Float64frombits(le.Uint64(b[8*i:]))
		}
	case []int64:
		for i := range len(b) / 8 {
			s[i] = int64(le.Uint64(b[8*i:]))
		}
	case []uint64:
		for i := range len(b) / 8 {
			s[i] = le.Uint64(b[8*i:])
		}
	case []int32:
		for i := range len(b) / 4 {
			s[i] = int32(le.Uint32(b[4*i:]))
		}
	case []byte:
		copy(s, b)
	}
}

// one moves the single value v points at.
func one[T Elem](c *Codec, v *T) { elems(c, unsafe.Slice(v, 1)) }

// Begin opens a block: an encoder writes the tag, a decoder fails unless the
// next block has it.
func (c *Codec) Begin(tag byte) {
	c.crc = 0
	got := tag
	one(c, &got)
	if c.err == nil && got != tag {
		c.fail(fmt.Errorf("block tag %d where %d was expected", got, tag))
	}
}

// Next returns the tag of the block a decoder is about to read without
// consuming it, for where a stream holds either of two blocks. At the end of
// the input it returns TagEnd and leaves the error to the Begin that follows.
func (c *Codec) Next() byte {
	if b, err := c.r.Peek(1); c.err == nil && err == nil {
		return b[0]
	}
	return TagEnd
}

// Sum returns the checksum of the open block as far as it has been moved,
// in either direction: taken after a block's last immutable field it is a
// fingerprint of them that writer and reader agree on.
func (c *Codec) Sum() uint32 { return c.crc }

// End closes the open block with its checksum: an encoder writes it, a
// decoder fails unless the stored one matches the bytes read since Begin.
// It returns the first error met.
func (c *Codec) End() error {
	sum := c.crc
	var got [4]byte
	binary.LittleEndian.PutUint32(got[:], sum)
	elems(c, got[:])
	if c.err == nil && binary.LittleEndian.Uint32(got[:]) != sum {
		c.fail(errors.New("block checksum mismatch"))
	}
	return c.err
}

// Finish closes the stream with its end block; an encoder then hands every
// pending byte to its writer. It returns the bytes written and the first
// error met.
func (c *Codec) Finish() (int64, error) {
	c.Begin(TagEnd)
	if c.End() == nil && c.w != nil {
		if err := c.w.Flush(); err != nil {
			c.fail(err)
		}
	}
	return c.n, c.err
}

// The field calls: one per field type of the layout above.

func (c *Codec) Uint64(v *uint64)   { one(c, v) }
func (c *Codec) Int64(v *int64)     { one(c, v) }
func (c *Codec) Float64(v *float64) { one(c, v) }

// Bool moves a bool as one byte, 1 for true; a decoder reads any other
// nonzero byte as true too.
func (c *Codec) Bool(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	one(c, &b)
	if c.r != nil && c.err == nil {
		*v = b != 0
	}
}

// Int moves an int or int32, or a value of an enum type built on one.
func Int[T ~int | ~int32](c *Codec, v *T) {
	n := int64(*v)
	one(c, &n)
	if c.r != nil && c.err == nil {
		*v = T(n)
	}
}

// Text moves a string, or a value of a type built on string.
func Text[T ~string](c *Codec, v *T) {
	b := []byte(*v)
	Slice(c, &b)
	if c.r != nil && c.err == nil {
		*v = T(b)
	}
}

// Opt moves an optional part of a block: one bool saying whether *p is
// there. It reports whether the caller is to move the fields of **p next; a
// decoder has then pointed *p at a new T.
func Opt[T any](c *Codec, p **T) bool {
	has := *p != nil
	c.Bool(&has)
	if has && c.r != nil && c.err == nil {
		*p = new(T)
	}
	return has && c.err == nil
}

// Slice moves a slice: its length, then the elements. A decoder allocates
// the declared length at once when its input is known to hold the bytes
// (see unread), fails with io.ErrUnexpectedEOF before allocating when it is
// known not to, and otherwise grows the slice chunk by chunk as the bytes
// arrive — never beyond the declared length, and never to more than chunk
// bytes plus twice what has actually been read. Either way a stream cannot
// make it allocate by declaring a length. It hands back exactly the slice it
// filled, nil for length zero.
func Slice[T Elem](c *Codec, v *[]T) {
	n := len(*v)
	Int(c, &n)
	if c.r == nil {
		elems(c, *v)
		return
	}
	if c.err != nil {
		return
	}
	*v = nil
	if n == 0 {
		return
	}
	size := int(unsafe.Sizeof(*new(T)))
	if n < 0 || n > math.MaxInt/size {
		c.fail(fmt.Errorf("declared length %d out of range", n))
		return
	}
	if c.left >= 0 && int64(n*size) > c.left {
		c.fail(io.ErrUnexpectedEOF)
		return
	}
	per := chunk / size
	out := make([]T, 0, min(n, per))
	if c.left >= 0 {
		out = make([]T, 0, n)
	}
	for len(out) < n {
		if len(out) == cap(out) {
			grown := make([]T, len(out), min(n, 2*cap(out)))
			copy(grown, out)
			out = grown
		}
		k := min(cap(out)-len(out), per)
		elems(c, out[len(out):len(out)+k])
		if c.err != nil {
			return
		}
		out = out[:len(out)+k]
	}
	*v = out
}

// Rows moves a matrix of rows of dims elements as one slice field: the
// element count, then the rows back to back, so an encoder writes rows held
// apart without gathering them first. A decoder reads the elements into one
// array and hands back rows cut from it, each capped at dims; a count that
// is not a whole number of rows fails it. An encoder fails on a row that is
// not dims long.
func Rows[T Elem](c *Codec, dims int, v *[][]T) {
	if c.r != nil {
		var flat []T
		Slice(c, &flat)
		if c.err != nil {
			return
		}
		*v = nil
		if len(flat) == 0 {
			return
		}
		if dims < 1 || len(flat)%dims != 0 {
			c.fail(fmt.Errorf("%d elements are not rows of %d", len(flat), dims))
			return
		}
		rows := make([][]T, len(flat)/dims)
		for i := range rows {
			rows[i] = flat[i*dims : (i+1)*dims : (i+1)*dims]
		}
		*v = rows
		return
	}
	n := len(*v) * dims
	Int(c, &n)
	for i, row := range *v {
		if len(row) != dims {
			c.fail(fmt.Errorf("row %d has %d elements, not %d", i, len(row), dims))
			return
		}
		elems(c, row)
	}
}
