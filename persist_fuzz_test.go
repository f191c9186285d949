package karl

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"
)

// fuzzSeedCorpus starts the fuzzer from accepted and refused streams alike:
// every committed fixture (the frozen gob-era one included), the well-formed
// streams this build refuses by name, a coreset engine and an SVM file
// (engine blocks with provenance and ρ), and the ways a stream gets damaged
// in the field — cut mid-block, cut at a block boundary, one byte off, a
// version this build does not read, a length with no bytes behind it, a NaN
// volume or a kd cell poking out of its parent under a valid checksum — and
// a replication stream, whose held-segment block a file reader refuses.
func fuzzSeedCorpus(f *testing.F) {
	f.Helper()
	names, err := filepath.Glob(filepath.Join(goldenDir, "*.bin"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range names {
		f.Add(readFixture(f, filepath.Base(name)))
	}
	for _, c := range outOfEnumStreams(f) {
		f.Add(c.data)
	}
	sketch, err := goldenStaticEngine(f).Sketch(0.3)
	if err != nil {
		f.Fatal(err)
	}
	svm, err := NewSVM([][]float64{{0, 0}, {1, 1}, {0, 1}}, []float64{1, -1, 0.5}, 0.1, Gaussian(1))
	if err != nil {
		f.Fatal(err)
	}
	for _, w := range []io.WriterTo{sketch, svm} {
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	built, streamed := readFixture(f, "built.bin"), readFixture(f, "streamed.bin")
	f.Add([]byte{})
	f.Add([]byte("not a KARL file"))
	f.Add(built[:len(built)/2])
	f.Add(streamed[:blockEnds(f, streamed)[1]])
	flipped := append([]byte(nil), streamed...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	future := append([]byte(nil), built...)
	future[streamStart-1] = 99
	f.Add(future)
	f.Add(lyingLength(f))
	_, delta := deltaStream(f)
	f.Add(delta)
	f.Add(nanVolumeStream(f))
	f.Add(widenedChildStream(f))
	_, cells := emptyCellStream(f)
	f.Add(cells)
}

// emptyCellStream returns an engine whose second segment was cut on its
// first one's skeleton from points bunched in one corner, so most of that
// segment's cells own no rows, and the engine's file.
func emptyCellStream(t testing.TB) (*Engine, []byte) {
	t.Helper()
	d, err := NewDynamic(Gaussian(2), WithIndex(KDTree, 4), WithSealSize(32), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		p := []float64{float64(i%8) / 8, float64(i/8) / 8} // a grid, then a corner
		if i >= 32 {
			p = []float64{0.9 + float64(i%4)/100, 0.9 + float64(i%3)/100}
		}
		if err := d.Insert(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	segs := d.sh.man.Segs
	if len(segs) != 2 || !segs[1].Tree.SameShape(segs[0].Tree) || segs[1].Tree.Node(1).Count() != 0 {
		t.Fatal("the second segment is not cut on the first one's skeleton with an empty cell")
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return d, buf.Bytes()
}

// TestReadEmptyCellSegment: a segment with empty cells loads, regroups with
// the segment it was cut beside, answers bitwise like the engine written,
// and its file is refused at every cut.
func TestReadEmptyCellSegment(t *testing.T) {
	want, data := emptyCellStream(t)
	d, err := ReadEngine(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("empty-cell segment refused: %v", err)
	}
	for _, q := range [][]float64{{0.1, 0.2}, {0.92, 0.91}, {0.5, 0.5}} {
		a, _, err := d.ApproximateStats(q, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := want.ApproximateStats(q, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if a != b || d.f.Groups() != 1 {
			t.Fatalf("at %v: %v and %v over %d groups", q, a, b, d.f.Groups())
		}
	}
	refusedAtEveryCut(t, "empty-cell stream", data, readsEngine)
}

// lyingLength is the built fixture cut just past the point count of its
// segment block, with that count rewritten to 2⁴⁰.
func lyingLength(t testing.TB) []byte {
	t.Helper()
	built := readFixture(t, "built.bin")
	countOff := blockEnds(t, built)[0] + segKindOff + 3*8 // kind, leaf capacity, dims
	return patched(t, built, countOff, 1<<40)[:countOff+8+16]
}

// FuzzRead hammers the one reader: arbitrary bytes must either load into a
// usable engine or fail with a clean error — never panic, never allocate
// for a length the bytes do not back, never return a broken engine that
// panics on first use. A stream that loads must yield an engine whose
// query, mutation and re-serialization paths work.
func FuzzRead(f *testing.F) { fuzzReadEngine(f) }

// FuzzReadDynamic replays the same corpus through the same body: the name
// the seed-corpus run has always listed beside FuzzRead. CI fuzzes FuzzRead.
func FuzzReadDynamic(f *testing.F) { fuzzReadEngine(f) }

func fuzzReadEngine(f *testing.F) {
	fuzzSeedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		eng, err := ReadEngine(bytes.NewReader(data))
		if err != nil {
			return
		}
		defer eng.Close()
		q := make([]float64, eng.Dims())
		if _, err := eng.Aggregate(q); err != nil {
			t.Logf("aggregate on decoded engine: %v", err)
		}
		// Exercise the mutability surfaces the decoder is supposed to have
		// validated: delete an early ID (either outcome is fine, panics are
		// not) and round-trip.
		_ = eng.Delete(1)
		var sink bytes.Buffer
		if _, err := eng.WriteTo(&sink); err != nil {
			t.Fatalf("re-serialize decoded engine: %v", err)
		}
	})
}
