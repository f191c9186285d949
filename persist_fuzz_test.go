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
// volume under a valid checksum — and a replication stream, whose
// held-segment block a file reader refuses.
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
