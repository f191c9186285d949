package karl

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedCorpus loads every committed golden fixture, the valid streams
// this build refuses by name (an index kind or bounding method it does not
// have, a trace of the removed cold-compaction tier), and a few
// hand-written degenerate inputs, so the fuzzer starts from accepted and
// refused streams of both shapes alike and mutates from there.
//
// Note for interactive use: gob streams minimize poorly (nearly every
// byte is load-bearing), so run with a bounded minimization budget or
// the default 60s-per-interesting-input stalls all visible progress:
//
//	go test -fuzz FuzzRead -fuzztime 30s -fuzzminimizetime 100x
func fuzzSeedCorpus(f *testing.F) {
	f.Helper()
	names, err := filepath.Glob(filepath.Join(goldenDir, "*.bin"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, c := range append(outOfEnumStreams(f), coldCompactionStreams(f)...) {
		f.Add(c.data)
	}
	f.Add([]byte{})
	f.Add([]byte("not a gob"))
	// A gob stream whose type section is valid but whose value is cut off.
	if len(names) > 0 {
		raw, _ := os.ReadFile(names[0])
		if len(raw) > 40 {
			f.Add(raw[:len(raw)/2])
		}
	}
}

// FuzzRead hammers the one reader, seeded with both stream shapes: arbitrary
// bytes must either load into a usable engine or fail with a clean error —
// never panic, never return a broken engine that panics on first use. The
// dynamic shape has far more cross-field invariants to validate (per-segment
// sequence numbers, tombstone references, memtable parallel arrays), so a
// stream that decodes must yield an engine whose query, mutation and
// re-serialization paths work.
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
