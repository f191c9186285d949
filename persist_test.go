package karl

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"karl/internal/blockio"
	"karl/internal/index"
	"karl/internal/segment"
)

func TestEngineRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := cloud(rng, 400, 3)
	w := make([]float64, len(pts))
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	orig, err := Build(pts, Polynomial(0.5, 1, 3),
		WithWeights(w), WithIndex(BallTree, 32), WithMethod(MethodSOTA))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() || loaded.Dims() != orig.Dims() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", loaded.Len(), loaded.Dims(), orig.Len(), orig.Dims())
	}
	if loaded.Kernel() != orig.Kernel() {
		t.Fatal("kernel changed")
	}
	// Identical answers on a batch of queries.
	for i := 0; i < 30; i++ {
		q := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		a, _ := orig.Aggregate(q)
		b, _ := loaded.Aggregate(q)
		if a != b {
			t.Fatalf("Aggregate diverged: %v vs %v", a, b)
		}
		ta, _ := orig.Threshold(q, a*1.01)
		tb, _ := loaded.Threshold(q, a*1.01)
		if ta != tb {
			t.Fatal("Threshold diverged")
		}
	}
}

func TestEngineRoundTripUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := cloud(rng, 100, 2)
	orig, err := Build(pts, Gaussian(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.3, 0.3}
	a, _ := orig.Aggregate(q)
	b, _ := loaded.Aggregate(q)
	if a != b {
		t.Fatalf("diverged: %v vs %v", a, b)
	}
}

func TestSVMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 150
	pts := make([][]float64, n)
	labels := make([]float64, n)
	for i := range pts {
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		labels[i] = sign
		pts[i] = []float64{sign + rng.NormFloat64()*0.3, sign + rng.NormFloat64()*0.3}
	}
	orig, err := TrainTwoClassSVM(pts, labels, SVMConfig{Kernel: Gaussian(1)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSVM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Rho != orig.Rho || loaded.SupportVectors != orig.SupportVectors {
		t.Fatalf("model metadata changed: ρ %v vs %v, SVs %d vs %d",
			loaded.Rho, orig.Rho, loaded.SupportVectors, orig.SupportVectors)
	}
	for i := 0; i < 40; i++ {
		q := []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
		a, _ := orig.Classify(q)
		b, _ := loaded.Classify(q)
		if a != b {
			t.Fatalf("classification diverged at %v", q)
		}
	}
	// An SVM file is an engine file that also carries ρ: it loads as the
	// engine over the support vectors, and an engine file is no SVM.
	var model, plain bytes.Buffer
	if _, err := orig.WriteTo(&model); err != nil {
		t.Fatal(err)
	}
	eng, err := ReadEngine(&model)
	if err != nil || eng.Len() != orig.SupportVectors {
		t.Fatalf("SVM file as an engine: %v", err)
	}
	if _, err := eng.WriteTo(&plain); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSVM(&plain); err == nil || !strings.Contains(err.Error(), "not an SVM model") {
		t.Fatalf("engine file as an SVM: error %v", err)
	}
}

func TestReadEngineRejectsGarbage(t *testing.T) {
	if _, err := ReadEngine(bytes.NewReader([]byte("not a block stream"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadSVM(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadEngineRejectsBadVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	eng, _ := Build(cloud(rng, 50, 2), Gaussian(1))
	var buf bytes.Buffer
	if _, err := eng.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[streamStart-1] = 99
	_, err := ReadEngine(bytes.NewReader(data))
	if err == nil {
		t.Fatal("bad version accepted")
	}
	// The error must name the offending version and the readable one, so
	// operators can tell a stale binary from a corrupt file.
	for _, want := range []string{"version 99", "reads version 8"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("version error %q does not mention %q", err, want)
		}
	}
	data[streamStart-1] = 0
	if _, err := ReadEngine(bytes.NewReader(data)); err == nil {
		t.Fatal("version 0 accepted")
	}
}

// segmentStream renders one segment, with the given dead set, as a stream of
// its one segment block; readSegmentStream validates such a stream.
func segmentStream(s *segment.Segment, dead *segment.Dead) []byte {
	var buf bytes.Buffer
	c := blockio.NewEncoder(&buf)
	segmentBlock(c, s, dead)
	c.Finish()
	return buf.Bytes()
}

func readSegmentStream(data []byte) (*segment.Segment, error) {
	c := blockio.NewDecoder(bytes.NewReader(data))
	seg, err := segmentBlock(c, nil, nil)
	if err == nil {
		_, err = c.Finish()
	}
	return seg, err
}

// TestV4RestoreRejectsCorruptIndex ensures the reconstruction path refuses
// a segment block whose checksum is good but whose node arrays or row
// mapping are structurally broken, instead of building a bad tree.
func TestV4RestoreRejectsCorruptIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	eng, _ := Build(cloud(rng, 200, 2), Gaussian(1))
	seg := eng.sh.man.Segs[0]
	if _, err := readSegmentStream(segmentStream(seg, nil)); err != nil {
		t.Fatalf("sound segment block refused: %v", err)
	}
	broken := func(mutate func(*index.Tree)) error {
		tree := *seg.Tree
		tree.Nodes = append([]index.Node(nil), tree.Nodes...)
		tree.PointID = append([]int32(nil), tree.PointID...)
		mutate(&tree)
		bad := segment.New(&tree, seg.ID, seg.Seqs, seg.Times, seg.TimeRef)
		_, err := readSegmentStream(segmentStream(bad, nil))
		return err
	}
	if broken(func(t *index.Tree) { t.Nodes[0].Right = 0 }) == nil { // right child cannot point at the root
		t.Fatal("corrupt node arrays accepted")
	}
	if broken(func(t *index.Tree) { t.PointID[0] = t.PointID[1] }) == nil { // duplicate mapping
		t.Fatal("duplicate PointID accepted")
	}
}

// TestDynamicRoundTrip pins the dynamic format: a segmented engine with sealed
// segments, a compacted tier and a partially filled memtable reloads with
// the identical manifest and bitwise-identical answers, and keeps
// accepting inserts.
func TestDynamicRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// Auto-compaction off: a background compaction landing between WriteTo's
	// snapshot and the bitwise comparison below would change the original's
	// summation order (the answers stay within ε, but this test pins
	// bitwise equality, which needs identical segment layouts).
	d, err := NewDynamic(Gaussian(3), WithIndex(BallTree, 16), WithSealSize(64),
		WithCompactionFanout(2), WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		if err := d.Insert(p, rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	n, err := d.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != d.Len() || loaded.Dims() != d.Dims() || loaded.Kernel() != d.Kernel() {
		t.Fatal("shape or kernel changed across round trip")
	}
	origSegs, loadSegs := d.Status().Segments, loaded.Status().Segments
	if len(origSegs) != len(loadSegs) {
		t.Fatalf("segment count changed: %d vs %d", len(origSegs), len(loadSegs))
	}
	for i := range origSegs {
		if origSegs[i] != loadSegs[i] {
			t.Fatalf("segment %d changed: %+v vs %+v", i, origSegs[i], loadSegs[i])
		}
	}
	if ls, ds := loaded.Status(), d.Status(); ls.Epoch != ds.Epoch || ls.Seals != ds.Seals {
		t.Fatal("epoch or seal count changed")
	}
	for i := 0; i < 25; i++ {
		q := []float64{rng.Float64(), rng.Float64()}
		a, err := d.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("Aggregate diverged: %v vs %v", a, b)
		}
		ta, _ := d.Threshold(q, a*1.01)
		tb, _ := loaded.Threshold(q, a*1.01)
		if ta != tb {
			t.Fatal("Threshold diverged")
		}
	}
	// The reloaded engine keeps working as a mutable engine.
	for i := 0; i < 100; i++ {
		if err := loaded.Insert([]float64{rng.Float64(), rng.Float64()}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if loaded.Len() != d.Len()+100 {
		t.Fatalf("Len after post-load inserts = %d", loaded.Len())
	}
}

// TestDynamicRoundTripEmptyMemtableOnly covers the two degenerate layouts:
// only buffered points (no segments), and a freshly compacted single
// segment with an empty memtable.
func TestDynamicRoundTripEmptyMemtableOnly(t *testing.T) {
	d, _ := NewDynamic(Gaussian(1))
	for i := 0; i < 10; i++ {
		if err := d.Insert([]float64{float64(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := d.Aggregate([]float64{2})
	b, err := loaded.Aggregate([]float64{2})
	if err != nil || a != b {
		t.Fatalf("memtable-only round trip diverged: %v vs %v (%v)", a, b, err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err = ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st := loaded.Status()
	if st.MemtableLen != 0 || len(st.Segments) != 1 {
		t.Fatalf("compacted layout changed: mem %d segs %d", st.MemtableLen, len(st.Segments))
	}
	b, _ = loaded.Aggregate([]float64{2})
	a, _ = d.Aggregate([]float64{2})
	if a != b {
		t.Fatalf("compacted round trip diverged: %v vs %v", a, b)
	}
}

// roundTrip serializes and reloads an engine, asserting identical answers
// on sampled queries.
func roundTrip(t *testing.T, orig *Engine, rng *rand.Rand) *Engine {
	t.Helper()
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() || loaded.Dims() != orig.Dims() || loaded.Kernel() != orig.Kernel() {
		t.Fatal("shape or kernel changed across round trip")
	}
	for i := 0; i < 25; i++ {
		q := make([]float64, orig.Dims())
		for j := range q {
			q[j] = rng.Float64()
		}
		a, _ := orig.Aggregate(q)
		b, _ := loaded.Aggregate(q)
		if a != b {
			t.Fatalf("Aggregate diverged: %v vs %v", a, b)
		}
		ta, _ := orig.Threshold(q, a*1.02)
		tb, _ := loaded.Threshold(q, a*1.02)
		if ta != tb {
			t.Fatal("Threshold diverged")
		}
	}
	return loaded
}

// TestEngineRoundTripMixedSign covers a Type III engine (mixed-sign
// weights, P⁺/P⁻ decomposition) end to end.
func TestEngineRoundTripMixedSign(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pts := cloud(rng, 350, 3)
	w := make([]float64, len(pts))
	for i := range w {
		w[i] = rng.NormFloat64() // both signs
	}
	orig, err := Build(pts, Gaussian(4), WithWeights(w), WithIndex(KDTree, 16))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, orig, rng)
}
