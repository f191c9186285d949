package karl

import (
	"math"
	"math/rand"
	"testing"
)

// TestBuildCoresetTypeI checks the public entry point: the coreset engine
// is much smaller than the source, carries provenance, and its normalized
// aggregates track the full engine's within ε at ≥ 99% of queries.
func TestBuildCoresetTypeI(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n := 5000
	if testing.Short() {
		n = 1500
	}
	pts := cloud(rng, n, 3)
	full, err := Build(pts, Gaussian(25))
	if err != nil {
		t.Fatal(err)
	}
	small, err := BuildCoreset(pts, Gaussian(25), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := small.SketchInfo()
	if !ok {
		t.Fatal("no sketch info")
	}
	if info.Method != CoresetHalving {
		t.Fatalf("auto method on Type I = %v", info.Method)
	}
	if small.Len() >= full.Len()/4 {
		t.Fatalf("coreset %d of %d points: no meaningful reduction", small.Len(), full.Len())
	}
	if info.SourceLen != n || info.Len != small.Len() || info.Eps != 0.1 {
		t.Fatalf("bad provenance %+v", info)
	}
	bad := 0
	const nq = 300
	for i := 0; i < nq; i++ {
		q := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		exact, _ := full.Aggregate(q)
		approx, _ := small.Aggregate(q)
		if math.Abs(exact-approx)/info.SourceWeight > info.Eps {
			bad++
		}
	}
	if float64(bad)/nq > 0.01 {
		t.Fatalf("ε violated at %d of %d queries", bad, nq)
	}
}

// TestEngineSketchInheritsLayout checks Sketch keeps the source engine's
// index structure, leaf capacity and bounding method unless overridden.
func TestEngineSketchInheritsLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	pts := cloud(rng, 2500, 3)
	full, err := Build(pts, Gaussian(15), WithIndex(BallTree, 24), WithMethod(MethodSOTA))
	if err != nil {
		t.Fatal(err)
	}
	sk, err := full.Sketch(0.15)
	if err != nil {
		t.Fatal(err)
	}
	tree := sk.sh.man.Segs[0].Tree
	if got := tree.Kind.String(); got != "ball-tree" {
		t.Fatalf("index kind not inherited: %v", got)
	}
	if tree.LeafCap != 24 {
		t.Fatalf("leaf capacity not inherited: %d", tree.LeafCap)
	}
	if publicMethod(sk.sh.method) != MethodSOTA {
		t.Fatal("bounding method not inherited")
	}
	if _, ok := sk.SketchInfo(); !ok {
		t.Fatal("sketch info missing")
	}
	// Override on derivation.
	sk2, err := full.Sketch(0.15, WithIndex(KDTree, 8), WithCoresetMethod(CoresetUniform), WithCoresetSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if got := sk2.sh.man.Segs[0].Tree.Kind.String(); got != "kd-tree" {
		t.Fatalf("index override ignored: %v", got)
	}
	info, _ := sk2.SketchInfo()
	if info.Method != CoresetUniform {
		t.Fatalf("method override ignored: %v", info.Method)
	}
}

// TestEngineSketchTypeII checks weighted sources flow through sensitivity
// sampling with the weight total preserved.
func TestEngineSketchTypeII(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	pts := cloud(rng, 3000, 2)
	w := make([]float64, len(pts))
	var total float64
	for i := range w {
		w[i] = 0.5 + rng.Float64()*2
		total += w[i]
	}
	full, err := Build(pts, Gaussian(12), WithWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	sk, err := full.Sketch(0.1)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := sk.SketchInfo()
	if info.Method != CoresetSensitivity {
		t.Fatalf("auto method on Type II = %v", info.Method)
	}
	if math.Abs(info.SourceWeight-total) > 1e-6*total {
		t.Fatalf("source weight %v, want %v", info.SourceWeight, total)
	}
}

// TestSketchRejectsTypeIII: mixed-sign engines have no normalized-error
// sketch; the error must say why.
func TestSketchRejectsTypeIII(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	pts := cloud(rng, 500, 2)
	w := make([]float64, len(pts))
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	full, err := Build(pts, Gaussian(5), WithWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Sketch(0.1); err == nil {
		t.Fatal("Type III sketch accepted")
	}
	if _, err := BuildCoreset(pts, Gaussian(5), 0.1, WithWeights(w)); err == nil {
		t.Fatal("Type III BuildCoreset accepted")
	}
	// Non-distance kernels are rejected too.
	if _, err := BuildCoreset(pts, Polynomial(1, 1, 2), 0.1); err == nil {
		t.Fatal("polynomial-kernel coreset accepted")
	}
	// Bad eps values.
	for _, eps := range []float64{0, -0.1, 1, math.NaN()} {
		if _, err := BuildCoreset(pts, Gaussian(5), eps); err == nil {
			t.Fatalf("eps=%v accepted", eps)
		}
	}
	if _, err := BuildCoreset(nil, Gaussian(5), 0.1); err == nil {
		t.Fatal("empty point set accepted")
	}
}

// TestKDECompress checks the density-level contract: compressed densities
// stay within ε of the exact full-set densities (density is the
// normalized aggregate, so the coreset bound transfers one-to-one).
func TestKDECompress(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	n := 4000
	if testing.Short() {
		n = 1200
	}
	pts := cloud(rng, n, 2)
	k, err := NewKDE(pts)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := k.Compress(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Gamma() != k.Gamma() {
		t.Fatalf("bandwidth changed: %v vs %v", ck.Gamma(), k.Gamma())
	}
	info, ok := ck.Engine().SketchInfo()
	if !ok {
		t.Fatal("compressed KDE has no sketch info")
	}
	if info.SourceLen != n {
		t.Fatalf("provenance source %d, want %d", info.SourceLen, n)
	}
	bad := 0
	const nq = 200
	for i := 0; i < nq; i++ {
		q := []float64{rng.Float64(), rng.Float64()}
		exact, err := k.Engine().Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ck.Density(q, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-exact/float64(n)) > info.Eps {
			bad++
		}
	}
	if float64(bad)/nq > 0.01 {
		t.Fatalf("density ε violated at %d of %d queries", bad, nq)
	}
}

// TestCoresetCloneCarriesProvenance: server pools clone coreset engines;
// the provenance must follow the clone.
func TestCoresetCloneCarriesProvenance(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	pts := cloud(rng, 1000, 2)
	eng, err := BuildCoreset(pts, Gaussian(10), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ci, ok := eng.Clone().SketchInfo()
	if !ok {
		t.Fatal("clone lost sketch info")
	}
	oi, _ := eng.SketchInfo()
	if ci != oi {
		t.Fatalf("clone provenance %+v differs from %+v", ci, oi)
	}
}
