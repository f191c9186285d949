package segment

import (
	"math/rand"
	"testing"

	"karl/internal/index"
	"karl/internal/vec"
)

func randMatrix(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func cfg() BuildConfig { return BuildConfig{Kind: index.KDTree, LeafCap: 8} }

// sealRun seals rows [start,end) of pts as one segment.
func sealRun(t *testing.T, pts *vec.Matrix, w []float64, start, end int, id uint64) *Segment {
	t.Helper()
	d := pts.Cols
	buf := vec.NewMatrix(end-start, d)
	copy(buf.Data, pts.Data[start*d:end*d])
	var bw []float64
	if w != nil {
		bw = append([]float64(nil), w[start:end]...)
	}
	seg, err := Seal(MemRun{M: buf, W: bw, N: end - start}, 0, cfg(), id)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return seg
}

// TestSealDoesNotMutateBuffer pins the invariant the memtable protocol
// depends on: sealing reads the buffer but never reorders or writes it.
func TestSealDoesNotMutateBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := randMatrix(rng, 100, 3)
	snap := append([]float64(nil), buf.Data...)
	if _, err := Seal(MemRun{M: buf, N: 64}, 0, cfg(), 1); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	for i, v := range buf.Data {
		if v != snap[i] {
			t.Fatalf("Seal mutated buffer at %d: %v != %v", i, v, snap[i])
		}
	}
}

// TestMergeBitwiseEqualsMonolithic is the heart of the equivalence gate:
// restoring per-segment insertion order and concatenating oldest-first
// must reproduce the exact tree a monolithic build over the full
// insertion stream would produce.
func TestMergeBitwiseEqualsMonolithic(t *testing.T) {
	for _, kind := range []index.Kind{index.KDTree, index.BallTree} {
		for _, weighted := range []bool{false, true} {
			rng := rand.New(rand.NewSource(7))
			n, d := 300, 4
			pts := randMatrix(rng, n, d)
			var w []float64
			if weighted {
				w = make([]float64, n)
				for i := range w {
					w[i] = rng.Float64()*2 - 1
				}
			}
			c := BuildConfig{Kind: kind, LeafCap: 8}
			// Three segments with uneven cuts.
			cuts := []int{0, 97, 211, n}
			var segs []*Segment
			for s := 0; s+1 < len(cuts); s++ {
				d0 := pts.Cols
				buf := vec.NewMatrix(cuts[s+1]-cuts[s], d0)
				copy(buf.Data, pts.Data[cuts[s]*d0:cuts[s+1]*d0])
				var bw []float64
				if w != nil {
					bw = append([]float64(nil), w[cuts[s]:cuts[s+1]]...)
				}
				seg, err := Seal(MemRun{M: buf, W: bw, N: cuts[s+1] - cuts[s]}, 0, c, uint64(s))
				if err != nil {
					t.Fatalf("Seal: %v", err)
				}
				segs = append(segs, seg)
			}
			merged, err := Merge(segs, MemRun{}, MergeOpts{}, c, 99)
			if err != nil {
				t.Fatalf("Merge: %v", err)
			}
			mono, err := c.Build(pts, w)
			if err != nil {
				t.Fatalf("monolithic build: %v", err)
			}
			mt, bt := merged.Tree, mono
			if mt.Len() != bt.Len() || len(mt.Nodes) != len(bt.Nodes) {
				t.Fatalf("kind %v weighted %v: shape mismatch: %d/%d points, %d/%d nodes",
					kind, weighted, mt.Len(), bt.Len(), len(mt.Nodes), len(bt.Nodes))
			}
			for i := range mt.Points.Data {
				if mt.Points.Data[i] != bt.Points.Data[i] {
					t.Fatalf("kind %v weighted %v: point data differs at %d", kind, weighted, i)
				}
			}
			if (mt.Weights == nil) != (bt.Weights == nil) {
				t.Fatalf("kind %v weighted %v: weights nil-ness differs", kind, weighted)
			}
			for i := range mt.Weights {
				if mt.Weights[i] != bt.Weights[i] {
					t.Fatalf("kind %v weighted %v: weight differs at %d", kind, weighted, i)
				}
			}
			for i := range mt.PointID {
				if mt.PointID[i] != bt.PointID[i] {
					t.Fatalf("kind %v weighted %v: PointID differs at %d", kind, weighted, i)
				}
			}
		}
	}
}

// TestMergeWithMemtableRun covers the full-compaction path: segments plus
// a trailing memtable run equal a monolithic build over the whole stream.
func TestMergeWithMemtableRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, d := 200, 3
	pts := randMatrix(rng, n, d)
	segA := sealRun(t, pts, nil, 0, 80, 1)
	segB := sealRun(t, pts, nil, 80, 150, 2)
	mem := vec.NewMatrix(64, d)
	copy(mem.Data, pts.Data[150*d:n*d])
	merged, err := Merge([]*Segment{segA, segB}, MemRun{M: mem, N: n - 150}, MergeOpts{}, cfg(), 3)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	mono, err := cfg().Build(pts, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if merged.Tree.Len() != mono.Len() {
		t.Fatalf("len %d != %d", merged.Tree.Len(), mono.Len())
	}
	for i := range merged.Tree.Points.Data {
		if merged.Tree.Points.Data[i] != mono.Points.Data[i] {
			t.Fatalf("point data differs at %d", i)
		}
	}
	if merged.Tree.Weights != nil {
		t.Fatalf("unit-weight merge materialized weights")
	}
}

func TestManifestOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randMatrix(rng, 90, 2)
	m := &Manifest{}
	if m.Len() != 0 || len(m.Trees()) != 0 {
		t.Fatalf("empty manifest not empty")
	}
	s1 := sealRun(t, pts, nil, 0, 30, 1)
	s2 := sealRun(t, pts, nil, 30, 60, 2)
	s3 := sealRun(t, pts, nil, 60, 90, 3)
	m1 := m.WithSealed(s1).WithSealed(s2).WithSealed(s3)
	if m1.Epoch != 3 || m1.Len() != 90 || len(m1.Segs) != 3 {
		t.Fatalf("manifest after seals: epoch %d len %d segs %d", m1.Epoch, m1.Len(), len(m1.Segs))
	}
	// Original snapshots untouched.
	if len(m.Segs) != 0 {
		t.Fatalf("WithSealed mutated receiver")
	}
	merged, err := Merge(m1.Select([]uint64{1, 2}), MemRun{}, MergeOpts{}, cfg(), 4)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	m2 := m1.WithReplaced([]uint64{1, 2}, merged)
	if m2.Epoch != 4 || len(m2.Segs) != 2 || m2.Len() != 90 {
		t.Fatalf("manifest after replace: epoch %d segs %d len %d", m2.Epoch, len(m2.Segs), m2.Len())
	}
	if m2.Segs[0].ID != 4 || m2.Segs[1].ID != 3 {
		t.Fatalf("replace misplaced merged segment: ids %d,%d", m2.Segs[0].ID, m2.Segs[1].ID)
	}
	// m1 untouched by WithReplaced.
	if len(m1.Segs) != 3 {
		t.Fatalf("WithReplaced mutated receiver")
	}
}

func TestPolicyTierAndPlan(t *testing.T) {
	p := Policy{SealSize: 100, Fanout: 4}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, tc := range []struct{ n, tier int }{
		{1, 0}, {100, 0}, {399, 0}, {400, 1}, {1599, 1}, {1600, 2},
	} {
		if got := p.Tier(tc.n); got != tc.tier {
			t.Fatalf("Tier(%d) = %d, want %d", tc.n, got, tc.tier)
		}
	}
	// Fake segments via tiny real trees are overkill here; use real seals
	// of varying sizes to exercise Plan end-to-end.
	rng := rand.New(rand.NewSource(5))
	pts := randMatrix(rng, 2000, 2)
	p2 := Policy{SealSize: 50, Fanout: 3}
	man := &Manifest{}
	// Three tier-0 segments (50 points each) → plan triggers.
	for i := 0; i < 3; i++ {
		man = man.WithSealed(sealRun(t, pts, nil, i*50, (i+1)*50, uint64(i+1)))
	}
	ids := p2.Plan(man)
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("Plan = %v, want [1 2 3]", ids)
	}
	// Two tier-0 segments only → no plan.
	man2 := &Manifest{Segs: man.Segs[:2]}
	if got := p2.Plan(man2); got != nil {
		t.Fatalf("Plan on 2 segments = %v, want nil", got)
	}
	// A large tier-1 segment plus three tier-0s → plan picks the tier-0s.
	big := sealRun(t, pts, nil, 200, 400, 9) // 200 points ≥ 150 → tier 1
	man3 := (&Manifest{}).WithSealed(big)
	for i := 0; i < 3; i++ {
		man3 = man3.WithSealed(sealRun(t, pts, nil, i*50, (i+1)*50, uint64(i+1)))
	}
	ids = p2.Plan(man3)
	if len(ids) != 3 || ids[0] != 1 {
		t.Fatalf("Plan = %v, want tier-0 ids [1 2 3]", ids)
	}
}

func TestPolicyValidate(t *testing.T) {
	for _, p := range []Policy{
		{SealSize: 0, Fanout: 4},
		{SealSize: 512, Fanout: 1},
	} {
		if err := p.Validate(); err == nil {
			t.Fatalf("Validate(%+v) = nil, want error", p)
		}
	}
	if err := (Policy{SealSize: 1, Fanout: 2}).Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
}
