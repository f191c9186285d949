package segment

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"karl/internal/vec"
)

// sizedSeg seals a segment of n rows carrying consecutive sequence numbers
// from seq0, so Plan and the dead-row rules see a realistic tracked
// segment.
func sizedSeg(t *testing.T, id uint64, n int, seq0 uint64) *Segment {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(id)))
	buf := randMatrix(rng, n, 2)
	seqs := make([]uint64, n)
	for i := range seqs {
		seqs[i] = seq0 + uint64(i)
	}
	seg, err := Seal(MemRun{M: buf, N: n, Seqs: seqs}, 0, cfg(), id)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return seg
}

// kill marks the segment's first k rows dead.
func kill(s *Segment, k int) {
	s.Dead = &Dead{}
	for i := 0; i < k; i++ {
		s.Dead.Add(s.Seqs[i], 1, 0, []float64{0, 0})
	}
}

// manifestOf builds a manifest of segments with the given row counts,
// ids 1..n in manifest order, sequence numbers ascending throughout.
func manifestOf(t *testing.T, lens ...int) *Manifest {
	t.Helper()
	m := &Manifest{}
	seq := uint64(1)
	for i, n := range lens {
		m.Segs = append(m.Segs, sizedSeg(t, uint64(i+1), n, seq))
		seq += uint64(n)
	}
	return m
}

// TestPlanContiguousRuns is the planner's safety property: whatever the
// tier layout — including the interleavings that dead-share rewrites
// produce by shrinking a segment out of its tier — the planned ids are a
// contiguous manifest run. Merging around a skipped segment would
// concatenate sequence numbers out of order and break Find.
func TestPlanContiguousRuns(t *testing.T) {
	p := Policy{SealSize: 4, Fanout: 4} // tier 0: <16 rows, tier 1: 16..63, tier 2: 64..
	const t0, t1, t2 = 4, 16, 64
	for _, tc := range []struct {
		name string
		lens []int
		want []uint64
	}{
		{"classic tier-0 run", []int{t0, t0, t0, t0}, []uint64{1, 2, 3, 4}},
		{"below fanout", []int{t0, t0, t0}, nil},
		{"big then run", []int{t1, t0, t0, t0, t0}, []uint64{2, 3, 4, 5}},
		{"lowest level first", []int{t1, t1, t1, t1, t0, t0, t0, t0}, []uint64{5, 6, 7, 8}},
		// A shrunken oldest segment must not be paired with tier-0
		// segments on the far side of a bigger one.
		{"shrunken oldest, short run", []int{t0, t1, t0, t0, t0}, nil},
		{"shrunken oldest, full run", []int{t0, t1, t0, t0, t0, t0}, []uint64{3, 4, 5, 6}},
		// A segment that shrank in the middle of its level keeps counting
		// against the level's budget and is re-absorbed, not stranded.
		{"shrunken middle re-absorbed", []int{t1, t0, t1, t1, t1}, []uint64{1, 2, 3, 4}},
		{"shrunken under a higher tier", []int{t2, t0, t2, t1, t1, t1, t1}, []uint64{4, 5, 6, 7}},
		{"level spans to the last big segment", []int{t0, t0, t0, t1}, []uint64{1, 2, 3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := manifestOf(t, tc.lens...)
			got := p.Plan(m)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Plan(%v) = %v, want %v", tc.lens, got, tc.want)
			}
			assertContiguous(t, m, got)
		})
	}

	// Random layouts: contiguity must hold for any mix of sizes.
	rng := rand.New(rand.NewSource(9))
	sizes := []int{1, 3, t0, 9, t1, 40, t2}
	for trial := 0; trial < 200; trial++ {
		lens := make([]int, 1+rng.Intn(12))
		for i := range lens {
			lens[i] = sizes[rng.Intn(len(sizes))]
		}
		m := manifestOf(t, lens...)
		assertContiguous(t, m, p.Plan(m))
	}
}

func assertContiguous(t *testing.T, m *Manifest, ids []uint64) {
	t.Helper()
	if len(ids) == 0 {
		return
	}
	first := -1
	for i, s := range m.Segs {
		if s.ID == ids[0] {
			first = i
		}
	}
	if first < 0 || first+len(ids) > len(m.Segs) {
		t.Fatalf("planned ids %v do not start a run inside the manifest", ids)
	}
	for j, id := range ids {
		if m.Segs[first+j].ID != id {
			t.Fatalf("planned ids %v are not a contiguous manifest run (position %d holds segment %d)", ids, first+j, m.Segs[first+j].ID)
		}
	}
}

// TestPlanDeadShare pins the dead-row rules: a rewrite is due at a
// 1/Fanout dead share, tiered merges take precedence, the most dead
// segment goes first, and untracked segments never qualify.
func TestPlanDeadShare(t *testing.T) {
	p := Policy{SealSize: 4, Fanout: 4}
	m := manifestOf(t, 40, 20, 8)
	if got := p.Plan(m); got != nil {
		t.Fatalf("Plan without dead rows = %v, want nil", got)
	}
	kill(m.Segs[0], 9) // 9/40 < 1/4
	if p.RewriteDue(m.Segs[0]) || p.Plan(m) != nil {
		t.Fatalf("rewrite planned below the 1/Fanout share")
	}
	kill(m.Segs[0], 10) // 10/40 = 1/4
	if !p.RewriteDue(m.Segs[0]) {
		t.Fatalf("rewrite not due at exactly Len/Fanout dead rows")
	}
	if got := p.Plan(m); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("Plan = %v, want the dead-heavy segment alone", got)
	}
	kill(m.Segs[1], 12) // more dead rows than segment 1 holds
	if got := p.Plan(m); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("Plan = %v, want the segment with the most dead rows", got)
	}
	if m.Segs[1].AllDead() {
		t.Fatalf("AllDead with live rows left")
	}
	kill(m.Segs[2], 8)
	if !m.Segs[2].AllDead() {
		t.Fatalf("AllDead = false with every row dead")
	}

	// A due tiered merge wins over a due rewrite.
	m2 := manifestOf(t, 40, 4, 4, 4, 4)
	kill(m2.Segs[0], 20)
	if got := p.Plan(m2); !reflect.DeepEqual(got, []uint64{2, 3, 4, 5}) {
		t.Fatalf("Plan = %v, want the tier-0 run before the rewrite", got)
	}

	// A segment without sequence numbers cannot consume tombstones.
	cs := sizedSeg(t, 7, 8, 1)
	cs.Seqs = nil
	cs.Dead = &Dead{}
	for i := 0; i < 8; i++ {
		cs.Dead.Add(uint64(100+i), 1, 0, []float64{0, 0})
	}
	if p.RewriteDue(cs) || cs.AllDead() || p.Plan(&Manifest{Segs: []*Segment{cs}}) != nil {
		t.Fatalf("an untracked segment was planned for a dead-row rewrite or drop")
	}
}

// TestMergeRejectsOutOfOrderInputs guards the invariant from the other
// side: Merge refuses inputs whose sequence numbers do not ascend across
// the concatenation instead of building a segment Find cannot search.
func TestMergeRejectsOutOfOrderInputs(t *testing.T) {
	m := manifestOf(t, 8, 8, 8)
	if _, err := Merge([]*Segment{m.Segs[2], m.Segs[0]}, MemRun{}, MergeOpts{}, cfg(), 9); err == nil ||
		!strings.Contains(err.Error(), "contiguous") {
		t.Fatalf("Merge of out-of-order inputs: err = %v, want an ordering error", err)
	}
	merged, err := Merge(m.Segs, MemRun{}, MergeOpts{Drop: map[uint64]bool{3: true, 12: true}}, cfg(), 9)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if merged.Len() != 22 {
		t.Fatalf("merged %d rows, want 22", merged.Len())
	}
	for i := 1; i < len(merged.Seqs); i++ {
		if merged.Seqs[i] <= merged.Seqs[i-1] {
			t.Fatalf("merged seqs not ascending at %d", i)
		}
	}
	for _, seq := range merged.Seqs {
		if _, ok := merged.Find(seq); !ok {
			t.Fatalf("merged segment cannot find its own seq %d", seq)
		}
	}
}

// TestDeadSet covers the tombstone set itself: ascending order whatever
// the insertion order, duplicate rejection, membership, deep copies and
// the nil receiver as the empty set.
func TestDeadSet(t *testing.T) {
	var nilSet *Dead
	if nilSet.Len() != 0 || nilSet.Has(1) || nilSet.Clone() != nil {
		t.Fatalf("nil Dead is not the empty set")
	}
	d := &Dead{}
	rng := rand.New(rand.NewSource(4))
	perm := rng.Perm(50)
	for _, v := range perm {
		seq := uint64(v*2 + 1)
		if !d.Add(seq, float64(seq), int64(seq), []float64{float64(seq), -float64(seq), 0.5}) {
			t.Fatalf("Add(%d) reported a duplicate", seq)
		}
	}
	if d.Add(11, 0, 0, []float64{0, 0, 0}) {
		t.Fatalf("duplicate Add succeeded")
	}
	if d.Len() != 50 || d.Dims != 3 {
		t.Fatalf("Len %d Dims %d, want 50 and 3", d.Len(), d.Dims)
	}
	for i, seq := range d.Seqs {
		if i > 0 && seq <= d.Seqs[i-1] {
			t.Fatalf("seqs not ascending at %d", i)
		}
		row := d.Row(i)
		if d.W[i] != float64(seq) || d.Ref[i] != int64(seq) || row[0] != float64(seq) || row[1] != -float64(seq) || row[2] != 0.5 {
			t.Fatalf("entry %d (seq %d) lost its payload: w=%v ref=%v row=%v", i, seq, d.W[i], d.Ref[i], row)
		}
		if !d.Has(seq) || d.Has(seq+1) {
			t.Fatalf("Has wrong around seq %d", seq)
		}
	}
	for i := range d.Seqs {
		if d.Norms[i] != vec.Norm2(d.Row(i)) {
			t.Fatalf("entry %d: cached norm %v, row's is %v", i, d.Norms[i], vec.Norm2(d.Row(i)))
		}
	}
	loaded := &Dead{Dims: d.Dims, Seqs: d.Seqs, W: d.W, Ref: d.Ref, Pts: d.Pts}
	if loaded.FillNorms(); !reflect.DeepEqual(loaded.Norms, d.Norms) {
		t.Fatalf("FillNorms derived %v, Add cached %v", loaded.Norms, d.Norms)
	}
	c := d.Clone()
	c.W[0], c.Pts[0] = -1, -1
	if d.W[0] == -1 || d.Pts[0] == -1 {
		t.Fatalf("Clone shares storage")
	}
}

// TestRewriteDueRent is the rent-or-buy table: with no debt RewriteDue is
// exactly the 1/Fanout dead-share rule; below the share a segment becomes
// due when the evaluations reads paid on its dead rows reach
// RowRewriteEvals·Len, not one before; a segment without sequence numbers
// is never due; and PayRent reports the crossing once.
func TestRewriteDueRent(t *testing.T) {
	p := Policy{SealSize: 4, Fanout: 4}
	const n = 40
	rent := int64(RowRewriteEvals * n)
	for _, tc := range []struct {
		name   string
		dead   int
		debt   int64
		noSeqs bool
		want   bool
	}{
		{"no dead rows", 0, 0, false, false},
		{"zero debt, below the share", n/p.Fanout - 1, 0, false, false},
		{"zero debt, at the share", n / p.Fanout, 0, false, true},
		{"zero debt, past the share", n/p.Fanout + 3, 0, false, true},
		{"one dead row, debt one below the rent", 1, rent - 1, false, false},
		{"one dead row, debt at the rent", 1, rent, false, true},
		{"below the share, debt past the rent", n/p.Fanout - 1, rent + 9, false, true},
		{"no seqs, at the share and the rent", n / p.Fanout, rent, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sizedSeg(t, 1, n, 1)
			if tc.dead > 0 {
				kill(s, tc.dead)
				s.Dead.Debt = tc.debt
			}
			if tc.noSeqs {
				s.Seqs = nil
			}
			if got := p.RewriteDue(s); got != tc.want {
				t.Fatalf("RewriteDue = %v with %d of %d rows dead and debt %d (rent %d), want %v", got, tc.dead, n, tc.debt, rent, tc.want)
			}
			if tc.debt == 0 && !tc.noSeqs {
				if parent := tc.dead > 0 && tc.dead*p.Fanout >= n; p.RewriteDue(s) != parent {
					t.Fatalf("with no debt RewriteDue differs from the dead-share rule")
				}
			}
		})
	}

	s := sizedSeg(t, 1, n, 1)
	kill(s, 1)
	if s.PayRent(rent-1) || !s.PayRent(1) || s.PayRent(1) {
		t.Fatalf("PayRent must report the charge that reaches the rent, and only that one")
	}
	if s.Dead.Debt != rent+1 {
		t.Fatalf("debt %d after charging %d", s.Dead.Debt, rent+1)
	}
}
