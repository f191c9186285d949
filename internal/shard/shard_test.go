package shard

import (
	"math/rand"
	"testing"

	"karl/internal/vec"
)

// randMatrix builds a deterministic random dataset.
func randMatrix(t *testing.T, rows, cols int, seed int64) *vec.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		r := m.Row(i)
		for j := range r {
			r[j] = rng.NormFloat64()
		}
	}
	return m
}

// checkPermutation asserts the plan's row lists tile 0..rows-1 exactly
// once.
func checkPermutation(t *testing.T, p *Plan, rows int) {
	t.Helper()
	seen := make([]bool, rows)
	total := 0
	for s, rs := range p.Rows {
		if len(rs) == 0 {
			t.Fatalf("shard %d empty", s)
		}
		for _, r := range rs {
			if r < 0 || r >= rows || seen[r] {
				t.Fatalf("row %d out of range or duplicated", r)
			}
			seen[r] = true
			total++
		}
	}
	if total != rows {
		t.Fatalf("plan covers %d of %d rows", total, rows)
	}
}

func TestPartitionCoversAllRows(t *testing.T) {
	m := randMatrix(t, 500, 4, 1)
	for _, kind := range []Kind{Hash, KDSplit} {
		for _, n := range []int{1, 2, 4, 7} {
			p, err := Partition(m, n, kind)
			if err != nil {
				t.Fatalf("%v n=%d: %v", kind, n, err)
			}
			if len(p.Rows) != n {
				t.Fatalf("%v n=%d: got %d row lists", kind, n, len(p.Rows))
			}
			checkPermutation(t, p, m.Rows)
		}
	}
}

func TestKDSplitBalanced(t *testing.T) {
	m := randMatrix(t, 1003, 5, 4)
	for _, n := range []int{2, 3, 4, 8} {
		p, err := Partition(m, n, KDSplit)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		lo, hi := m.Rows, 0
		for _, rs := range p.Rows {
			if len(rs) < lo {
				lo = len(rs)
			}
			if len(rs) > hi {
				hi = len(rs)
			}
		}
		if hi-lo > 1+m.Rows/(2*n) {
			t.Fatalf("n=%d: shard sizes range [%d,%d], too unbalanced", n, lo, hi)
		}
	}
}

// TestHashStableUnderReorder pins the content-addressed property: shuffling
// the storage order must not change which shard a point lands on.
func TestHashStableUnderReorder(t *testing.T) {
	m := randMatrix(t, 200, 3, 5)
	perm := rand.New(rand.NewSource(6)).Perm(m.Rows)
	shuf := vec.NewMatrix(m.Rows, m.Cols)
	for i, pi := range perm {
		copy(shuf.Row(i), m.Row(pi))
	}
	p1, err := Partition(m, 4, Hash)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Partition(shuf, 4, Hash)
	if err != nil {
		t.Fatal(err)
	}
	shardOf := func(p *Plan, rows int) []int {
		out := make([]int, rows)
		for s, rs := range p.Rows {
			for _, r := range rs {
				out[r] = s
			}
		}
		return out
	}
	s1 := shardOf(p1, m.Rows)
	s2 := shardOf(p2, m.Rows)
	for i, pi := range perm {
		if s2[i] != s1[pi] {
			t.Fatalf("point moved shard under reorder: row %d (orig %d) shard %d vs %d", i, pi, s2[i], s1[pi])
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	m := randMatrix(t, 10, 2, 7)
	if _, err := Partition(nil, 2, Hash); err == nil {
		t.Fatal("nil matrix accepted")
	}
	if _, err := Partition(m, 0, Hash); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := Partition(m, 11, KDSplit); err == nil {
		t.Fatal("more shards than points accepted")
	}
	if _, err := Partition(m, 2, Kind(99)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{"hash": Hash, "kd": KDSplit, "kd-split": KDSplit} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Fatalf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("bad kind accepted")
	}
}
