package shard

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// randRows builds a deterministic random dataset. Normal coordinates are
// distinct with probability one, so no kd cut sees a tie.
func randRows(rows, cols int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

// place groups the rows of pts by the member Found's manifest routes them
// to, in input order — group i is member i+1, as Engine.Shard cuts them.
func place(t *testing.T, kind Kind, pts [][]float64, n int) [][]int {
	t.Helper()
	man, err := Found(kind, pts, n)
	if err != nil {
		t.Fatalf("Found(%v, %d): %v", kind, n, err)
	}
	groups := make([][]int, n)
	for r, p := range pts {
		id := man.Route(p)
		if id < 1 || id > uint64(n) {
			t.Fatalf("%v n=%d: row %d routed to member %d", kind, n, r, id)
		}
		groups[id-1] = append(groups[id-1], r)
	}
	return groups
}

func TestPartitionCoversAllRows(t *testing.T) {
	pts := randRows(500, 4, 1)
	for _, kind := range []Kind{Hash, KDSplit} {
		for _, n := range []int{1, 2, 4, 7} {
			total := 0
			for s, rs := range place(t, kind, pts, n) {
				if len(rs) == 0 {
					t.Fatalf("%v n=%d: shard %d empty", kind, n, s)
				}
				total += len(rs)
			}
			if total != len(pts) {
				t.Fatalf("%v n=%d: placement covers %d of %d rows", kind, n, total, len(pts))
			}
		}
	}
}

func TestKDSplitBalanced(t *testing.T) {
	pts := randRows(1003, 5, 4)
	for _, n := range []int{2, 3, 4, 8} {
		lo, hi := len(pts), 0
		for _, rs := range place(t, KDSplit, pts, n) {
			lo, hi = min(lo, len(rs)), max(hi, len(rs))
		}
		if hi-lo > 1+len(pts)/(2*n) {
			t.Fatalf("n=%d: shard sizes range [%d,%d], too unbalanced", n, lo, hi)
		}
	}
}

// TestHashStableUnderReorder pins the content-addressed property: shuffling
// the storage order must not change which shard a point lands on.
func TestHashStableUnderReorder(t *testing.T) {
	pts := randRows(200, 3, 5)
	perm := rand.New(rand.NewSource(6)).Perm(len(pts))
	shuf := make([][]float64, len(pts))
	for i, pi := range perm {
		shuf[i] = pts[pi]
	}
	shardOf := func(groups [][]int) []int {
		out := make([]int, len(pts))
		for s, rs := range groups {
			for _, r := range rs {
				out[r] = s
			}
		}
		return out
	}
	s1 := shardOf(place(t, Hash, pts, 4))
	s2 := shardOf(place(t, Hash, shuf, 4))
	for i, pi := range perm {
		if s2[i] != s1[pi] {
			t.Fatalf("point moved shard under reorder: row %d (orig %d) shard %d vs %d", i, pi, s2[i], s1[pi])
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	pts := randRows(10, 2, 7)
	same := make([][]float64, 10)
	for i := range same {
		same[i] = []float64{1, 2}
	}
	for name, c := range map[string]struct {
		kind Kind
		pts  [][]float64
		n    int
	}{
		"no points":                   {Hash, nil, 2},
		"zero shards":                 {Hash, pts, 0},
		"more shards than points":     {KDSplit, pts, 11},
		"unknown kind":                {Kind(99), pts, 2},
		"more hash shards than slots": {Hash, randRows(300, 2, 8), DefaultSlots + 1},
		"kd over identical points":    {KDSplit, same, 2},
		"kd region left identical":    {KDSplit, [][]float64{{0}, {1}, {1}, {1}}, 3},
	} {
		if _, err := Found(c.kind, c.pts, c.n); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestPlane pins the one kd cut: the widest dimension, the value at the
// rank, a cut tying the minimum moved up to the next value, and a refusal
// when no axis cut separates anything.
func TestPlane(t *testing.T) {
	rows := [][]float64{{0, 5}, {1, 5}, {2, 5}, {3, 6}, {4, 6}}
	for _, c := range []struct {
		num, den int
		cut      float64
	}{{1, 2, 2}, {1, 3, 1}, {2, 3, 3}, {0, 1, 1}} {
		dim, cut, err := Plane(rows, c.num, c.den)
		if err != nil || dim != 0 || cut != c.cut {
			t.Errorf("rank %d/%d: dim %d cut %v (%v), want dim 0 cut %v", c.num, c.den, dim, cut, err, c.cut)
		}
	}
	ties := [][]float64{{7, 0}, {7, 0}, {7, 0}, {7, 0}, {7, 9}}
	if dim, cut, err := Plane(ties, 1, 2); err != nil || dim != 1 || cut != 9 {
		t.Errorf("ties at the minimum: dim %d cut %v (%v), want dim 1 cut 9", dim, cut, err)
	}
	for _, bad := range [][][]float64{nil, {{1, 2}}, {{1, 2}, {1, 2}}} {
		if _, _, err := Plane(bad, 1, 2); err == nil {
			t.Errorf("Plane(%v) accepted", bad)
		}
	}
}

// parentPartition is the offline partitioner Engine.Shard used before the
// manifest became the only placement rule: FNV-1a mod n for hash, and for kd
// a sort on the widest dimension cut at position ⌊len·⌊k/2⌋/k⌋. It is kept
// here as the oracle that placement did not move where the two agreed.
func parentPartition(pts [][]float64, n int, kind Kind) [][]int {
	if kind == Hash {
		rows := make([][]int, n)
		var buf [8]byte
		for r, p := range pts {
			h := fnv.New64a()
			for _, v := range p {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
			s := int(h.Sum64() % uint64(n))
			rows[s] = append(rows[s], r)
		}
		return rows
	}
	var out [][]int
	var split func(rows []int, n int)
	split = func(rows []int, n int) {
		if n == 1 {
			out = append(out, rows)
			return
		}
		dim, best := 0, -1.0
		for j := range pts[0] {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, r := range rows {
				lo, hi = min(lo, pts[r][j]), max(hi, pts[r][j])
			}
			if hi-lo > best {
				dim, best = j, hi-lo
			}
		}
		sort.Slice(rows, func(i, j int) bool {
			a, b := pts[rows[i]][dim], pts[rows[j]][dim]
			if a != b {
				return a < b
			}
			return rows[i] < rows[j]
		})
		nl := n / 2
		cut := len(rows) * nl / n
		split(rows[:cut], nl)
		split(rows[cut:], n-nl)
	}
	all := make([]int, len(pts))
	for i := range all {
		all[i] = i
	}
	split(all, n)
	return out
}

// TestPlacementMatchesParentPartition is the placement oracle: where the
// parent's offline partitioner and the manifest agreed — hash with n
// dividing the 256-slot table, kd on data with no tie at a cut — every shard
// keeps exactly its rows, and under hash in the same order.
func TestPlacementMatchesParentPartition(t *testing.T) {
	pts := randRows(3000, 6, 30)
	for _, n := range []int{1, 2, 4, 8, 16} {
		got, want := place(t, Hash, pts, n), parentPartition(pts, n, Hash)
		for s := range want {
			if !slices.Equal(got[s], want[s]) {
				t.Fatalf("hash n=%d: shard %d holds %d rows, the parent placed %d (or in another order)", n, s, len(got[s]), len(want[s]))
			}
		}
	}
	for n := 1; n <= 8; n++ {
		got, want := place(t, KDSplit, pts, n), parentPartition(pts, n, KDSplit)
		for s := range want {
			slices.Sort(want[s])
			if !slices.Equal(got[s], want[s]) {
				t.Fatalf("kd n=%d: shard %d holds %d rows, the parent placed %d (or others)", n, s, len(got[s]), len(want[s]))
			}
		}
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
