package karl

import (
	"math/rand"
	"testing"
)

func normalRows(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64()
		}
	}
	return pts
}

func buildShards(t *testing.T, pts [][]float64, n int, kind PartitionKind) []*Engine {
	t.Helper()
	eng, err := Build(pts, Gaussian(0.5))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	shards, err := eng.Shard(n, kind)
	if err != nil {
		t.Fatalf("Shard(%d, %v): %v", n, kind, err)
	}
	return shards
}

// TestShardKDBalanced: kd shards cut at rank ⌊k/2⌋/k differ in size by
// little more than the rounding of every cut, and hold every point.
func TestShardKDBalanced(t *testing.T) {
	pts := normalRows(1003, 5, 4)
	for _, n := range []int{2, 3, 4, 8} {
		lo, hi, total := len(pts), 0, 0
		for _, se := range buildShards(t, pts, n, KDPartition) {
			lo, hi, total = min(lo, se.Len()), max(hi, se.Len()), total+se.Len()
		}
		if total != len(pts) || hi-lo > 1+len(pts)/(2*n) {
			t.Fatalf("n=%d: %d points in shards of [%d,%d], want %d, balanced", n, total, lo, hi, len(pts))
		}
	}
}

// TestShardHashStableUnderReorder pins the content-addressed property
// through Engine.Shard: an engine over the same points in another order
// puts every point on the same shard.
func TestShardHashStableUnderReorder(t *testing.T) {
	pts := normalRows(200, 3, 5)
	shuf := make([][]float64, len(pts))
	for i, pi := range rand.New(rand.NewSource(6)).Perm(len(pts)) {
		shuf[i] = pts[pi]
	}
	holder := func(shards []*Engine) map[[3]float64]int {
		out := map[[3]float64]int{}
		for s, se := range shards {
			m := se.sh.man.Segs[0].Tree.Points
			for r := 0; r < m.Rows; r++ {
				out[[3]float64(m.Row(r))] = s
			}
		}
		return out
	}
	h1 := holder(buildShards(t, pts, 4, HashPartition))
	h2 := holder(buildShards(t, shuf, 4, HashPartition))
	if len(h1) != len(pts) {
		t.Fatalf("shards hold %d distinct points, want %d", len(h1), len(pts))
	}
	for p, s := range h1 {
		if h2[p] != s {
			t.Fatalf("point %v on shard %d, on shard %d after a reorder", p, s, h2[p])
		}
	}
}

// TestShardErrors: the counts a cluster cannot be founded with, data no kd
// cut separates, and a hash placement that leaves a shard empty are
// refused.
func TestShardErrors(t *testing.T) {
	eng, err := Build(normalRows(300, 2, 7), Gaussian(0.5))
	if err != nil {
		t.Fatal(err)
	}
	same, err := Build([][]float64{{1, 2}, {1, 2}, {1, 2}}, Gaussian(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		eng  *Engine
		n    int
		kind PartitionKind
	}{
		"zero shards":                 {eng, 0, HashPartition},
		"more shards than points":     {eng, 301, KDPartition},
		"more hash shards than slots": {eng, 257, HashPartition},
		"unknown kind":                {eng, 2, PartitionKind(9)},
		"kd over identical points":    {same, 2, KDPartition},
		"hash shard left empty":       {same, 2, HashPartition},
	} {
		if _, err := c.eng.Shard(c.n, c.kind); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
