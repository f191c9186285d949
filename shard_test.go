package karl

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
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

// TestShardKeepsSourceState: the shards of a timed, policy-tuned engine
// holding buffered rows and tombstones keep the source's configuration and
// clock, and its ids: every live id deletes on exactly the shard that
// holds its point, and once the clock passes some rows' TTL the shards
// expire them as the source does.
func TestShardKeepsSourceState(t *testing.T) {
	var now atomic.Int64
	now.Store(1_700_000_000_000_000_000)
	src, err := NewDynamic(Gaussian(1), WithTTL(time.Hour), WithDecayHalfLife(10*time.Minute),
		WithSealSize(64), WithCompactionFanout(3), withClock(func() int64 { return now.Load() }))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rng := rand.New(rand.NewSource(81))
	pts := cloud(rng, 500, 3)
	w := weightsFor(rng, "typeII", len(pts))
	// The first 200 rows expire an hour after T0, the rest half an hour later.
	ids, err := src.InsertBulk(pts[:200], w[:200])
	if err != nil {
		t.Fatal(err)
	}
	now.Add(int64(30 * time.Minute))
	later, err := src.InsertBulk(pts[200:], w[200:])
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, later...)
	waitMaintenance(src)
	dead := map[uint64]bool{}
	for _, i := range []int{2, 77, 150, 260, 333, 497} {
		if err := src.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
		dead[ids[i]] = true
	}
	if st := src.Status(); st.MemtableLen == 0 || st.Tombstones == 0 {
		t.Fatalf("fixture: %d buffered rows, %d tombstones; want some of each", st.MemtableLen, st.Tombstones)
	}

	sets := map[PartitionKind][]*Engine{}
	for _, kind := range []PartitionKind{HashPartition, KDPartition} {
		shards, err := src.Shard(3, kind)
		if err != nil {
			t.Fatal(err)
		}
		sets[kind] = shards
		for i, se := range shards {
			st := se.Status()
			if st.TTL != time.Hour || st.DecayHalfLife != 10*time.Minute || se.sh.policy != src.sh.policy ||
				se.sh.bcfg != src.sh.bcfg || se.sh.kern != src.sh.kern || se.sh.method != src.sh.method {
				t.Fatalf("%v shard %d: TTL %v, half-life %v, policy %+v, build %+v; the source has %v, %v, %+v, %+v",
					kind, i, st.TTL, st.DecayHalfLife, se.sh.policy, se.sh.bcfg, time.Hour, 10*time.Minute, src.sh.policy, src.sh.bcfg)
			}
			if st.NextSeq != src.Status().NextSeq {
				t.Fatalf("%v shard %d: NextSeq %d, the source's is %d", kind, i, st.NextSeq, src.Status().NextSeq)
			}
		}
	}
	if st := src.Status(); st.MemtableLen == 0 || st.Tombstones == 0 {
		t.Fatal("Shard compacted the engine it read")
	}

	queries := cloud(rng, 8, 3)
	sumsMatch := func(when string) {
		t.Helper()
		for _, q := range queries {
			want, err := src.Aggregate(q)
			if err != nil {
				t.Fatal(err)
			}
			for kind, shards := range sets {
				got := 0.0
				for _, se := range shards {
					v, err := se.Aggregate(q)
					if err != nil {
						t.Fatal(err)
					}
					got += v
				}
				if math.Abs(got-want) > 1e-12*math.Abs(want) {
					t.Fatalf("%s, %v shards: Σ Aggregate %v, the source answers %v", when, kind, got, want)
				}
			}
		}
	}
	sumsMatch("at the cut")

	// Past the first batch's TTL: compacting drops it everywhere.
	now.Add(int64(35 * time.Minute))
	if err := src.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, shards := range sets {
		for _, se := range shards {
			if err := se.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sumsMatch("past the TTL")
	for _, id := range ids[:200] {
		if err := src.Delete(id); !errors.Is(err, ErrPointNotFound) {
			t.Fatalf("source: Delete(%d) of an expired id: %v", id, err)
		}
	}
	for kind, shards := range sets {
		n := 0
		for _, se := range shards {
			n += se.Len()
		}
		if n != src.Len() || n != 300-3 {
			t.Fatalf("%v: shards hold %d points, the source %d, want %d", kind, n, src.Len(), 300-3)
		}
	}

	for i, id := range ids {
		for kind, shards := range sets {
			holders := 0
			for s, se := range shards {
				switch err := se.Delete(id); {
				case err == nil:
					holders++
				case !errors.Is(err, ErrPointNotFound):
					t.Fatalf("%v shard %d: Delete(%d): %v", kind, s, id, err)
				}
			}
			want := 1
			if i < 200 || dead[id] {
				want = 0 // expired or deleted
			}
			if holders != want {
				t.Fatalf("%v: id %d deleted on %d shards, want %d", kind, id, holders, want)
			}
		}
	}
}
