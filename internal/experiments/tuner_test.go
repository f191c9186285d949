package experiments

import (
	"testing"
	"time"

	"karl/internal/bound"
	"karl/internal/dataset"
	"karl/internal/index"
	"karl/internal/kdtree"
	"karl/internal/kernel"
	"karl/internal/vec"
)

func smallDataset(t *testing.T, name string, n, queries int, seed int64) *dataset.Dataset {
	t.Helper()
	spec, err := dataset.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.GenerateSized(spec, n, queries, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDefaultGrid(t *testing.T) {
	grid := DefaultGrid()
	if len(grid) != 14 {
		t.Fatalf("grid size %d, want 2 kinds × 7 capacities", len(grid))
	}
	seen := map[Candidate]bool{}
	for _, c := range grid {
		if seen[c] {
			t.Fatalf("duplicate candidate %v", c)
		}
		seen[c] = true
		if c.LeafCap < 10 || c.LeafCap > 640 {
			t.Fatalf("leaf capacity %d outside the paper's sweep", c.LeafCap)
		}
	}
}

func TestOfflineValidation(t *testing.T) {
	ds := smallDataset(t, "home", 3000, 60, 13)
	w := Workload{Kernel: kernel.NewGaussian(ds.Gamma), Method: bound.KARL, Tau: 1}
	if _, err := (Config{}).Offline(&dataset.Dataset{}, w, ds.Queries); err == nil {
		t.Fatal("empty point set accepted")
	}
	if _, err := (Config{}).Offline(ds, w, nil); err == nil {
		t.Fatal("nil sample accepted")
	}
	if _, err := (Config{}).Offline(ds, w, vec.NewMatrix(0, ds.Points.Cols)); err == nil {
		t.Fatal("empty sample accepted")
	}
}

func TestOfflinePicksFromGrid(t *testing.T) {
	ds := smallDataset(t, "home", 3000, 60, 13)
	w := Workload{Kernel: kernel.NewGaussian(ds.Gamma), Method: bound.KARL, Tau: 50}
	cfg := Config{MinMeasure: 5 * time.Millisecond, Grid: []Candidate{
		{Kind: index.KDTree, LeafCap: 20},
		{Kind: index.KDTree, LeafCap: 320},
		{Kind: index.BallTree, LeafCap: 80},
	}}
	results, err := cfg.Offline(ds, w, ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cfg.Grid) {
		t.Fatalf("%d results for %d candidates", len(results), len(cfg.Grid))
	}
	// Sorted best-first.
	for i := 1; i < len(results); i++ {
		if results[i].Throughput > results[i-1].Throughput {
			t.Fatal("results not sorted best-first")
		}
	}
	seen := map[Candidate]bool{}
	for _, r := range results {
		seen[r.Candidate] = true
		if r.Tree == nil {
			t.Fatal("result missing its tree")
		}
		if r.Throughput <= 0 {
			t.Fatalf("non-positive throughput %v", r.Throughput)
		}
		if r.Tree.Kind != r.Candidate.Kind || r.Tree.LeafCap != r.Candidate.LeafCap {
			t.Fatal("tree does not match its candidate")
		}
	}
	for _, c := range cfg.Grid {
		if !seen[c] {
			t.Fatalf("candidate %v not measured", c)
		}
	}
}

func TestOfflineApproximateMode(t *testing.T) {
	ds := smallDataset(t, "home", 3000, 60, 13)
	w := Workload{Kernel: kernel.NewGaussian(ds.Gamma), Method: bound.KARL, Eps: 0.2}
	cfg := Config{MinMeasure: 5 * time.Millisecond, Grid: []Candidate{{Kind: index.KDTree, LeafCap: 40}, {Kind: index.BallTree, LeafCap: 40}}}
	results, err := cfg.Offline(ds, w, ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[1].Throughput <= 0 {
		t.Fatalf("results %+v", results)
	}
}

// online runs Online and checks that it answered every query once, at a
// depth the tree it builds has.
func online(t *testing.T, ds *dataset.Dataset, w Workload, sampleFrac float64) OnlineReport {
	t.Helper()
	rep, err := Online(ds, w, sampleFrac)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QueriesRun != ds.Queries.Rows {
		t.Fatalf("answered %d of %d queries", rep.QueriesRun, ds.Queries.Rows)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput %v", rep.Throughput)
	}
	tree, err := kdtree.Build(ds.Points, ds.Weights, onlineLeafCap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChosenDepth < 0 || rep.ChosenDepth >= tree.Height {
		t.Fatalf("chosen depth %d outside the tree's height %d", rep.ChosenDepth, tree.Height)
	}
	return rep
}

func TestOnlineEndToEnd(t *testing.T) {
	ds := smallDataset(t, "home", 3000, 60, 13)
	online(t, ds, Workload{Kernel: kernel.NewGaussian(ds.Gamma), Method: bound.KARL, Tau: 50}, 0.2)
	online(t, ds, Workload{Kernel: kernel.NewGaussian(ds.Gamma), Method: bound.SOTA, Eps: 0.2}, 0.2)
}

func TestOnlineValidation(t *testing.T) {
	ds := smallDataset(t, "home", 3000, 60, 13)
	w := Workload{Kernel: kernel.NewGaussian(1), Method: bound.KARL}
	if _, err := Online(&dataset.Dataset{Queries: ds.Queries}, w, 0.1); err == nil {
		t.Fatal("empty point set accepted")
	}
	if _, err := Online(&dataset.Dataset{Points: ds.Points}, w, 0.1); err == nil {
		t.Fatal("nil queries accepted")
	}
	// An out-of-range sampleFrac falls back to the default rather than
	// erroring.
	online(t, ds, w, 5)
}

func TestOnlineTypeIIIWeights(t *testing.T) {
	ds := smallDataset(t, "ijcnn1", 1500, 40, 21)
	online(t, ds, Workload{Kernel: kernel.NewGaussian(ds.Gamma), Method: bound.KARL, Tau: ds.Tau}, 0.2)
}

func TestCandidateBuildUnknownKind(t *testing.T) {
	c := Candidate{Kind: index.Kind(9), LeafCap: 10}
	if _, err := c.build(vec.NewMatrix(4, 2), nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
