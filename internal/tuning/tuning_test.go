package tuning

import (
	"testing"

	"karl/internal/bound"
	"karl/internal/dataset"
	"karl/internal/index"
	"karl/internal/kernel"
	"karl/internal/vec"
)

func smallDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	spec, err := dataset.ByName("home")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.GenerateSized(spec, 3000, 60, 13)
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
			t.Fatalf("duplicate candidate %+v", c)
		}
		seen[c] = true
		if c.LeafCap < 10 || c.LeafCap > 640 {
			t.Fatalf("leaf capacity %d outside the paper's sweep", c.LeafCap)
		}
	}
}

func TestOfflineValidation(t *testing.T) {
	ds := smallDataset(t)
	w := Workload{Kernel: kernel.NewGaussian(ds.Gamma), Method: bound.KARL, Mode: Threshold, Tau: 1}
	if _, err := Offline(nil, nil, w, ds.Queries, nil); err == nil {
		t.Fatal("nil points accepted")
	}
	if _, err := Offline(ds.Points, nil, w, nil, nil); err == nil {
		t.Fatal("nil sample accepted")
	}
}

func TestOfflinePicksFromGrid(t *testing.T) {
	ds := smallDataset(t)
	w := Workload{Kernel: kernel.NewGaussian(ds.Gamma), Method: bound.KARL, Mode: Threshold, Tau: 50}
	grid := []Candidate{
		{Kind: index.KDTree, LeafCap: 20},
		{Kind: index.KDTree, LeafCap: 320},
		{Kind: index.BallTree, LeafCap: 80},
	}
	results, err := Offline(ds.Points, nil, w, ds.Queries, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(grid) {
		t.Fatalf("%d results for %d candidates", len(results), len(grid))
	}
	// Sorted best-first.
	for i := 1; i < len(results); i++ {
		if results[i].Throughput > results[i-1].Throughput {
			t.Fatal("results not sorted best-first")
		}
	}
	for _, r := range results {
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
}

func TestOfflineApproximateMode(t *testing.T) {
	ds := smallDataset(t)
	w := Workload{Kernel: kernel.NewGaussian(ds.Gamma), Method: bound.KARL, Mode: Approximate, Eps: 0.2}
	grid := []Candidate{{Kind: index.KDTree, LeafCap: 40}, {Kind: index.BallTree, LeafCap: 40}}
	results, err := Offline(ds.Points, nil, w, ds.Queries, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
}

func TestOnlineEndToEnd(t *testing.T) {
	ds := smallDataset(t)
	w := Workload{Kernel: kernel.NewGaussian(ds.Gamma), Method: bound.KARL, Mode: Threshold, Tau: 50}
	rep, err := Online(ds.Points, nil, w, ds.Queries, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QueriesRun != ds.Queries.Rows {
		t.Fatalf("ran %d of %d queries", rep.QueriesRun, ds.Queries.Rows)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput %v", rep.Throughput)
	}
	if rep.BuildTime <= 0 {
		t.Fatal("build time missing")
	}
	if rep.ChosenDepth < 0 {
		t.Fatalf("chosen depth %d", rep.ChosenDepth)
	}
}

func TestOnlineValidation(t *testing.T) {
	ds := smallDataset(t)
	w := Workload{Kernel: kernel.NewGaussian(1), Method: bound.KARL, Mode: Threshold}
	if _, err := Online(nil, nil, w, ds.Queries, 0.1); err == nil {
		t.Fatal("nil points accepted")
	}
	if _, err := Online(ds.Points, nil, w, nil, 0.1); err == nil {
		t.Fatal("nil queries accepted")
	}
	// Out-of-range sampleFrac falls back to the default rather than erroring.
	if _, err := Online(ds.Points, nil, w, ds.Queries, 5); err != nil {
		t.Fatalf("sampleFrac fallback failed: %v", err)
	}
}

func TestOnlineTypeIIIWeights(t *testing.T) {
	spec, _ := dataset.ByName("ijcnn1")
	ds, err := dataset.GenerateSized(spec, 1500, 40, 21)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Kernel: kernel.NewGaussian(ds.Gamma), Method: bound.KARL, Mode: Threshold, Tau: ds.Tau}
	rep, err := Online(ds.Points, ds.Weights, w, ds.Queries, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QueriesRun != 40 {
		t.Fatalf("ran %d queries", rep.QueriesRun)
	}
}

func TestCandidateBuildUnknownKind(t *testing.T) {
	c := Candidate{Kind: index.Kind(9), LeafCap: 10}
	if _, err := c.build(vec.NewMatrix(4, 2), nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
