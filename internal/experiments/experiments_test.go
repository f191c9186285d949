package experiments

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"karl/internal/index"
)

// tinyConfig keeps the integration suite fast: small datasets, few queries,
// a two-candidate grid.
func tinyConfig() Config {
	return Config{
		Scale:      1e-9, // floors every dataset at its minimum size
		MaxN:       600,
		Queries:    24,
		TuneSample: 10,
		Seed:       7,
		Grid: []Candidate{
			{Kind: index.KDTree, LeafCap: 20},
			{Kind: index.BallTree, LeafCap: 80},
		},
		DimSweep: []int{4, 8},
	}
}

// mediumConfig is big enough that pruning differences show up: Scale 1
// lets every dataset grow to the MaxN cap.
func mediumConfig() Config {
	return Config{
		Scale:      1,
		MaxN:       4000,
		Queries:    32,
		TuneSample: 12,
		Seed:       7,
		Grid: []Candidate{
			{Kind: index.KDTree, LeafCap: 40},
		},
		DimSweep: []int{4, 8},
	}
}

func TestRegistryCoversDesignDoc(t *testing.T) {
	want := []string{"fig1", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12", "fig13", "tab7", "tab8", "tab9", "tab10"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for _, id := range want {
		if _, ok := reg[id]; !ok {
			t.Fatalf("experiment %q missing from registry", id)
		}
	}
	if err := Run("not-an-experiment", tinyConfig(), nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig6KARLStopsSooner(t *testing.T) {
	res, err := Fig6BoundTrace(mediumConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KARL) == 0 || len(res.SOTA) == 0 {
		t.Fatal("empty traces")
	}
	if len(res.KARL) > len(res.SOTA) {
		t.Fatalf("KARL trace (%d iters) longer than SOTA (%d) — bounds not tighter",
			len(res.KARL), len(res.SOTA))
	}
	// At iteration 0 (root bounds), KARL's gap must be no wider than SOTA's.
	kGap := res.KARL[0].UB - res.KARL[0].LB
	sGap := res.SOTA[0].UB - res.SOTA[0].LB
	if kGap > sGap*(1+1e-9) {
		t.Fatalf("root gap KARL %v > SOTA %v", kGap, sGap)
	}
}

func TestFig7SweepShape(t *testing.T) {
	res, err := Fig7LeafCapacity(tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"home", "susy"} {
		pts := res.Sweeps[name]
		if len(pts) != 14 {
			t.Fatalf("%s: %d sweep points, want 14", name, len(pts))
		}
		for _, p := range pts {
			if p.Throughput <= 0 {
				t.Fatalf("%s: non-positive throughput at %s/%d", name, p.Kind, p.LeafCap)
			}
		}
	}
}

func TestTable7Shape(t *testing.T) {
	var buf bytes.Buffer
	res, err := Table7(mediumConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.SCAN <= 0 || row.SOTABest <= 0 || row.KARLAuto <= 0 {
			t.Fatalf("%s/%s: non-positive throughput %+v", row.Type, row.Dataset, row)
		}
		// n/a cells must follow the paper's layout.
		isEps := row.Type == TypeIEps
		if isEps != math.IsNaN(row.LibSVM) {
			t.Fatalf("%s/%s: LibSVM n/a layout wrong", row.Type, row.Dataset)
		}
		if isEps == math.IsNaN(row.Scikit) {
			t.Fatalf("%s/%s: Scikit n/a layout wrong", row.Type, row.Dataset)
		}
		switch row.Type {
		case TypeIITau, TypeIIITau:
			// The paper's biggest wins (up to 738×) are the SVM workloads;
			// KARL must beat SOTA outright on every such row, by a wide
			// margin in aggregate (checked below).
			if row.KARLAuto <= row.SOTABest {
				t.Errorf("%s/%s: KARL %v did not beat SOTA %v",
					row.Type, row.Dataset, row.KARLAuto, row.SOTABest)
			}
		default:
			// Type I advantage grows with cardinality (the paper runs
			// 120k–5M points); at this test's 4k-point scale KARL must at
			// least stay within measurement noise of SOTA.
			if row.KARLAuto < row.SOTABest*0.4 {
				t.Errorf("%s/%s: KARL %v collapsed vs SOTA %v",
					row.Type, row.Dataset, row.KARLAuto, row.SOTABest)
			}
		}
	}
	// Aggregate Type II/III margin: geometric mean speedup over SOTA ≥ 3×.
	logSum, count := 0.0, 0
	for _, row := range res.Rows {
		if row.Type == TypeIITau || row.Type == TypeIIITau {
			logSum += math.Log(row.KARLAuto / row.SOTABest)
			count++
		}
	}
	if gm := math.Exp(logSum / float64(count)); gm < 3 {
		t.Fatalf("Type II/III geometric-mean speedup %v < 3", gm)
	}
	if !strings.Contains(buf.String(), "Table VII") {
		t.Fatal("printed output missing header")
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := Fig9ThresholdSweep(tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"miniboone", "home", "susy"} {
		pts := res.Sweeps[name]
		if len(pts) == 0 {
			t.Fatalf("%s: empty sweep", name)
		}
		if len(pts) > len(fig9Offsets) {
			t.Fatalf("%s: %d points exceed the offset grid", name, len(pts))
		}
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := Fig10EpsilonSweep(tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, pts := range res.Sweeps {
		if len(pts) != 6 {
			t.Fatalf("%s: %d ε points, want 6", name, len(pts))
		}
	}
}

func TestFig11ThroughputFallsWithSize(t *testing.T) {
	res, err := Fig11SizeSweep(mediumConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tau) != 5 || len(res.Eps) != 5 {
		t.Fatalf("sweep sizes %d/%d, want 5/5", len(res.Tau), len(res.Eps))
	}
	// SCAN throughput must fall monotonically (within noise) as n grows:
	// compare first and last points.
	if res.Tau[0].SCAN <= res.Tau[len(res.Tau)-1].SCAN {
		t.Fatalf("SCAN throughput did not fall with size: %v → %v",
			res.Tau[0].SCAN, res.Tau[len(res.Tau)-1].SCAN)
	}
}

func TestFig12Shape(t *testing.T) {
	res, err := Fig12DimSweep(tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d dim points, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.SCAN <= 0 || p.KARLAuto <= 0 {
			t.Fatalf("non-positive throughput at dim %v", p.X)
		}
	}
}

func TestFig13KARLTighter(t *testing.T) {
	res, err := Fig13Tightness(mediumConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("%d rows, want 9", len(res.Rows))
	}
	for _, row := range res.Rows {
		tol := 1e-9 * (1 + row.LBSOTA + row.UBSOTA)
		if row.LBKARL > row.LBSOTA+tol {
			t.Fatalf("%s: KARL LB error %v worse than SOTA %v", row.Dataset, row.LBKARL, row.LBSOTA)
		}
		if row.UBKARL > row.UBSOTA+tol {
			t.Fatalf("%s: KARL UB error %v worse than SOTA %v", row.Dataset, row.UBKARL, row.UBSOTA)
		}
	}
}

func TestTable8AutoNearBest(t *testing.T) {
	cfg := tinyConfig()
	var buf bytes.Buffer
	res, err := Table8OfflineTuning(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !slices.Contains(cfg.Grid, row.Pick) {
			t.Fatalf("%s/%s: pick %v is not in the grid %v", row.Type, row.Dataset, row.Pick, cfg.Grid)
		}
		if !strings.Contains(buf.String(), row.Pick.String()) {
			t.Fatalf("%s/%s: printed table does not name the pick %v", row.Type, row.Dataset, row.Pick)
		}
		if row.Worst > row.Best {
			t.Fatalf("%s/%s: worst %v exceeds best %v", row.Type, row.Dataset, row.Worst, row.Best)
		}
		if row.Auto < row.Worst-1e-9 || row.Auto > row.Best+1e-9 {
			t.Fatalf("%s/%s: auto %v outside [worst %v, best %v]",
				row.Type, row.Dataset, row.Auto, row.Worst, row.Best)
		}
	}
}

func TestTable9Shape(t *testing.T) {
	res, err := Table9InSitu(tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Baseline <= 0 || row.SOTAOnline <= 0 || row.KARLOnline <= 0 {
			t.Fatalf("%s/%s: non-positive throughput %+v", row.Type, row.Dataset, row)
		}
	}
}

func TestTable10Shape(t *testing.T) {
	res, err := Table10Polynomial(tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Baseline <= 0 || row.SOTABest <= 0 || row.KARLAuto <= 0 {
			t.Fatalf("%s/%s: non-positive throughput", row.Type, row.Dataset)
		}
	}
}

func TestFig1DensityMap(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig1DensityMap(tinyConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grid) != res.Res*res.Res {
		t.Fatalf("grid size %d for res %d", len(res.Grid), res.Res)
	}
	var max float64
	for _, v := range res.Grid {
		if v < 0 {
			t.Fatalf("negative density %v", v)
		}
		if v > max {
			max = v
		}
	}
	if max <= 0 {
		t.Fatal("density surface is identically zero")
	}
	if !strings.Contains(buf.String(), "peak density") {
		t.Fatal("heatmap output missing")
	}
}
