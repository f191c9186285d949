package experiments

import (
	"io"
	"math"

	"karl/internal/bound"
	"karl/internal/dataset"
	"karl/internal/kdtree"
	"karl/internal/scan"
)

// TightnessRow reports the averaged relative bound errors of Figure 13 for
// one dataset: Error_LB and Error_UB for both methods.
type TightnessRow struct {
	Dataset string
	Type    dataset.Weighting
	LBSOTA  float64
	LBKARL  float64
	UBSOTA  float64
	UBKARL  float64
}

// Fig13Result holds all rows, grouped as in the paper (Type I, II, III).
type Fig13Result struct {
	Rows []TightnessRow
}

// fig13Datasets lists the datasets of Figure 13 (the nine non-mnist sets).
func fig13Datasets() []string {
	return []string{
		"miniboone", "home", "susy",
		"nsl-kdd", "kdd99", "covtype",
		"ijcnn1", "a9a", "covtype-b",
	}
}

// Fig13Tightness reproduces Figure 13: the level-averaged relative error of
// the lower and upper bound functions on a kd-tree with leaf capacity 80,
//
//	Error = (1/L)·Σ_l |Σ_{R∈level l} bound(q,R) − F_P(q)| / F_P(q)
//
// averaged over the query set, for SOTA and KARL.
func Fig13Tightness(cfg Config, out io.Writer) (*Fig13Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig13Result{}
	fprintf(out, "Figure 13: average bound error per method (kd-tree, leaf 80)\n")
	fprintf(out, "%-10s %-4s %12s %12s %12s %12s\n",
		"dataset", "type", "ErrLB_SOTA", "ErrLB_KARL", "ErrUB_SOTA", "ErrUB_KARL")
	for _, name := range fig13Datasets() {
		ds, err := cfg.generate(name)
		if err != nil {
			return nil, err
		}
		row, err := tightnessRow(ds)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
		fprintf(out, "%-10s %-4s %12.4g %12.4g %12.4g %12.4g\n",
			row.Dataset, row.Type, row.LBSOTA, row.LBKARL, row.UBSOTA, row.UBKARL)
	}
	return res, nil
}

// tightnessRow measures one dataset.
func tightnessRow(ds *dataset.Dataset) (TightnessRow, error) {
	row := TightnessRow{Dataset: ds.Spec.Name, Type: ds.Spec.Weighting}
	kern := gaussianOf(ds)
	tree, err := kdtree.Build(ds.Points, ds.Weights, 80)
	if err != nil {
		return row, err
	}
	sc, err := scan.NewScanner(ds.Points, ds.Weights, kern)
	if err != nil {
		return row, err
	}
	// Cap the number of measured queries; each one walks every tree level.
	nq := ds.Queries.Rows
	if nq > 32 {
		nq = 32
	}
	var lbS, lbK, ubS, ubK float64
	var used int
	for qi := 0; qi < nq; qi++ {
		q := ds.Queries.Row(qi)
		exact := sc.Aggregate(q)
		if math.Abs(exact) < 1e-300 {
			continue // relative error undefined for a vanishing aggregate
		}
		qc := bound.NewQueryCtx(q)
		var sumLBS, sumLBK, sumUBS, sumUBK float64
		levels := 0
		for l := 0; l < tree.Height; l++ {
			var lS, lK, uS, uK float64
			for _, n := range tree.LevelNodes(l) {
				a, b := bound.NodeBounds(bound.SOTA, kern, qc, n)
				lS += a
				uS += b
				a, b = bound.NodeBounds(bound.KARL, kern, qc, n)
				lK += a
				uK += b
			}
			den := math.Abs(exact)
			sumLBS += math.Abs(exact-lS) / den
			sumLBK += math.Abs(exact-lK) / den
			sumUBS += math.Abs(uS-exact) / den
			sumUBK += math.Abs(uK-exact) / den
			levels++
		}
		lbS += sumLBS / float64(levels)
		lbK += sumLBK / float64(levels)
		ubS += sumUBS / float64(levels)
		ubK += sumUBK / float64(levels)
		used++
	}
	if used == 0 {
		return row, nil
	}
	inv := 1 / float64(used)
	row.LBSOTA, row.LBKARL = lbS*inv, lbK*inv
	row.UBSOTA, row.UBKARL = ubS*inv, ubK*inv
	return row, nil
}
