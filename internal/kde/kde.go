// Package kde holds Scott's-rule bandwidth selection, the rule the paper
// uses for its Type I experiments (Section V-A1). Densities, grids and
// Nadaraya–Watson regression are served by the engine itself (karl.KDE,
// karl.Regression, karl kde).
package kde

import (
	"errors"
	"fmt"
	"math"

	"karl/internal/vec"
)

// ScottGamma derives the Gaussian-kernel γ from Scott's bandwidth rule:
// h = n^{−1/(d+4)}·σ̄ with σ̄ the mean per-dimension standard deviation,
// and γ = 1/(2h²).
func ScottGamma(points *vec.Matrix) (float64, error) {
	if points == nil {
		return 0, errors.New("kde: empty point set")
	}
	return ScottGammaN(points, points.Rows)
}

// ScottGammaN is ScottGamma with an explicit cardinality n in the
// bandwidth formula. Subsampled stand-ins for a larger dataset pass the
// original cardinality here so the kernel is as sharp as it would be on
// the full data.
func ScottGammaN(points *vec.Matrix, n int) (float64, error) {
	if points == nil || points.Rows == 0 {
		return 0, errors.New("kde: empty point set")
	}
	if n < 1 {
		return 0, errors.New("kde: non-positive cardinality")
	}
	_, std := points.ColumnStats()
	var mean float64
	for _, s := range std {
		mean += s
	}
	mean /= float64(len(std))
	if mean <= 0 {
		return 0, fmt.Errorf("kde: data has zero variance in every dimension (%d identical point(s)); Scott's rule cannot pick a bandwidth — set gamma explicitly via NewKDEWithGamma", points.Rows)
	}
	h := math.Pow(float64(n), -1/(float64(points.Cols)+4)) * mean
	return 1 / (2 * h * h), nil
}
