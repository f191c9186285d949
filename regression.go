package karl

import (
	"errors"
	"fmt"
)

// Regression is a Nadaraya–Watson kernel regressor served by two KARL
// engines: the prediction E[y|q] = Σ y_i·K(q,p_i) / Σ K(q,p_i) is a ratio
// of two kernel aggregations, each answered as an eKAQ. Kernel regression
// is one of the future-work directions named in the paper's conclusion. A
// Regression is safe for concurrent use, as its engines are.
type Regression struct {
	num   *Engine // weights y_i (any sign → Type III machinery)
	den   *Engine // unit weights
	prior float64 // mean of y, returned when the denominator vanishes
}

// NewRegression builds a Gaussian kernel regressor over (points, targets)
// with smoothing γ.
func NewRegression(points [][]float64, targets []float64, gamma float64, opts ...Option) (*Regression, error) {
	if len(points) == 0 {
		return nil, errors.New("karl: empty point set")
	}
	if len(targets) != len(points) {
		return nil, fmt.Errorf("karl: %d targets for %d points", len(targets), len(points))
	}
	numOpts := append(append([]Option{}, opts...), WithWeights(targets))
	num, err := Build(points, Gaussian(gamma), numOpts...)
	if err != nil {
		return nil, err
	}
	den, err := Build(points, Gaussian(gamma), opts...)
	if err != nil {
		return nil, err
	}
	var prior float64
	for _, y := range targets {
		prior += y
	}
	prior /= float64(len(targets))
	return &Regression{num: num, den: den, prior: prior}, nil
}

// Predict estimates E[y|q], computing numerator and denominator each
// within relative error eps (so the ratio's error is ≈ 2·eps for small
// eps). When the local density underflows to zero the prior (mean target)
// is returned.
func (r *Regression) Predict(q []float64, eps float64) (float64, error) {
	den, err := r.den.Approximate(q, eps)
	if err != nil {
		return 0, err
	}
	if den == 0 {
		return r.prior, nil
	}
	num, err := r.num.Approximate(q, eps)
	if err != nil {
		return 0, err
	}
	return num / den, nil
}

// PredictExact computes the regression estimate with exact aggregations.
func (r *Regression) PredictExact(q []float64) (float64, error) {
	den, err := r.den.Aggregate(q)
	if err != nil {
		return 0, err
	}
	if den == 0 {
		return r.prior, nil
	}
	num, err := r.num.Aggregate(q)
	if err != nil {
		return 0, err
	}
	return num / den, nil
}

// MultiSVM is a one-vs-one multi-class kernel SVM whose pairwise votes are
// KARL-accelerated TKAQs — the paper's other named future-work direction.
// A MultiSVM is safe for concurrent use, as its pairwise SVMs are.
type MultiSVM struct {
	// Classes lists the distinct labels in ascending order.
	Classes []int
	// models[pairIdx(a,b)] decides class a (true) vs class b.
	models []*SVM
}

// pairIdx maps unordered class-index pairs (a<b) over k classes to a flat
// index in the strictly-upper-triangular enumeration.
func pairIdx(a, b, k int) int { return a*(2*k-a-1)/2 + (b - a - 1) }

// TrainMultiClassSVM trains a one-vs-one ensemble on integer labels.
func TrainMultiClassSVM(points [][]float64, labels []int, cfg SVMConfig) (*MultiSVM, error) {
	if len(points) == 0 {
		return nil, errors.New("karl: empty training set")
	}
	if len(labels) != len(points) {
		return nil, fmt.Errorf("karl: %d labels for %d points", len(labels), len(points))
	}
	seen := map[int]bool{}
	var classes []int
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			classes = append(classes, l)
		}
	}
	if len(classes) < 2 {
		return nil, errors.New("karl: need at least two classes")
	}
	// Ascending order for deterministic pair indexing.
	for i := 0; i < len(classes); i++ {
		for j := i + 1; j < len(classes); j++ {
			if classes[j] < classes[i] {
				classes[i], classes[j] = classes[j], classes[i]
			}
		}
	}
	k := len(classes)
	mm := &MultiSVM{Classes: classes, models: make([]*SVM, k*(k-1)/2)}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			var sub [][]float64
			var y []float64
			for i, l := range labels {
				switch l {
				case classes[a]:
					sub = append(sub, points[i])
					y = append(y, 1)
				case classes[b]:
					sub = append(sub, points[i])
					y = append(y, -1)
				}
			}
			m, err := TrainTwoClassSVM(sub, y, cfg)
			if err != nil {
				return nil, fmt.Errorf("karl: pair (%d,%d): %w", classes[a], classes[b], err)
			}
			mm.models[pairIdx(a, b, k)] = m
		}
	}
	return mm, nil
}

// Predict returns the majority-vote class; ties break toward the smaller
// label, matching LibSVM.
func (mm *MultiSVM) Predict(q []float64) (int, error) {
	k := len(mm.Classes)
	votes := make([]int, k)
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			positive, err := mm.models[pairIdx(a, b, k)].Classify(q)
			if err != nil {
				return 0, err
			}
			if positive {
				votes[a]++
			} else {
				votes[b]++
			}
		}
	}
	best := 0
	for c := 1; c < k; c++ {
		if votes[c] > votes[best] {
			best = c
		}
	}
	return mm.Classes[best], nil
}
