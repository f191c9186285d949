package karl

import (
	"errors"

	"karl/internal/kde"
	"karl/internal/vec"
)

// KDE is a kernel density estimator accelerated by KARL: density queries
// are eKAQ, density classification ("is this region dense?") is TKAQ. A
// KDE is safe for concurrent use, as its Engine is.
type KDE struct {
	eng *Engine
	// n normalizes the aggregate into a density (weight 1/n).
	n float64
}

// NewKDE builds a Gaussian KDE over the points with Scott's-rule bandwidth
// (the paper's Type I setting). Options other than WithWeights apply;
// weights are fixed at the Type I common weight.
func NewKDE(points [][]float64, opts ...Option) (*KDE, error) {
	if len(points) == 0 {
		return nil, errors.New("karl: empty point set")
	}
	m := vec.FromRows(points)
	gamma, err := kde.ScottGamma(m)
	if err != nil {
		return nil, err
	}
	return NewKDEWithGamma(points, gamma, opts...)
}

// NewKDEWithGamma builds a Gaussian KDE with an explicit smoothing γ.
func NewKDEWithGamma(points [][]float64, gamma float64, opts ...Option) (*KDE, error) {
	eng, err := Build(points, Gaussian(gamma), opts...)
	if err != nil {
		return nil, err
	}
	return &KDE{eng: eng, n: float64(len(points))}, nil
}

// Gamma returns the estimator's smoothing parameter.
func (k *KDE) Gamma() float64 { return k.eng.Kernel().Gamma }

// Engine exposes the underlying query engine (thresholds there are in
// aggregate units, i.e. density × n).
func (k *KDE) Engine() *Engine { return k.eng }

// Density returns the density estimate at q within relative error eps.
func (k *KDE) Density(q []float64, eps float64) (float64, error) {
	v, err := k.eng.Approximate(q, eps)
	if err != nil {
		return 0, err
	}
	return v / k.n, nil
}

// DensityExceeds reports whether the density at q exceeds the threshold —
// the kernel density classification TKAQ of Gan & Bailis, served with
// KARL's bounds.
func (k *KDE) DensityExceeds(q []float64, density float64) (bool, error) {
	return k.eng.Threshold(q, density*k.n)
}
