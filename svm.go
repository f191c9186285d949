package karl

import (
	"errors"
	"fmt"

	"karl/internal/svm"
	"karl/internal/vec"
)

// SVM is a trained support vector machine whose decision function is
// served by KARL's threshold kernel aggregation: Classify(q) evaluates
// F_SV(q) > ρ with the engine's pruned refinement instead of a full scan
// over the support vectors. An SVM is safe for concurrent use, as its
// Engine is.
type SVM struct {
	eng *Engine
	// Rho is the decision threshold.
	Rho float64
	// SupportVectors is the number of support vectors retained.
	SupportVectors int
}

// SVMConfig carries the training hyperparameters.
type SVMConfig struct {
	// Kernel defaults to Gaussian(1/d) — LibSVM's default γ.
	Kernel Kernel
	// C is the 2-class soft-margin parameter (default 1).
	C float64
	// Nu is the 1-class ν in (0,1] (default 0.5).
	Nu float64
	// Index configures the engine over the support vectors (defaults match
	// Build).
	Index   IndexKind
	LeafCap int
}

func (c SVMConfig) kernelOrDefault(d int) Kernel {
	if c.Kernel.Gamma > 0 {
		return c.Kernel
	}
	return Gaussian(1 / float64(d))
}

func (c SVMConfig) leafCapOrDefault() int {
	if c.LeafCap > 0 {
		return c.LeafCap
	}
	return 80
}

// TrainOneClassSVM trains a ν-one-class SVM (Type II weighting) and wraps
// it in a KARL engine. Classify returns true for inliers.
func TrainOneClassSVM(points [][]float64, cfg SVMConfig) (*SVM, error) {
	if len(points) == 0 {
		return nil, errors.New("karl: empty training set")
	}
	m := vec.FromRows(points)
	model, err := svm.TrainOneClass(m, svm.Config{
		Kernel: cfg.kernelOrDefault(m.Cols),
		Nu:     cfg.Nu,
	})
	if err != nil {
		return nil, err
	}
	return wrapModel(model, cfg)
}

// TrainTwoClassSVM trains a 2-class C-SVM (Type III weighting) on labels
// in {−1,+1} and wraps it in a KARL engine. Classify returns true for the
// +1 class.
func TrainTwoClassSVM(points [][]float64, labels []float64, cfg SVMConfig) (*SVM, error) {
	if len(points) == 0 {
		return nil, errors.New("karl: empty training set")
	}
	if len(labels) != len(points) {
		return nil, fmt.Errorf("karl: %d labels for %d points", len(labels), len(points))
	}
	m := vec.FromRows(points)
	model, err := svm.TrainTwoClass(m, labels, svm.Config{
		Kernel: cfg.kernelOrDefault(m.Cols),
		C:      cfg.C,
	})
	if err != nil {
		return nil, err
	}
	return wrapModel(model, cfg)
}

// NewSVM wraps an externally trained kernel decision function — support
// vectors, weights w_i (= α_i·y_i), and threshold ρ, e.g. imported from a
// LibSVM model file — in a KARL-accelerated classifier.
func NewSVM(supportVectors [][]float64, weights []float64, rho float64, kern Kernel, opts ...Option) (*SVM, error) {
	if len(supportVectors) == 0 {
		return nil, errors.New("karl: no support vectors")
	}
	if len(weights) != len(supportVectors) {
		return nil, fmt.Errorf("karl: %d weights for %d support vectors", len(weights), len(supportVectors))
	}
	allOpts := append(append([]Option{}, opts...), WithWeights(weights))
	eng, err := Build(supportVectors, kern, allOpts...)
	if err != nil {
		return nil, err
	}
	return &SVM{eng: eng, Rho: rho, SupportVectors: len(supportVectors)}, nil
}

// wrapModel indexes a trained model's support vectors.
func wrapModel(model *svm.Model, cfg SVMConfig) (*SVM, error) {
	eng, err := buildMatrixCfg(model.SV, model.Kernel, configOf(
		WithWeights(model.Weights),
		WithIndex(cfg.Index, cfg.leafCapOrDefault())))
	if err != nil {
		return nil, err
	}
	return &SVM{eng: eng, Rho: model.Rho, SupportVectors: model.SV.Rows}, nil
}

// Classify answers the SVM prediction for q as a TKAQ: F_SV(q) > ρ.
func (s *SVM) Classify(q []float64) (bool, error) {
	return s.eng.Threshold(q, s.Rho)
}

// Decision returns the exact decision value F_SV(q) − ρ.
func (s *SVM) Decision(q []float64) (float64, error) {
	f, err := s.eng.Aggregate(q)
	if err != nil {
		return 0, err
	}
	return f - s.Rho, nil
}

// Engine exposes the underlying KARL engine over the support vectors.
func (s *SVM) Engine() *Engine { return s.eng }
