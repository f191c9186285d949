package karl

import (
	"fmt"

	"karl/internal/coreset"
	"karl/internal/vec"
)

// CoresetMethod selects a sketch construction for BuildCoreset,
// Engine.Sketch and KDE.Compress.
type CoresetMethod int

const (
	// CoresetAuto picks halving for identical (Type I) weights and
	// sensitivity sampling for positive (Type II) weights.
	CoresetAuto = CoresetMethod(coreset.Auto)
	// CoresetUniform is uniform sampling with Hoeffding size selection
	// (Type I baseline).
	CoresetUniform = CoresetMethod(coreset.Uniform)
	// CoresetHalving is the discrepancy/merge-halving construction in the
	// spirit of Phillips–Tai near-optimal KDE coresets (Type I Gaussian
	// and the other distance kernels).
	CoresetHalving = CoresetMethod(coreset.Halving)
	// CoresetSensitivity is weight-proportional importance sampling
	// (Type II positive weights).
	CoresetSensitivity = CoresetMethod(coreset.Sensitivity)
)

// String implements fmt.Stringer.
func (m CoresetMethod) String() string { return coreset.Method(m).String() }

// SketchBasis labels the nature of a sketch's ε bound. No construction
// yields a uniform deterministic guarantee; Basis tells consumers which
// weaker form they hold.
type SketchBasis string

const (
	// SketchBasisUnknown is the zero value, seen only on engines restored
	// from files written before the basis was recorded.
	SketchBasisUnknown SketchBasis = ""
	// SketchBasisExact marks an identity sketch (S = P): zero error,
	// deterministic.
	SketchBasisExact SketchBasis = "exact"
	// SketchBasisHoeffding marks a sampling construction: ε holds per
	// query with probability ≥ 1−δ (SketchInfo.Delta), not uniformly over
	// queries.
	SketchBasisHoeffding SketchBasis = "hoeffding"
	// SketchBasisEmpirical marks the halving construction: ε was validated
	// on a held-out query sample with a 2× margin, not proved;
	// out-of-sample queries can exceed it.
	SketchBasisEmpirical SketchBasis = "empirical"
)

// SketchInfo records a coreset engine's provenance: where its points came
// from and what error bound its construction advertises. The bound is on
// the normalized aggregate: |F_P(q)/W − F_S(q)/W_S| ≤ Eps, with W (= W_S)
// the source total weight. Basis records the nature of that bound
// (high-probability per query, or empirically validated) — it is not a
// uniform deterministic guarantee.
type SketchInfo struct {
	// SourceLen is the cardinality of the set the sketch was built from.
	SourceLen int
	// SourceWeight is the source total weight Σ w_i (= the sketch's).
	SourceWeight float64
	// Len is the coreset cardinality.
	Len int
	// Eps is the advertised normalized error bound ε; see Basis for the
	// kind of bound it is.
	Eps float64
	// Delta is the per-query failure probability δ behind Eps when Basis
	// is SketchBasisHoeffding; 0 otherwise.
	Delta float64
	// Basis labels the nature of the Eps bound.
	Basis SketchBasis
	// Method is the construction that produced the sketch.
	Method CoresetMethod
}

// WithCoresetMethod selects the sketch construction (default CoresetAuto).
// Only BuildCoreset, Engine.Sketch and KDE.Compress consult it.
func WithCoresetMethod(m CoresetMethod) Option {
	return func(c *buildConfig) { c.coresetMethod = m }
}

// WithCoresetSeed seeds the sketch construction's randomness (default 1),
// for reproducible coresets.
func WithCoresetSeed(seed int64) Option {
	return func(c *buildConfig) { c.coresetSeed = seed }
}

// BuildCoreset sketches the points down to an error-bounded coreset and
// indexes the coreset, so queries run through the same KARL bound
// machinery over far fewer points. The resulting engine answers with
// normalized error ≤ eps relative to the full set — a high-probability or
// empirically validated bound, not a deterministic one; SketchInfo reports
// the provenance including the bound's basis. All Build options apply,
// WithWeights supplies Type II source weights.
func BuildCoreset(points [][]float64, kern Kernel, eps float64, opts ...Option) (*Engine, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("karl: empty point set")
	}
	cfg := configOf(opts...)
	return sketchAndBuild(vec.FromRows(points), cfg.weights, kern, eps, cfg)
}

// Sketch derives a coreset engine from this one: its live points are
// reduced with the requested guarantee and re-indexed under the same
// kernel, index structure and bounding method. opts may override the
// coreset construction (WithCoresetMethod, WithCoresetSeed) and the index
// layout of the derived engine.
func (d *Engine) Sketch(eps float64, opts ...Option) (*Engine, error) {
	tree, kern, cfg, err := d.liveSet()
	if err != nil {
		return nil, err
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return sketchAndBuild(tree.Points, tree.Weights, kern, eps, cfg)
}

// sketchAndBuild runs the construction and indexes the result, attaching
// provenance. It is the shared core of BuildCoreset and Engine.Sketch.
func sketchAndBuild(points *vec.Matrix, weights []float64, kern Kernel, eps float64, cfg buildConfig) (*Engine, error) {
	sk, err := coreset.Build(points, weights, kern, eps, coreset.Config{
		Method: coreset.Method(cfg.coresetMethod),
		Seed:   cfg.coresetSeed,
	})
	if err != nil {
		return nil, err
	}
	cfg.weights = sk.Weights
	eng, err := buildMatrixCfg(sk.Points, kern, cfg)
	if err != nil {
		return nil, err
	}
	eng.sh.sketch = &SketchInfo{
		SourceLen:    sk.SourceN,
		SourceWeight: sk.SourceW,
		Len:          sk.Len(),
		Eps:          sk.Eps,
		Delta:        sk.Delta,
		Basis:        SketchBasis(sk.Basis),
		Method:       CoresetMethod(sk.Method),
	}
	return eng, nil
}

// SketchInfo reports the engine's coreset provenance. ok is false for
// engines that were not built as a coreset of a larger set.
func (d *Engine) SketchInfo() (info SketchInfo, ok bool) {
	if d.sh.sketch == nil {
		return SketchInfo{}, false
	}
	return *d.sh.sketch, true
}

// Compress sketches the estimator's point set down to an error-bounded
// coreset (see BuildCoreset for the bound's nature); the compressed KDE's
// densities satisfy |KDE_P(q) − KDE_S(q)| ≤ eps/n·W = eps (normalized
// error transfers one-to-one to the density scale, which is already
// normalized by n).
func (k *KDE) Compress(eps float64, opts ...Option) (*KDE, error) {
	eng, err := k.eng.Sketch(eps, opts...)
	if err != nil {
		return nil, err
	}
	return &KDE{eng: eng, n: k.n}, nil
}
