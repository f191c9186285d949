// Package karl is a Go implementation of KARL — the Kernel Aggregation
// Rapid Library of Chan, Yiu and U, "KARL: Fast Kernel Aggregation
// Queries" (ICDE 2019).
//
// KARL answers two query types over a weighted point set P:
//
//   - Threshold kernel aggregation (TKAQ): is F_P(q) = Σ w_i·K(q,p_i) > τ?
//   - Approximate kernel aggregation (eKAQ): return F_P(q) within relative
//     error ε.
//
// Both are served by best-first refinement over a hierarchical index
// (kd-tree or ball-tree) using KARL's linear bound functions, which are
// provably tighter than the classical min/max-distance bounds yet cost the
// same O(d) per node. All three weighting schemes of the paper are
// supported transparently: identical weights (kernel density estimation),
// positive weights (1-class SVM) and mixed-sign weights (2-class SVM).
//
// # Quick start
//
//	eng, err := karl.Build(points, karl.Gaussian(2.0))
//	hot, err := eng.Threshold(q, 150.0)   // TKAQ
//	est, err := eng.Approximate(q, 0.1)   // eKAQ, ±10%
//
// Use BuildAuto for the paper's offline index auto-tuning, InSitu for the
// online (in-situ) scenario, NewKDE for Scott's-rule density estimation,
// and TrainOneClassSVM / TrainTwoClassSVM to go from raw training data to
// an accelerated classifier in one call.
package karl

import (
	"errors"
	"fmt"
	"time"

	"karl/internal/bound"
	"karl/internal/core"
	"karl/internal/index"
	"karl/internal/kernel"
	"karl/internal/vec"
)

// Kernel identifies a kernel function with its parameters.
type Kernel = kernel.Params

// Gaussian returns the Gaussian kernel exp(−γ·dist(q,p)²).
func Gaussian(gamma float64) Kernel { return kernel.NewGaussian(gamma) }

// Polynomial returns the polynomial kernel (γ·q·p + β)^degree.
func Polynomial(gamma, beta float64, degree int) Kernel {
	return kernel.NewPolynomial(gamma, beta, degree)
}

// Sigmoid returns the sigmoid kernel tanh(γ·q·p + β).
func Sigmoid(gamma, beta float64) Kernel { return kernel.NewSigmoid(gamma, beta) }

// Epanechnikov returns the compact-support kernel max(0, 1 − γ·dist²),
// the mean-square-optimal KDE kernel (an extension beyond the paper's
// three kernels; its piecewise-linear profile makes KARL's bounds exact
// whenever a node's distance interval avoids the support boundary).
func Epanechnikov(gamma float64) Kernel { return kernel.NewEpanechnikov(gamma) }

// Quartic returns the biweight kernel max(0, 1 − γ·dist²)².
func Quartic(gamma float64) Kernel { return kernel.NewQuartic(gamma) }

// IndexKind selects the index structure.
type IndexKind int

const (
	// KDTree indexes with axis-aligned rectangles (the default).
	KDTree IndexKind = iota
	// BallTree indexes with bounding hyperspheres.
	BallTree
)

// Method selects the bounding technique.
type Method int

const (
	// MethodKARL uses the paper's linear bound functions (the default).
	MethodKARL Method = iota
	// MethodSOTA uses the prior state-of-the-art bounds, kept for
	// comparison and benchmarking.
	MethodSOTA
)

// Stats reports the work performed by one query.
type Stats = core.Stats

// Option configures Build.
type Option func(*buildConfig)

type buildConfig struct {
	weights []float64
	kind    IndexKind
	leafCap int
	method  Method

	// Coreset construction knobs, consulted only by BuildCoreset,
	// Engine.Sketch and KDE.Compress (coreset.go).
	coresetMethod CoresetMethod
	coresetSeed   int64

	// Streaming knobs: how rows inserted after construction are sealed,
	// merged, expired and decayed (dynamic.go). Zero values defer to
	// segment.DefaultPolicy.
	sealSize      int
	fanout        int
	noAutoCompact bool
	ttl           time.Duration
	halfLife      time.Duration
	clock         func() int64
}

// defaultBuildConfig is the configuration Build starts from.
func defaultBuildConfig() buildConfig {
	return buildConfig{kind: KDTree, leafCap: 80, method: MethodKARL}
}

// WithWeights attaches per-point weights w_i (any sign). Without it all
// weights are 1 (Type I).
func WithWeights(w []float64) Option { return func(c *buildConfig) { c.weights = w } }

// WithIndex selects the index structure and leaf capacity (default:
// kd-tree with leaf capacity 80).
func WithIndex(kind IndexKind, leafCap int) Option {
	return func(c *buildConfig) { c.kind, c.leafCap = kind, leafCap }
}

// WithMethod selects the bounding method (default MethodKARL).
func WithMethod(m Method) Option { return func(c *buildConfig) { c.method = m } }

// WithSealSize sets the engine's memtable capacity: inserts buffer until
// this many points, then seal into one immutable segment (default 512).
// Smaller values cut per-query scan cost; larger values amortize index
// builds further.
func WithSealSize(n int) Option { return func(c *buildConfig) { c.sealSize = n } }

// WithCompactionFanout sets the engine's geometric tiering factor: every
// fanout same-tier segments merge into one segment of the next tier
// (default 4).
func WithCompactionFanout(f int) Option { return func(c *buildConfig) { c.fanout = f } }

// WithAutoCompaction enables or disables the engine's background tiered
// merging (default enabled). With it off, segments accumulate one per seal
// until Compact is called explicitly.
func WithAutoCompaction(on bool) Option {
	return func(c *buildConfig) { c.noAutoCompact = !on }
}

// WithTTL gives the engine a sliding time window: every point expires ttl
// after its insertion (for rows bulk-loaded by Build, after the build
// instant). Expiry is enforced lazily — expired points are physically
// dropped when their run is sealed or compacted, so enforcement cost is
// amortized into work the engine does anyway and queries between
// compactions may still see recently-expired points. Call Compact to force
// the window exact.
func WithTTL(ttl time.Duration) Option {
	return func(c *buildConfig) { c.ttl = ttl }
}

// WithDecayHalfLife makes every point's weight decay exponentially with
// age: a point inserted at time t contributes w·2^(−(T−t)/halfLife) at
// query time T. Decay is evaluated lazily — sealed segments carry one
// decay reference instant and queries rescale their aggregates by a
// single per-segment scalar, so no index is ever rebuilt to age its
// weights (decayed sets are a positive-scaled Type II variant of their
// originals). Rows bulk-loaded by Build age from the build instant.
func WithDecayHalfLife(halfLife time.Duration) Option {
	return func(c *buildConfig) { c.halfLife = halfLife }
}

// withClock overrides the engine's time source (UnixNano); tests use it
// to drive TTL expiry and decay deterministically.
func withClock(now func() int64) Option {
	return func(c *buildConfig) { c.clock = now }
}

// Build indexes the points (rows of equal length) and returns a query
// engine over them. The point data is copied. The matrix is bulk-loaded as
// ONE sealed segment — the same tree a from-scratch index build produces,
// rows numbered 1..n in input order — so queries run the single-segment
// refinement loop; Insert and Delete then stream on top of it like on any
// other engine.
func Build(points [][]float64, kern Kernel, opts ...Option) (*Engine, error) {
	if len(points) == 0 {
		return nil, errors.New("karl: empty point set")
	}
	return buildMatrix(vec.FromRows(points), kern, opts...)
}

// buildMatrix is the internal entry point used by the adapters that already
// hold a matrix.
func buildMatrix(m *vec.Matrix, kern Kernel, opts ...Option) (*Engine, error) {
	cfg := defaultBuildConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return buildMatrixCfg(m, kern, cfg)
}

// buildMatrixCfg builds from an already-resolved configuration.
func buildMatrixCfg(m *vec.Matrix, kern Kernel, cfg buildConfig) (*Engine, error) {
	sh, err := newShared(kern, cfg)
	if err != nil {
		return nil, err
	}
	tree, err := sh.bcfg.Build(m, cfg.weights)
	if err != nil {
		return nil, err
	}
	return sh.bulkLoad(tree)
}

// methodOf maps the public bounding method to the internal one. Values
// outside the enum (a file from another build) are an error, never a
// silent default.
func methodOf(m Method) (bound.Method, error) {
	switch m {
	case MethodKARL:
		return bound.KARL, nil
	case MethodSOTA:
		return bound.SOTA, nil
	default:
		return 0, fmt.Errorf("karl: bounding method %d is not supported by this build", int(m))
	}
}

// indexKindOf maps the public index kind to the internal one, with the
// same contract as methodOf. Kind 2 was the vp-tree of earlier builds.
func indexKindOf(k IndexKind) (index.Kind, error) {
	switch k {
	case KDTree:
		return index.KDTree, nil
	case BallTree:
		return index.BallTree, nil
	case 2:
		return 0, errors.New("karl: index kind 2 (vp-tree) is not supported by this build")
	default:
		return 0, fmt.Errorf("karl: index kind %d is not supported by this build", int(k))
	}
}
