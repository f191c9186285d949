package karl

import (
	"errors"

	"karl/internal/tuning"
	"karl/internal/vec"
)

// Workload describes the query mix an index should be tuned for.
type Workload struct {
	// Threshold, when true, tunes for TKAQ with threshold Tau; otherwise
	// for eKAQ with relative error Eps.
	Threshold bool
	Tau       float64
	Eps       float64
}

func (w Workload) internal(kern Kernel, m Method) (tuning.Workload, error) {
	method, err := methodOf(m)
	if err != nil {
		return tuning.Workload{}, err
	}
	tw := tuning.Workload{Kernel: kern, Method: method}
	if w.Threshold {
		tw.Mode = tuning.Threshold
		tw.Tau = w.Tau
	} else {
		tw.Mode = tuning.Approximate
		tw.Eps = w.Eps
	}
	return tw, nil
}

// TuneReport describes the configuration BuildAuto selected.
type TuneReport struct {
	Kind IndexKind
	// LeafCap is the selected leaf capacity.
	LeafCap int
	// SampleThroughput is the winner's measured queries/sec on the sample.
	SampleThroughput float64
}

// BuildAuto implements the paper's offline automatic tuning (Section
// III-C): it builds each candidate index in the default grid ({kd-tree,
// ball-tree} × {10..640}), measures throughput on the sample queries, and
// returns an engine over the winner. The sample should be ~1000 queries
// drawn like the live workload.
func BuildAuto(points [][]float64, kern Kernel, w Workload, sample [][]float64, opts ...Option) (*Engine, *TuneReport, error) {
	if len(points) == 0 {
		return nil, nil, errors.New("karl: empty point set")
	}
	if len(sample) == 0 {
		return nil, nil, errors.New("karl: empty tuning sample")
	}
	cfg := buildConfig{method: MethodKARL}
	for _, opt := range opts {
		opt(&cfg)
	}
	tw, err := w.internal(kern, cfg.method)
	if err != nil {
		return nil, nil, err
	}
	results, err := tuning.Offline(vec.FromRows(points), cfg.weights, tw, vec.FromRows(sample), nil)
	if err != nil {
		return nil, nil, err
	}
	winner := results[0]
	cfg.kind, cfg.leafCap = publicIndexKind(winner.Candidate.Kind), winner.Candidate.LeafCap
	sh, err := newShared(kern, cfg)
	if err != nil {
		return nil, nil, err
	}
	eng, err := sh.bulkLoad(winner.Tree)
	if err != nil {
		return nil, nil, err
	}
	return eng, &TuneReport{
		Kind:             cfg.kind,
		LeafCap:          cfg.leafCap,
		SampleThroughput: winner.Throughput,
	}, nil
}

// DynamicTuneReport describes the maintenance policy TuneDynamic
// selected for a mutable workload.
type DynamicTuneReport struct {
	// SealSize and Fanout are the winning policy knobs (see WithSealSize
	// and WithCompactionFanout).
	SealSize int
	Fanout   int
	// Throughput is the winner's measured operations/sec (inserts plus
	// queries) on the replayed trace.
	Throughput float64
}

// TuneDynamic sweeps the segmented engine's maintenance policy — seal
// size and compaction fanout — by replaying the same mixed insert/query
// trace against each candidate and returns a fresh engine built with the
// winning policy plus the ranked report. The trace interleaves
// queriesPerInsert sample queries behind every inserted point, so the
// measured cost includes sealing and compaction exactly where a live
// workload would pay them (queriesPerInsert 9 models a 90/10
// query/insert mix). The returned engine is empty and ready for live
// traffic; extra opts (index kind, leaf capacity, method) apply to every
// candidate and to the returned engine.
func TuneDynamic(points [][]float64, kern Kernel, w Workload, sample [][]float64, queriesPerInsert int, opts ...Option) (*Engine, *DynamicTuneReport, error) {
	if len(points) == 0 {
		return nil, nil, errors.New("karl: empty point set")
	}
	if len(sample) == 0 {
		return nil, nil, errors.New("karl: empty tuning sample")
	}
	cfg := buildConfig{method: MethodKARL}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.weights != nil {
		return nil, nil, errors.New("karl: dynamic tuning takes unit weights (weights arrive per-insert)")
	}
	tw, err := w.internal(kern, cfg.method)
	if err != nil {
		return nil, nil, err
	}
	trace := tuning.MixedTrace(points, nil, sample, queriesPerInsert)
	build := func(c tuning.DynamicCandidate) (tuning.MutableEngine, error) {
		candOpts := append(append([]Option{}, opts...),
			WithSealSize(c.SealSize), WithCompactionFanout(c.Fanout))
		return NewDynamic(kern, candOpts...)
	}
	results, err := tuning.OfflineDynamic(build, tw, trace, nil)
	if err != nil {
		return nil, nil, err
	}
	winner := results[0]
	engOpts := append(append([]Option{}, opts...),
		WithSealSize(winner.Candidate.SealSize), WithCompactionFanout(winner.Candidate.Fanout))
	d, err := NewDynamic(kern, engOpts...)
	if err != nil {
		return nil, nil, err
	}
	return d, &DynamicTuneReport{
		SealSize:   winner.Candidate.SealSize,
		Fanout:     winner.Candidate.Fanout,
		Throughput: winner.Throughput,
	}, nil
}

// InSituReport describes an in-situ run end to end.
type InSituReport struct {
	// ChosenDepth is the simulated tree height the tuner selected
	// (0 = the full tree).
	ChosenDepth int
	// Throughput is end-to-end queries/sec including index construction
	// and tuning time.
	Throughput float64
}

// InSitu answers an entire query stream in the in-situ scenario of Section
// III-C, where the dataset arrives online and index construction plus
// tuning count toward the response time: it builds a single kd-tree,
// spends sampleFrac (e.g. 0.01) of the stream picking the best simulated
// tree height, and serves the rest with the winner. Every query is
// answered exactly once; results are discarded (use Build when you need
// the answers individually — InSitu exists to measure and to warm indexes
// for online kernel learning loops).
func InSitu(points [][]float64, kern Kernel, w Workload, queries [][]float64, sampleFrac float64, opts ...Option) (*InSituReport, error) {
	if len(points) == 0 || len(queries) == 0 {
		return nil, errors.New("karl: empty point or query set")
	}
	cfg := buildConfig{method: MethodKARL}
	for _, opt := range opts {
		opt(&cfg)
	}
	tw, err := w.internal(kern, cfg.method)
	if err != nil {
		return nil, err
	}
	rep, err := tuning.Online(vec.FromRows(points), cfg.weights, tw, vec.FromRows(queries), sampleFrac)
	if err != nil {
		return nil, err
	}
	return &InSituReport{ChosenDepth: rep.ChosenDepth, Throughput: rep.Throughput}, nil
}
