package karl

import (
	"fmt"

	"karl/internal/bound"
	"karl/internal/index"
	"karl/internal/shard"
	"karl/internal/vec"
)

// PartitionKind selects how Engine.Shard distributes points across shards.
// Kernel aggregation is additively decomposable — F_P(q) = Σ_S F_S(q) for
// any partition — so the choice affects balance and per-shard bound
// tightness, never correctness.
type PartitionKind int

const (
	// HashPartition assigns each point by a content hash of its
	// coordinates: statistically even, spatially mixed shards whose
	// assignment is stable across index rebuilds (the default).
	HashPartition PartitionKind = iota
	// KDPartition assigns points by recursive median splits on the widest
	// dimension: spatially compact shards, so localized queries leave most
	// shards' bounds tight after one refinement round.
	KDPartition
)

// String implements fmt.Stringer.
func (k PartitionKind) String() string {
	if k == KDPartition {
		return "kd"
	}
	return "hash"
}

// ShardProvenance records that an engine was built over one shard of a
// larger partitioned dataset. It is persisted with the engine, so a shard
// file self-describes (cmd/karl-shard -inspect); points streamed in
// afterwards do not change it.
type ShardProvenance struct {
	// Index is this shard's position in the partition, in [0, Of).
	Index int
	// Of is the total number of shards.
	Of int
	// Partition is the strategy that produced the split.
	Partition PartitionKind
	// SourceLen is the full dataset's cardinality.
	SourceLen int
}

// ShardInfo reports the engine's shard provenance. ok is false for
// engines that were not built as a shard of a partitioned dataset.
func (d *Engine) ShardInfo() (info ShardProvenance, ok bool) {
	if d.sh.shardProv == nil {
		return ShardProvenance{}, false
	}
	return *d.sh.shardProv, true
}

// Shard partitions the engine's live points into n shard engines, each
// indexing its slice with the same kernel, index structure, leaf capacity
// and bounding method, and each carrying ShardProvenance. The per-shard
// answers of Aggregate sum exactly to the original engine's (up to float
// summation order), which is what the cluster coordinator exploits.
func (d *Engine) Shard(n int, kind PartitionKind) ([]*Engine, error) {
	tree, kern, cfg, err := d.liveSet()
	if err != nil {
		return nil, err
	}
	plan, err := shard.Partition(tree.Points, n, shardKindOf(kind))
	if err != nil {
		return nil, fmt.Errorf("karl: %w", err)
	}
	engines := make([]*Engine, n)
	for s, rows := range plan.Rows {
		sub := vec.NewMatrix(len(rows), tree.Dims())
		cfg.weights = nil
		if tree.Weights != nil {
			cfg.weights = make([]float64, len(rows))
		}
		for i, r := range rows {
			copy(sub.Row(i), tree.Points.Row(r))
			if cfg.weights != nil {
				cfg.weights[i] = tree.Weights[r]
			}
		}
		se, err := buildMatrixCfg(sub, kern, cfg)
		if err != nil {
			return nil, fmt.Errorf("karl: shard %d: %w", s, err)
		}
		se.sh.shardProv = &ShardProvenance{Index: s, Of: n, Partition: kind, SourceLen: tree.Len()}
		engines[s] = se
	}
	return engines, nil
}

// shardKindOf maps the public partition kind to the internal one.
func shardKindOf(k PartitionKind) shard.Kind {
	if k == KDPartition {
		return shard.KDSplit
	}
	return shard.Hash
}

// publicIndexKind is the inverse of indexKindOf.
func publicIndexKind(k index.Kind) IndexKind {
	if k == index.BallTree {
		return BallTree
	}
	return KDTree
}

// publicMethod is the inverse of methodOf.
func publicMethod(m bound.Method) Method {
	if m == bound.SOTA {
		return MethodSOTA
	}
	return MethodKARL
}
