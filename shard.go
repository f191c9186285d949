package karl

import (
	"fmt"

	"karl/internal/bound"
	"karl/internal/index"
	"karl/internal/shard"
	"karl/internal/vec"
)

// PartitionKind selects how Engine.Shard distributes points across shards:
// the routing kind of the cluster manifest (internal/shard) under its public
// name. Kernel aggregation is additively decomposable — F_P(q) = Σ_S F_S(q)
// for any partition — so the choice affects balance and per-shard bound
// tightness, never correctness.
type PartitionKind = shard.Kind

const (
	// HashPartition assigns each point by a content hash of its
	// coordinates onto the manifest's slot table: statistically even,
	// spatially mixed shards whose assignment is stable across index
	// rebuilds (the default).
	HashPartition = shard.Hash
	// KDPartition assigns points by recursive cuts on the widest
	// dimension: spatially compact shards, so localized queries leave most
	// shards' bounds tight after one refinement round.
	KDPartition = shard.KDSplit
)

// ShardProvenance records that an engine was built over one shard of a
// larger partitioned dataset. It is persisted with the engine, so a shard
// file self-describes (karl shard -inspect); points streamed in
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
// and bounding method, and each carrying ShardProvenance. Points are placed
// by the cluster manifest (shard.Found): shard i holds, in storage order,
// the points its Route sends to member i+1, so a coordinator founded over
// the shards in order routes every point to the shard that holds it. The
// per-shard answers of Aggregate sum exactly to the original engine's (up
// to float summation order), which is what the cluster coordinator
// exploits.
func (d *Engine) Shard(n int, kind PartitionKind) ([]*Engine, error) {
	tree, kern, cfg, err := d.liveSet()
	if err != nil {
		return nil, err
	}
	pts := make([][]float64, tree.Len())
	for r := range pts {
		pts[r] = tree.Points.Row(r)
	}
	man, err := shard.Found(kind, pts, n)
	if err != nil {
		return nil, fmt.Errorf("karl: %w", err)
	}
	rows := make([][]int, n)
	for r, p := range pts {
		s := man.Route(p) - 1
		rows[s] = append(rows[s], r)
	}
	engines := make([]*Engine, n)
	for s, rs := range rows {
		if len(rs) == 0 {
			return nil, fmt.Errorf("karl: shard %d of %d is empty over %d points (try the kd partitioner)", s, n, len(pts))
		}
		sub := vec.NewMatrix(len(rs), tree.Dims())
		cfg.weights = nil
		if tree.Weights != nil {
			cfg.weights = make([]float64, len(rs))
		}
		for i, r := range rs {
			copy(sub.Row(i), pts[r])
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
