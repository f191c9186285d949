package karl

import (
	"errors"
	"fmt"

	"karl/internal/bound"
	"karl/internal/index"
	"karl/internal/segment"
	"karl/internal/shard"
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

// Shard cuts the engine's live points into n shard engines through the
// cut Split uses: the live rows are gathered once in insertion order
// (tombstoned and expired rows dropped, decayed weights rebased to now)
// and each shard is built as one sealed segment over its share. Points are
// placed by the cluster manifest (shard.Found): shard i holds, in insertion
// order, the points its Route sends to member i+1, so a coordinator founded
// over the shards in order routes every point to the shard that holds it.
// Like a split's moved half, every shard keeps the source's kernel, index,
// method, LSM policy, TTL and decay clock, and its points keep their ids
// (NextSeq continues the source's counter); each also carries
// ShardProvenance. The per-shard answers of Aggregate sum exactly to the
// source's (up to float summation order), which is what the cluster
// coordinator exploits. The source is not changed.
func (d *Engine) Shard(n int, kind PartitionKind) ([]*Engine, error) {
	sh := d.sh
	sh.mu.Lock()
	for sh.sealing != nil || sh.draining {
		sh.cond.Wait()
	}
	g, err := segment.Gather(sh.man.Segs, sh.mem.run(), sh.mergeOptsLocked(sh.man.Segs))
	proto := sh.emptySiblingLocked() // the shards' configuration, ours alone
	sh.mu.Unlock()
	if err == nil && g.Len() == 0 {
		err = errors.New("engine holds no live point")
	}
	if err != nil {
		return nil, fmt.Errorf("karl: %w", err)
	}
	pts := make([][]float64, g.Len())
	for r := range pts {
		pts[r] = g.Row(r)
	}
	man, err := shard.Found(kind, pts, n)
	if err != nil {
		return nil, fmt.Errorf("karl: %w", err)
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = 1
	}
	parts, err := g.Cut(func(p []float64) int { return int(man.Route(p)) - 1 }, proto.bcfg, ids...)
	if err != nil {
		return nil, fmt.Errorf("karl: shard: %w", err)
	}
	engines := make([]*Engine, n)
	for i, seg := range parts {
		if seg == nil {
			return nil, fmt.Errorf("karl: shard %d of %d is empty over %d points (try the kd partitioner)", i, n, g.Len())
		}
		m := proto.emptySiblingLocked()
		m.man, m.nextID = &segment.Manifest{Epoch: 1, Segs: []*segment.Segment{seg}}, 2
		m.shardProv = &ShardProvenance{Index: i, Of: n, Partition: kind, SourceLen: g.Len()}
		engines[i] = &Engine{sh: m}
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
