package karl

import (
	"errors"
	"fmt"

	"karl/internal/segment"
	"karl/internal/shard"
)

// SplitPlane proposes a balanced axis-aligned cut over the stored points:
// the median value of the widest dimension, adjusted so neither side is
// empty (shard.Plane at rank ½). Points with p[dim] >= cut form the moving
// half. It fails when the dataset is empty, a single point, or degenerate
// (all points identical), in which case no axis cut can separate anything.
func (d *Engine) SplitPlane() (dim int, cut float64, err error) {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var rows [][]float64
	for _, s := range sh.man.Segs {
		pts := s.Tree.Points
		for r := 0; r < pts.Rows; r++ {
			rows = append(rows, pts.Row(r))
		}
	}
	for _, mt := range []*memtable{sh.mem, sh.sealing} {
		if mt == nil {
			continue
		}
		for i := 0; i < mt.n; i++ {
			rows = append(rows, mt.m.Row(i))
		}
	}
	if dim, cut, err = shard.Plane(rows, 1, 2); err != nil {
		return 0, 0, fmt.Errorf("karl: split plane: %w", err)
	}
	return dim, cut, nil
}

// Split extracts every live point for which pred(point) is true into a
// NEW engine with the same kernel, index and maintenance
// configuration, removing those points from the receiver — the engine
// half of a cluster shard split. Both sides are rebuilt as single sealed
// segments (the receiver's manifest advances one epoch, exactly like a
// full Compact), pending tombstones and TTL-expired rows are physically
// dropped on the way, and sequence numbers, insert times and decay state
// travel with the moved rows, so ids remain valid on whichever side their
// point landed. The moved engine continues the receiver's id counter from
// the split instant: ids it assigns later never collide with inherited
// ones.
//
// Inserts and deletes block for the duration; queries proceed over the old
// snapshot and switch atomically, the same contract as Compact.
func (d *Engine) Split(pred func(p []float64) bool) (MutableEngine, error) {
	if pred == nil {
		return nil, errors.New("karl: nil split predicate")
	}
	sh := d.sh
	sh.mu.Lock()
	for sh.compacting || sh.sealing != nil || sh.draining {
		sh.cond.Wait()
	}
	if sh.closed {
		sh.mu.Unlock()
		return nil, errors.New("karl: engine is closed")
	}
	if err := sh.compactErrLocked(); err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	if sh.man.Len()+sh.mem.len() == 0 {
		// Nothing to move: hand back an empty sibling sharing the config.
		moved := &Engine{sh: sh.emptySiblingLocked()}
		sh.mu.Unlock()
		return moved, nil
	}
	sh.draining = true // blocks inserts, deletes, seals and background merges
	segs := sh.man.Segs
	run := sh.mem.run()
	keepID := sh.nextID
	sh.nextID++
	opts := sh.mergeOptsLocked(segs)
	sh.mu.Unlock()

	// Rows with pred false stay (part 0), the rest move (part 1).
	var parts []*segment.Segment
	g, err := segment.Gather(segs, run, opts)
	if err == nil {
		parts, err = g.Cut(func(p []float64) int {
			if pred(p) {
				return 1
			}
			return 0
		}, sh.bcfg, keepID, 1)
	}

	sh.mu.Lock()
	sh.draining = false
	if err != nil {
		sh.cond.Broadcast()
		sh.mu.Unlock()
		return nil, fmt.Errorf("karl: split: %w", err)
	}
	keepSeg, moveSeg := parts[0], parts[1]
	// Deletes were blocked throughout, so opts.Drop consumed every
	// tombstone of segs: there is none left to hand on.
	man := &segment.Manifest{Epoch: sh.man.Epoch + 1}
	if keepSeg != nil {
		man.Segs = []*segment.Segment{keepSeg}
	}
	sh.man, sh.skel = man, nil
	sh.compactions++
	if sh.mem != nil {
		sh.mem.n = 0 // absorbed into the divide
	}
	msh := sh.emptySiblingLocked()
	if moveSeg != nil {
		msh.man = &segment.Manifest{Epoch: 1, Segs: []*segment.Segment{moveSeg}}
		msh.nextID = 2
		// The moved rows left this engine without individual Delete calls
		// and count as deletions all the same.
		sh.deletes += len(moveSeg.Seqs)
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()
	return &Engine{sh: msh}, nil
}

// emptySiblingLocked creates fresh shared state with the receiver's
// configuration, dimensionality and id counter — the shell a split's
// moved half is installed into. Called with sh.mu held.
func (sh *dynShared) emptySiblingLocked() *dynShared {
	m := blankShared()
	m.dynConfig, m.now, m.dims, m.nextSeq = sh.dynConfig, sh.now, sh.dims, sh.nextSeq
	return m
}
