package karl

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"karl/internal/segment"
)

// This file is the engine half of replication, and it is one mechanism: a
// pull is the leader's engine stream (persist.go) with the segments the
// follower already holds elided. The follower names its sealed segments by id
// and fingerprint (Have); the leader writes what WriteTo would, with a
// held-segment block — id and dead seqs — in the place of each one it
// recognises (WriteSnapshot); the follower decodes that with the file reader,
// resolves the held blocks against its own manifest and swaps the result in
// (InstallSnapshot). A follower is therefore a mirror — the leader's segments,
// dead rows, memtable, configuration and counters — and since kernel
// aggregation is additively decomposable it holds the leader's answers: the
// ε/τ certificates survive failover verbatim. Every pull carries all the
// follower lacks, so bootstrap, steady state, a restarted or another leader
// and any length of disconnection are the same single round. The
// internal/replica package drives it over HTTP.

// tailRow is one live memtable row as an engine stream carries it: the
// point, its weight, its cluster-visible sequence number and (on timed
// engines) its absolute insert timestamp in unix nanoseconds.
type tailRow struct {
	P   []float64
	W   float64
	Seq uint64
	T   int64
}

// SegmentSum names one sealed segment a follower holds: its id and the
// fingerprint of its immutable content (everything but the dead rows). Ids
// alone do not identify content across leaders — every engine numbers its
// first segment 1.
type SegmentSum struct {
	ID  uint64
	Sum uint32
}

// is reports whether s is the segment h names: the id, under the fingerprint
// this engine knows s by (a segment it has never encoded has none yet and
// ships whole, which gives it one).
func (h SegmentSum) is(s *segment.Segment) bool {
	return h.ID == s.ID && s.Sum.Load() == sumKnown|uint64(h.Sum)
}

// ReplicaHave is what a follower tells its leader it holds: the counters of
// the state it mirrored last (the leader answers a pull from exactly there
// with nothing) and its sealed segments, oldest first.
type ReplicaHave struct {
	Epoch, NextSeq, Deletes uint64
	Segs                    []SegmentSum
}

// Have reports what the engine holds, for a pull from its leader.
func (d *Engine) Have() ReplicaHave {
	sh := d.sh
	sh.mu.Lock()
	segs := sh.man.Segs
	have := ReplicaHave{Epoch: sh.man.Epoch, NextSeq: sh.nextSeq, Deletes: uint64(sh.deletes)}
	sh.mu.Unlock()
	have.Segs = make([]SegmentSum, len(segs))
	for i, s := range segs {
		have.Segs[i] = SegmentSum{ID: s.ID, Sum: segmentSum(s)} // known already for every segment a pull installed
	}
	return have
}

// holds reports whether the follower holds s.
func (have *ReplicaHave) holds(s *segment.Segment) bool {
	return have != nil && slices.ContainsFunc(have.Segs, func(h SegmentSum) bool { return h.is(s) })
}

// at reports whether sh stands exactly where have says the follower does:
// same counters, same segments in the same order. Called with mu held.
func (have *ReplicaHave) at(sh *dynShared) bool {
	return have.Epoch == sh.man.Epoch && have.NextSeq == sh.nextSeq && have.Deletes == uint64(sh.deletes) &&
		slices.EqualFunc(have.Segs, sh.man.Segs, SegmentSum.is)
}

// WriteSnapshot writes what WriteTo would with the segments the follower
// holds elided, and nothing at all (0 bytes, no error) when have is exactly
// the engine's state.
func (d *Engine) WriteSnapshot(w io.Writer, have ReplicaHave) (int64, error) {
	return d.writeTo(w, nil, &have)
}

// memRowsLocked returns the memtable's rows as an engine stream carries them.
func (sh *dynShared) memRowsLocked() []tailRow {
	mt := sh.mem
	if mt == nil {
		return nil
	}
	rows := make([]tailRow, mt.n)
	for i := range rows {
		rows[i] = tailRow{P: slices.Clone(mt.m.Row(i)), W: mt.w[i], Seq: mt.seq[i]}
		if mt.t != nil {
			rows[i].T = mt.t[i]
		}
	}
	return rows
}

// applyRows puts the rows of a memtable block back with their original
// sequence numbers and timestamps, into the engine readEngine is decoding.
// Rows must arrive in strictly ascending seq order.
func (d *Engine) applyRows(rows []tailRow) error {
	if len(rows) == 0 {
		return nil
	}
	dims := 0
	for i, r := range rows {
		if err := validateInsert(r.P, r.W); err != nil {
			return err
		}
		if r.Seq == 0 {
			return fmt.Errorf("karl: replica row %d has seq 0", i)
		}
		if i > 0 && r.Seq <= rows[i-1].Seq {
			return fmt.Errorf("karl: replica rows not ascending (seq %d after %d)", r.Seq, rows[i-1].Seq)
		}
		if dims == 0 {
			dims = len(r.P)
		} else if len(r.P) != dims {
			return fmt.Errorf("karl: replica row %d has %d dims, batch has %d", i, len(r.P), dims)
		}
	}
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.insertReadyLocked(dims); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := sh.putRowLocked(r); err != nil {
			return err
		}
	}
	return nil
}

// InstallSnapshot makes the engine a mirror of the leader whose stream r is
// — a WriteSnapshot answer to this engine's Have, or a whole WriteTo file —
// whatever it held before: configuration, manifest, dead rows, memtable and
// counters are adopted; only runtime plumbing (clock, batch telemetry) is
// kept. From then on the engine is a mirror: its reads charge no rent and it
// starts no rebuild of its own until its next own insert or delete. The
// stream is decoded first and swapped in under the lock last, so
// one that is damaged, or names a segment or a dead row this engine does not
// hold, leaves the engine exactly as it was. A held segment stays the object
// it is, and so does the manifest when only dead rows and the memtable moved:
// views armed on it stay armed.
func (d *Engine) InstallSnapshot(r io.Reader) error {
	var held []heldSegment
	eng, _, err := readEngine(r, &held)
	if err != nil {
		return fmt.Errorf("karl: replica snapshot: %w", err)
	}
	src, sh := eng.sh, d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// A rebuild in flight (this engine led before it followed) would install
	// its output into the manifest it started from.
	for !sh.closed && (sh.sealing != nil || sh.draining || sh.compacting) {
		sh.cond.Wait()
	}
	if sh.closed {
		return errors.New("karl: engine is closed")
	}
	// Resolve every held block before anything changes hands.
	type deadRows struct {
		s    *segment.Segment
		dead *segment.Dead
	}
	segs, fixes := src.man.Segs, make([]deadRows, 0, len(held))
	for i := range segs {
		if segs[i] != nil {
			continue
		}
		h := held[len(fixes)]
		at := slices.IndexFunc(sh.man.Segs, func(s *segment.Segment) bool { return s.ID == h.id })
		if at < 0 {
			return fmt.Errorf("karl: replica snapshot: stream elides segment %d, which this engine does not hold", h.id)
		}
		s := sh.man.Segs[at]
		if s.Tree.Dims() != src.dims {
			return fmt.Errorf("karl: replica snapshot: held segment %d has %d dims, the stream's engine has %d", h.id, s.Tree.Dims(), src.dims)
		}
		dead, ok := s.DeadRows(h.dead)
		if !ok {
			return fmt.Errorf("karl: replica snapshot: a dead row of held segment %d is not a row of it", h.id)
		}
		segs[i], fixes = s, append(fixes, deadRows{s, dead})
	}
	for _, f := range fixes {
		f.s.Dead = f.dead
	}
	if src.man.Epoch != sh.man.Epoch || !slices.Equal(segs, sh.man.Segs) {
		sh.man, sh.skel = src.man, nil
	}
	if src.dynConfig != sh.dynConfig {
		// Every view rebuilds its forest before its next answer instead of
		// refining with the superseded kernel.
		sh.dynConfig = src.dynConfig
		sh.cfgGen++
	}
	sh.dims, sh.mem, sh.spare = src.dims, src.mem, nil
	sh.nextSeq, sh.nextID = src.nextSeq, src.nextID
	sh.seals, sh.compactions, sh.deletes = src.seals, src.compactions, src.deletes
	sh.mirror = true
	return nil
}
