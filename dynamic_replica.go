package karl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"

	"karl/internal/blockio"
	"karl/internal/segment"
)

// This file is the engine half of the replication subsystem: a leader
// exports its state as (a) whole sealed segments, each a stream of the one
// segment block an engine file holds it in (persist.go), and (b) a row tail
// above a fence sequence number, plus a bounded delete log; a follower installs the
// segments atomically and replays the rows and deletes. Because sealed
// segments are immutable and carry their sequence numbers, a follower
// that applies every segment and row above its fence and replays the
// delete log holds exactly the leader's live mass — the ε/τ certificate
// contracts survive failover verbatim. The internal/replica package
// drives these primitives over HTTP.

// ErrReplicaResync reports that incremental catch-up from the follower's
// fence is impossible — the leader has compacted the needed history away
// (a straddling segment on a timed engine cannot be replayed row by row, and
// the delete log is bounded) — so the follower must take a full snapshot.
var ErrReplicaResync = errors.New("karl: replica incremental catch-up unavailable (full resync required)")

// replicaDelLogCap bounds the in-memory delete log. When it overflows,
// the oldest half is trimmed and followers whose delete position aged
// past the trim get ErrReplicaResync.
const replicaDelLogCap = 1 << 16

// TailRow is one live memtable row shipped from leader to follower: the
// point, its weight, its cluster-visible sequence number and (on timed
// engines) its absolute insert timestamp in unix nanoseconds.
type TailRow struct {
	P   []float64
	W   float64
	Seq uint64
	T   int64
}

// ReplicaBatch is one consistent pull of everything a follower at
// (fence, delete-pos) is missing: whole sealed segments, a stream of one
// segment block each (dead rows included), loose rows (memtable tail plus
// rows extracted from segments that straddle the fence), and the seqs deleted
// since the follower's delete position. Kernel is the leader's: a follower
// serving another kernel refuses the segments. NextSeq and DeletePos are the
// leader's counters at capture time — the follower's new fence is
// NextSeq−1 once the batch is applied, which also covers ids that were
// inserted and deleted again between two pulls (those ship as neither
// row nor segment, only as a delete-log entry).
type ReplicaBatch struct {
	Kernel    Kernel
	Segments  [][]byte
	Rows      []TailRow
	Deletes   []uint64
	NextSeq   uint64
	DeletePos uint64
}

// logDeleteLocked appends one deleted seq to the bounded delete log,
// trimming the oldest half on overflow. Called with mu held on every
// successful Delete.
func (sh *dynShared) logDeleteLocked(seq uint64) {
	if len(sh.delLog) >= replicaDelLogCap {
		trim := len(sh.delLog) / 2
		kept := make([]uint64, len(sh.delLog)-trim)
		copy(kept, sh.delLog[trim:])
		sh.delLog = kept
		sh.delLogBase += uint64(trim)
	}
	sh.delLog = append(sh.delLog, seq)
}

// DeletePos returns the leader's current delete-log position — the total
// number of deletes ever applied. A fresh follower records it before
// taking a snapshot so its first incremental pull starts exactly where
// the snapshot's state ends.
func (d *Engine) DeletePos() uint64 {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.delLogBase + uint64(len(sh.delLog))
}

// deletesSinceLocked returns the seqs deleted at or after position pos (in
// deletion order) and the new position. It fails with ErrReplicaResync
// when pos predates the bounded log's trimmed head — the follower missed
// deletes it can never recover incrementally.
func (sh *dynShared) deletesSinceLocked(pos uint64) ([]uint64, uint64, error) {
	cur := sh.delLogBase + uint64(len(sh.delLog))
	if pos > cur {
		return nil, 0, fmt.Errorf("karl: delete position %d is ahead of the log (at %d)", pos, cur)
	}
	if pos < sh.delLogBase {
		return nil, 0, fmt.Errorf("%w: delete log trimmed past position %d (oldest retained %d)", ErrReplicaResync, pos, sh.delLogBase)
	}
	out := append([]uint64(nil), sh.delLog[pos-sh.delLogBase:]...)
	return out, cur, nil
}

// replicaSegment is one sealed segment selected for whole shipping,
// captured under the lock and encoded outside it (segments are
// immutable; only their tombstone set needs copying).
type replicaSegment struct {
	seg  *segment.Segment
	dead *segment.Dead // copy of the tombstones shadowing rows of this segment
}

// replicaExportLocked classifies every sealed segment against the fence:
// fully below → skip, fully above → ship whole, straddling → extract the
// rows above the fence individually. A straddler on a timed engine forces
// a resync (per-row replay cannot reproduce decay state anchored to the
// segment's time reference).
// Called with mu held and sealing/draining waited out.
func (sh *dynShared) replicaExportLocked(fence uint64) ([]replicaSegment, []TailRow, error) {
	var segs []replicaSegment
	var rows []TailRow
	for _, s := range sh.man.Segs {
		minSeq, maxSeq := s.Seqs[0], s.Seqs[len(s.Seqs)-1]
		if maxSeq <= fence {
			continue // follower already has every row of this segment
		}
		if minSeq > fence {
			segs = append(segs, replicaSegment{seg: s, dead: s.Dead.Clone()})
			continue
		}
		// Straddler: the follower holds a prefix of this segment's rows.
		if sh.timed() {
			return nil, nil, fmt.Errorf("%w: segment %d straddles fence %d on a timed engine", ErrReplicaResync, s.ID, fence)
		}
		lo := sort.Search(len(s.Seqs), func(i int) bool { return s.Seqs[i] > fence })
		for i := lo; i < len(s.Seqs); i++ {
			seq := s.Seqs[i]
			if s.Dead.Has(seq) {
				continue
			}
			// Seqs is insertion-ordered while the tree stores rows in leaf
			// order; Find maps the seq to its storage row — indexing the
			// tree with i would ship the wrong point under this seq.
			row, ok := s.Find(seq)
			if !ok {
				return nil, nil, fmt.Errorf("karl: segment %d does not store its own seq %d", s.ID, seq)
			}
			w := 1.0
			if s.Tree.Weights != nil {
				w = s.Tree.Weights[row]
			}
			rows = append(rows, TailRow{
				P:   append([]float64(nil), s.Tree.Points.Row(row)...),
				W:   w,
				Seq: seq,
			})
		}
	}
	return segs, rows, nil
}

// memTailLocked returns the live memtable rows above the fence — the tail
// a follower replays after installing every sealed segment.
func (sh *dynShared) memTailLocked(fence uint64) []TailRow {
	mt := sh.mem
	if mt == nil {
		return nil
	}
	var rows []TailRow
	for i := 0; i < mt.n; i++ {
		if mt.seq[i] <= fence {
			continue
		}
		r := TailRow{
			P:   append([]float64(nil), mt.m.Row(i)...),
			W:   mt.w[i],
			Seq: mt.seq[i],
		}
		if mt.t != nil {
			r.T = mt.t[i]
		}
		rows = append(rows, r)
	}
	return rows
}

// PullBatch captures, in one consistent snapshot, everything a follower
// at (fence, delPos) is missing: missing sealed segments, the loose-row
// tail, and the delete log since delPos. The follower applies segments,
// then rows, then deletes, then advances its fence to NextSeq−1 and its
// delete position to DeletePos.
func (d *Engine) PullBatch(fence, delPos uint64) (*ReplicaBatch, error) {
	sh := d.sh
	sh.mu.Lock()
	for sh.sealing != nil || sh.draining {
		sh.cond.Wait()
	}
	if sh.closed {
		sh.mu.Unlock()
		return nil, errors.New("karl: engine is closed")
	}
	segs, rows, err := sh.replicaExportLocked(fence)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	dels, newPos, err := sh.deletesSinceLocked(delPos)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	rows = append(rows, sh.memTailLocked(fence)...)
	nextSeq, kern := sh.nextSeq, sh.kern
	sh.mu.Unlock()
	streams := make([][]byte, len(segs))
	for i, rs := range segs {
		var buf bytes.Buffer
		c := blockio.NewEncoder(&buf)
		segmentBlock(c, rs.seg, rs.dead)
		c.Finish() // a bytes.Buffer cannot fail
		streams[i] = buf.Bytes()
	}
	return &ReplicaBatch{
		Kernel:    kern,
		Segments:  streams,
		Rows:      rows,
		Deletes:   dels,
		NextSeq:   nextSeq,
		DeletePos: newPos,
	}, nil
}

// decodeReplicaSegment validates one segment stream (as produced by
// PullBatch) without touching the follower.
func decodeReplicaSegment(data []byte) (*segment.Segment, error) {
	c := blockio.NewDecoder(bytes.NewReader(data))
	seg, err := segmentBlock(c, nil, nil)
	if err == nil {
		_, err = c.Finish()
	}
	if err != nil {
		return nil, fmt.Errorf("karl: replica segment: %w", err)
	}
	return seg, nil
}

// installReplicaSegment installs one decoded segment of a leader serving
// kern into the follower: the segment is re-identified under the follower's
// id counter, its tombstones are adopted, and the seq counter jumps past the
// segment's rows. A segment whose rows the follower already holds is skipped
// silently (idempotent redelivery); a partial overlap is corruption and fails.
func (d *Engine) installReplicaSegment(seg *segment.Segment, kern Kernel) error {
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Everything buffered is older than the incoming segment (loose rows
	// of an older straddler apply before it): seal it first, so the
	// manifest stays in sequence order and any later merge of neighbours
	// concatenates ascending sequence numbers.
	if err := sh.flushLocked(); err != nil {
		return err
	}
	for sh.sealing != nil || sh.draining {
		sh.cond.Wait()
	}
	if sh.closed {
		return errors.New("karl: engine is closed")
	}
	if err := sh.compactErrLocked(); err != nil {
		return err
	}
	if sh.kern != kern {
		return fmt.Errorf("karl: replica segment kernel %+v differs from engine kernel %+v", kern, sh.kern)
	}
	if sh.dims != 0 && seg.Tree.Dims() != sh.dims {
		return fmt.Errorf("karl: replica segment has %d dims, engine has %d", seg.Tree.Dims(), sh.dims)
	}
	minSeq, maxSeq := seg.Seqs[0], seg.Seqs[len(seg.Seqs)-1]
	if maxSeq < sh.nextSeq {
		return nil // already installed: idempotent redelivery
	}
	if minSeq < sh.nextSeq {
		return fmt.Errorf("karl: replica segment seqs [%d,%d] partially overlap applied prefix (next seq %d)", minSeq, maxSeq, sh.nextSeq)
	}
	sh.nextSeq = maxSeq + 1
	if sh.dims == 0 {
		sh.dims = seg.Tree.Dims()
	}
	seg.ID = sh.nextID
	sh.nextID++
	// The block's tombstones shadow rows of this segment and travel with
	// it; they are pre-snapshot deletes, never replayed incrementally.
	sh.deletes += seg.Dead.Len()
	sh.delLogBase += uint64(seg.Dead.Len())
	sh.man = sh.man.WithSealed(seg)
	sh.seals++
	sh.maybeCompactLocked()
	return nil
}

// ApplyRows replays leader rows on the follower with their original
// sequence numbers and timestamps. Rows at or below the follower's seq
// counter are skipped (idempotent redelivery); the applied count is
// returned. Rows must arrive in ascending seq order.
func (d *Engine) ApplyRows(rows []TailRow) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	dims := 0
	for i, r := range rows {
		if err := validateInsert(r.P, r.W); err != nil {
			return 0, err
		}
		if r.Seq == 0 {
			return 0, fmt.Errorf("karl: replica row %d has seq 0", i)
		}
		if i > 0 && r.Seq <= rows[i-1].Seq {
			return 0, fmt.Errorf("karl: replica rows not ascending (seq %d after %d)", r.Seq, rows[i-1].Seq)
		}
		if dims == 0 {
			dims = len(r.P)
		} else if len(r.P) != dims {
			return 0, fmt.Errorf("karl: replica row %d has %d dims, batch has %d", i, len(r.P), dims)
		}
	}
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.insertReadyLocked(dims); err != nil {
		return 0, err
	}
	applied := 0
	for _, r := range rows {
		if r.Seq < sh.nextSeq {
			continue
		}
		if err := sh.applyRowLocked(r); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

// applyRowLocked lands one leader row with an explicit seq and time —
// the replication twin of insertRowLocked. Called with mu held; may
// release it while waiting for room or sealing.
func (sh *dynShared) applyRowLocked(r TailRow) error {
	for sh.draining || (sh.mem != nil && sh.mem.n >= sh.policy.SealSize) {
		sh.cond.Wait()
		if sh.closed {
			return errors.New("karl: engine is closed")
		}
	}
	if sh.mem == nil {
		sh.mem = newMemtable(sh.policy.SealSize, sh.dims, sh.timed())
	}
	sh.nextSeq = r.Seq + 1
	mt := sh.mem
	copy(mt.m.Row(mt.n), r.P)
	mt.w[mt.n] = r.W
	mt.seq[mt.n] = r.Seq
	if mt.t != nil {
		if r.T != 0 {
			mt.t[mt.n] = r.T
		} else {
			mt.t[mt.n] = sh.now()
		}
	}
	mt.n++
	if mt.n >= sh.policy.SealSize {
		return sh.sealLocked()
	}
	return nil
}

// ApplyBatch applies one PullBatch — segments and rows interleaved in
// global seq order, then deletes — and reports the follower's new fence.
// Order matters: installing a segment advances the idempotent-redelivery
// fence past every lower seq, so loose rows extracted from an OLDER
// straddling segment must land before any newer whole segment or they
// would be skipped as duplicates and lost. Deletes of ids the follower
// never held (inserted and deleted between two pulls, or physically
// dropped memtable rows) are ignored.
func (d *Engine) ApplyBatch(b *ReplicaBatch) (fence uint64, err error) {
	segs := make([]*segment.Segment, 0, len(b.Segments))
	for _, data := range b.Segments {
		seg, err := decodeReplicaSegment(data)
		if err != nil {
			return 0, err
		}
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seqs[0] < segs[j].Seqs[0] })
	rows := b.Rows
	for _, seg := range segs {
		cut := sort.Search(len(rows), func(i int) bool { return rows[i].Seq >= seg.Seqs[0] })
		if _, err := d.ApplyRows(rows[:cut]); err != nil {
			return 0, err
		}
		rows = rows[cut:]
		if err := d.installReplicaSegment(seg, b.Kernel); err != nil {
			return 0, err
		}
	}
	if _, err := d.ApplyRows(rows); err != nil {
		return 0, err
	}
	for _, seq := range b.Deletes {
		if err := d.Delete(seq); err != nil && !errors.Is(err, ErrPointNotFound) {
			return 0, err
		}
	}
	// The leader's seq counter may be ahead of the last shipped row (rows
	// inserted then deleted ship only as delete-log entries); adopt it so
	// the next pull's fence doesn't re-request them.
	sh := d.sh
	sh.mu.Lock()
	if b.NextSeq > sh.nextSeq {
		sh.nextSeq = b.NextSeq
	}
	fence = sh.nextSeq - 1
	sh.mu.Unlock()
	return fence, nil
}

// InstallSnapshot replaces an EMPTY follower engine's state with a full
// leader snapshot (a WriteTo stream): configuration, manifest, memtable,
// tombstones and counters are adopted wholesale; only runtime plumbing
// (clock, batch executor, worker counts) is kept. The follower's delete
// position after installation is the leader's DeletePos captured before
// the snapshot was taken.
func (d *Engine) InstallSnapshot(r io.Reader) error {
	d2, err := ReadEngine(r)
	if err != nil {
		return fmt.Errorf("karl: replica snapshot: %w", err)
	}
	src := d2.sh
	sh := d.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return errors.New("karl: engine is closed")
	}
	if sh.man.Len() != 0 || sh.mem.len() != 0 || sh.nextSeq > 1 ||
		sh.sealing != nil || sh.draining || sh.compacting {
		return errors.New("karl: snapshot install requires an empty, idle engine")
	}
	sh.dynConfig = src.dynConfig
	sh.dims = src.dims
	sh.man = src.man
	sh.mem = src.mem
	sh.nextSeq = src.nextSeq
	sh.nextID = src.nextID
	sh.seals = src.seals
	sh.compactions = src.compactions
	sh.deletes = src.deletes
	sh.delLog = nil
	sh.delLogBase = src.delLogBase
	// The kernel configuration above may differ from what this engine
	// was constructed with; bumping the generation makes every live view
	// (and pooled clone) rebuild its forest before the next answer
	// instead of refining with the superseded kernel.
	sh.cfgGen++
	sh.maybeCompactLocked()
	return nil
}
