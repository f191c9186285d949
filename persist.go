package karl

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"karl/internal/blockio"
	"karl/internal/index"
	"karl/internal/segment"
	"karl/internal/vec"
)

// An engine file is a blockio stream: one engine block (kernel, index and
// LSM policy, counters, provenance, ρ when the engine is an SVM's, and the
// number of segments), one segment block per manifest segment oldest-first,
// one memtable block. A segment block is the sealed segment whole — the
// built flat index itself (leaf-ordered points and weights, the original-row
// mapping, the packed node and bounding-volume arrays), its sequence numbers
// and insert times, and the tombstones of its own dead rows — so loading
// reconstructs the exact trees and answers are bitwise identical across a
// round trip. A replication pull is the same stream with a held-segment
// block — the id and the dead seqs — in the place of every segment the
// follower said it holds (dynamic_replica.go). Each block's fields are listed
// once, by the function below that moves it in either direction;
// internal/blockio owns how a field becomes bytes.

// WriteTo serializes the engine — manifest, memtable and policy — so a
// reload by ReadEngine resumes with the identical segment layout and
// therefore bitwise-identical answers. It waits for an in-flight seal or
// full compaction to finish, captures under the lock only what can change
// (the engine block, the manifest pointer, each segment's dead set, the
// memtable rows), and streams the immutable segments after releasing it; a
// concurrent background merge does not block the write (the pre-merge
// manifest is a consistent snapshot).
func (d *Engine) WriteTo(w io.Writer) (int64, error) { return d.writeTo(w, nil, nil) }

// writeTo writes the engine file, or — given what a follower holds — the
// replication stream that elides it: nothing at all, not even the header, for
// a follower that holds the engine exactly as it stands.
func (d *Engine) writeTo(w io.Writer, rho *float64, have *ReplicaHave) (int64, error) {
	sh := d.sh
	sh.mu.Lock()
	for sh.sealing != nil || sh.draining {
		sh.cond.Wait()
	}
	if have != nil && have.at(sh) {
		sh.mu.Unlock()
		return 0, nil
	}
	c := blockio.NewEncoder(w)
	segs := sh.man.Segs
	nsegs := len(segs)
	sh.engineBlock(c, &rho, &nsegs) // far smaller than the encoder's buffer: no I/O under the lock
	held := make([]heldSegment, nsegs)
	dead := make([]*segment.Dead, nsegs)
	for i, s := range segs {
		// sealDead is empty: the seal was waited out. Of a held segment's
		// dead rows only the seqs ship, so only they are copied.
		if !have.holds(s) {
			dead[i] = s.Dead.Clone()
		} else if held[i].id = s.ID; s.Dead != nil {
			held[i].dead = slices.Clone(s.Dead.Seqs)
		}
	}
	rows := sh.memRowsLocked()
	sh.mu.Unlock()
	for i, s := range segs {
		if held[i].id != 0 {
			heldBlock(c, &held[i])
		} else {
			segmentBlock(c, s, dead[i])
		}
	}
	memtableBlock(c, &rows)
	return c.Finish()
}

// engineBlock moves the engine block between sh and the stream. A decoder
// is given a blank sh, and validates what it filled in.
func (sh *dynShared) engineBlock(c *blockio.Codec, rho **float64, nsegs *int) error {
	kind, method, halfLife := publicIndexKind(sh.bcfg.Kind), publicMethod(sh.method), int64(sh.halfLife)
	c.Begin(blockio.TagEngine)
	blockio.Int(c, &sh.dims)
	blockio.Int(c, &sh.kern.Kind)
	c.Float64(&sh.kern.Gamma)
	c.Float64(&sh.kern.Beta)
	blockio.Int(c, &sh.kern.Degree)
	blockio.Int(c, &kind)
	blockio.Int(c, &sh.bcfg.LeafCap)
	blockio.Int(c, &method)
	blockio.Int(c, &sh.policy.SealSize)
	blockio.Int(c, &sh.policy.Fanout)
	c.Bool(&sh.autoCompact)
	c.Int64(&sh.ttl)
	c.Int64(&halfLife)
	c.Uint64(&sh.man.Epoch)
	c.Uint64(&sh.nextID)
	c.Uint64(&sh.nextSeq)
	blockio.Int(c, &sh.seals)
	blockio.Int(c, &sh.compactions)
	blockio.Int(c, &sh.deletes)
	blockio.Int(c, nsegs)
	if blockio.Opt(c, rho) {
		c.Float64(*rho)
	}
	if blockio.Opt(c, &sh.shardProv) {
		sp := sh.shardProv
		blockio.Int(c, &sp.Index)
		blockio.Int(c, &sp.Of)
		blockio.Int(c, &sp.Partition)
		blockio.Int(c, &sp.SourceLen)
	}
	// The flag that once announced a coreset's provenance: always written
	// false. A file that sets it holds a coreset engine, which this build
	// does not read.
	var sketch bool
	if c.Bool(&sketch); sketch {
		return errors.New("engine block carries a sketch (coreset) record, which this build does not read")
	}
	if err := c.End(); err != nil || !c.Decoding() {
		return err
	}
	var err error
	if sh.bcfg.Kind, err = indexKindOf(kind); err != nil {
		return err
	}
	if sh.method, err = methodOf(method); err != nil {
		return err
	}
	sh.halfLife = float64(halfLife)
	// Provenance describes the set the engine was built over, which streamed
	// inserts may since have outgrown, so only its own consistency is checked.
	if sp := sh.shardProv; sp != nil && (sp.Of < 1 || sp.Index < 0 || sp.Index >= sp.Of || sp.SourceLen < 1) {
		return errors.New("corrupt engine block (shard provenance)")
	}
	if sh.dims < 0 || sh.nextSeq == 0 || sh.deletes < 0 {
		return errors.New("corrupt engine block (dims or counters out of range)")
	}
	return sh.validate()
}

// segmentBlock moves one segment block: an encoder writes s with dead, the
// copy of its dead set taken under the engine lock (nil for none); a decoder
// is given neither and returns the segment it reconstructed, every array
// read straight into the slice the segment keeps. A dead row the segment does
// not itself store is refused — it would subtract mass the segment does not
// hold. Either direction leaves the segment's fingerprint on it: the block
// checksum as it stands where the immutable fields end and the dead rows begin.
func segmentBlock(c *blockio.Codec, s *segment.Segment, dead *segment.Dead) (*segment.Segment, error) {
	var (
		kind          IndexKind
		leafCap, dims int
		pts, w, vols  []float64
		pointID, node []int32
	)
	if dead == nil {
		dead = &segment.Dead{}
	}
	if c.Decoding() {
		s = &segment.Segment{}
	} else {
		t := s.Tree
		kind, leafCap, dims = publicIndexKind(t.Kind), t.LeafCap, t.Dims()
		pts, w, pointID = t.Points.Data[:t.Len()*dims], t.Weights, t.PointID
		node, vols = t.FlattenNodes(), t.FlattenVolumes()
	}
	c.Begin(blockio.TagSegment)
	c.Uint64(&s.ID)
	blockio.Int(c, &kind)
	blockio.Int(c, &leafCap)
	blockio.Int(c, &dims)
	blockio.Slice(c, &pts)
	blockio.Slice(c, &w)
	blockio.Slice(c, &pointID)
	blockio.Slice(c, &node)
	blockio.Slice(c, &vols)
	blockio.Slice(c, &s.Seqs)
	blockio.Slice(c, &s.Times)
	c.Int64(&s.TimeRef)
	sum := sumKnown | uint64(c.Sum())
	blockio.Slice(c, &dead.Seqs)
	blockio.Slice(c, &dead.W)
	blockio.Slice(c, &dead.Ref)
	blockio.Slice(c, &dead.Pts)
	if err := c.End(); err != nil || !c.Decoding() {
		if err == nil {
			s.Sum.Store(sum)
		}
		return nil, err
	}
	ik, err := indexKindOf(kind)
	if err != nil {
		return nil, err
	}
	if dims < 1 || len(pts) == 0 || len(pts)%dims != 0 {
		return nil, errors.New("corrupt segment block (points)")
	}
	m := &vec.Matrix{Data: pts, Rows: len(pts) / dims, Cols: dims}
	if w != nil && len(w) != m.Rows {
		return nil, errors.New("corrupt segment block (weights)")
	}
	tree, err := index.Reconstruct(ik, m, w, pointID, node, vols, leafCap)
	if err != nil {
		return nil, fmt.Errorf("corrupt segment block: %w", err)
	}
	if len(s.Seqs) != m.Rows || (s.Times != nil && len(s.Times) != m.Rows) || !ascending(s.Seqs) {
		return nil, fmt.Errorf("corrupt segment block: %d seqs and %d times for %d points, or seqs not ascending", len(s.Seqs), len(s.Times), m.Rows)
	}
	s = segment.New(tree, s.ID, s.Seqs, s.Times, s.TimeRef)
	s.Sum.Store(sum)
	if nd := dead.Len(); nd > 0 {
		if len(dead.W) != nd || len(dead.Ref) != nd || len(dead.Pts) != nd*dims || !ascending(dead.Seqs) {
			return nil, errors.New("corrupt segment block (dead rows)")
		}
		for _, seq := range dead.Seqs {
			if _, ok := s.Find(seq); !ok {
				return nil, fmt.Errorf("corrupt segment block: dead row %d is not a row of segment %d", seq, s.ID)
			}
		}
		dead.Dims = dims
		dead.FillNorms()
		s.Dead = dead
	}
	return s, nil
}

// sumKnown marks a Segment.Sum that holds a fingerprint.
const sumKnown = 1 << 32

// segmentSum returns the fingerprint of s's immutable content, encoding s once
// into the void if this process built it and has neither written nor read it.
func segmentSum(s *segment.Segment) uint32 {
	if s.Sum.Load() == 0 {
		segmentBlock(blockio.NewEncoder(io.Discard), s, nil)
	}
	return uint32(s.Sum.Load())
}

// heldSegment is what a replication stream carries in the place of a segment
// the follower holds: the id (never 0) and the seqs of the rows dead in it.
type heldSegment struct {
	id   uint64
	dead []uint64
}

// heldBlock moves one held-segment block.
func heldBlock(c *blockio.Codec, h *heldSegment) error {
	c.Begin(blockio.TagHeld)
	c.Uint64(&h.id)
	blockio.Slice(c, &h.dead)
	if err := c.End(); err != nil || !c.Decoding() {
		return err
	}
	if !ascending(h.dead) {
		return fmt.Errorf("corrupt held-segment block: dead rows of segment %d not ascending", h.id)
	}
	return nil
}

// ascending reports whether seqs is strictly ascending.
func ascending(seqs []uint64) bool {
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			return false
		}
	}
	return true
}

// memtableBlock moves the memtable block: the buffered rows with their ids
// and insert times, which applyRows puts back.
func memtableBlock(c *blockio.Codec, rows *[]tailRow) error {
	n := len(*rows)
	c.Begin(blockio.TagMemtable)
	blockio.Int(c, &n)
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Decoding() {
			*rows = append(*rows, tailRow{}) // grows with the bytes read, not with n
		}
		r := &(*rows)[i]
		blockio.Slice(c, &r.P)
		c.Float64(&r.W)
		c.Uint64(&r.Seq)
		c.Int64(&r.T)
	}
	return c.End()
}

// ReadEngine deserializes an engine written by Engine.WriteTo (an SVM file
// loads as the engine over its support vectors). Every segment is
// reconstructed, not rebuilt, so answers are bitwise identical across the
// round trip. A stream that is cut short, fails a block checksum, or was
// written before the block format is refused, and so is a replication stream:
// a file has no engine to resolve a held-segment block against.
func ReadEngine(r io.Reader) (*Engine, error) {
	eng, _, err := readEngine(r, nil)
	return eng, err
}

// readEngine decodes an engine stream into a new engine. Given held, it
// leaves the manifest a nil segment where the stream has a held-segment block
// and lists those blocks there, in manifest order, for InstallSnapshot to
// resolve.
func readEngine(r io.Reader, held *[]heldSegment) (eng *Engine, rho *float64, err error) {
	defer func() {
		if err != nil {
			eng, err = nil, fmt.Errorf("karl: reading engine: %w", err)
		}
	}()
	c := blockio.NewDecoder(r)
	sh := blankShared()
	var nsegs int
	if err := sh.engineBlock(c, &rho, &nsegs); err != nil {
		return nil, nil, err
	}
	for i := 0; i < nsegs; i++ {
		if c.Next() == blockio.TagHeld {
			if held == nil {
				return nil, nil, fmt.Errorf("segment %d: held-segment block: an engine file has nothing to resolve it against", i)
			}
			var h heldSegment
			if err := heldBlock(c, &h); err != nil {
				return nil, nil, fmt.Errorf("segment %d: %w", i, err)
			}
			*held = append(*held, h)
			sh.man.Segs = append(sh.man.Segs, nil)
			continue
		}
		s, err := segmentBlock(c, nil, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("segment %d: %w", i, err)
		}
		if s.Tree.Dims() != sh.dims {
			return nil, nil, fmt.Errorf("segment %d has %d dims, engine has %d", i, s.Tree.Dims(), sh.dims)
		}
		sh.man.Segs = append(sh.man.Segs, s)
	}
	var rows []tailRow
	if err := memtableBlock(c, &rows); err != nil {
		return nil, nil, err
	}
	if _, err := c.Finish(); err != nil {
		return nil, nil, err
	}
	eng = &Engine{sh: sh}
	if len(rows) >= sh.policy.SealSize {
		return nil, nil, fmt.Errorf("memtable block holds %d rows, a memtable seals at %d", len(rows), sh.policy.SealSize)
	}
	// Replaying the rows moves the id counter up to the last of them; the
	// engine block's is at or past that (ids deleted out of the memtable).
	next := sh.nextSeq
	sh.nextSeq = 0
	if err := eng.applyRows(rows); err != nil {
		return nil, nil, err
	}
	if sh.nextSeq > next {
		return nil, nil, fmt.Errorf("memtable row %d is not below the engine's next id %d", sh.nextSeq-1, next)
	}
	sh.nextSeq = next
	return eng, rho, nil
}

// WriteTo serializes a trained SVM: the engine file of its support vectors
// (weights, kernel, index) carrying ρ.
func (s *SVM) WriteTo(w io.Writer) (int64, error) { return s.eng.writeTo(w, &s.Rho, nil) }

// ReadSVM deserializes an SVM written by SVM.WriteTo.
func ReadSVM(r io.Reader) (*SVM, error) {
	eng, rho, err := readEngine(r, nil)
	if err != nil {
		return nil, err
	}
	if rho == nil {
		return nil, errors.New("karl: engine file carries no ρ: not an SVM model")
	}
	return &SVM{eng: eng, Rho: *rho, SupportVectors: eng.Len()}, nil
}
