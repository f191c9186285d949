package segment

import (
	"slices"
	"sort"

	"karl/internal/vec"
)

// Dead is the set of tombstones attributed to one segment: for every row
// that has been deleted but not yet physically removed, the exact mass the
// row still contributes from inside the immutable tree — its weight and
// coordinates as stored, plus the decay reference instant that weight is
// scaled to. Queries subtract W·2^(−(T−Ref)/halfLife)·K(q, p) per entry
// from both global bounds, the same algebra with which the stored row
// contributes, so the cancellation is exact at any query time and across
// any compaction rebasing.
//
// Entries are parallel arrays in ascending Seq order — the layout the
// persistence format stores — so a query sums them in one fixed order
// (bitwise repeatable answers), membership is a binary search, and the
// dead count that drives compaction is len(Seqs). A Dead is mutated only
// under the owning engine's lock; Len, Has and Clone accept a nil receiver
// as the empty set.
type Dead struct {
	Dims int // row width of Pts
	Seqs []uint64
	W    []float64
	Ref  []int64
	Pts  []float64 // Dims-wide rows parallel to Seqs

	// Norms caches ‖p‖² of every row of Pts, so a read scans the set in the
	// fused-distance form leaves use. Derived from Pts (Add, FillNorms),
	// never persisted.
	Norms []float64

	// Debt counts the dead-row kernel evaluations reads have paid since the
	// set's first tombstone: Policy.RewriteDue rewrites the segment once it
	// reaches the rewrite's own cost. It lives only in this process — not in
	// the block format, not replicated — and a rebuild's output starts at 0.
	Debt int64
}

// Len returns the number of dead rows.
func (d *Dead) Len() int {
	if d == nil {
		return 0
	}
	return len(d.Seqs)
}

// Row returns the coordinates of entry i.
func (d *Dead) Row(i int) []float64 { return d.Pts[i*d.Dims : (i+1)*d.Dims] }

// search returns the position of seq (or where it would be inserted) and
// whether it is present.
func (d *Dead) search(seq uint64) (int, bool) {
	if d == nil {
		return 0, false
	}
	i := sort.Search(len(d.Seqs), func(i int) bool { return d.Seqs[i] >= seq })
	return i, i < len(d.Seqs) && d.Seqs[i] == seq
}

// Has reports whether the row with the given sequence number is dead.
func (d *Dead) Has(seq uint64) bool {
	_, ok := d.search(seq)
	return ok
}

// Add records one tombstone, copying p, and reports false when seq is
// already present. Deletes in ascending id order (FIFO expiry, replica
// replay) append in O(1); out-of-order deletes shift the tail.
func (d *Dead) Add(seq uint64, w float64, ref int64, p []float64) bool {
	i, ok := d.search(seq)
	if ok {
		return false
	}
	if len(d.Seqs) == 0 {
		d.Dims = len(p)
	}
	d.Seqs = append(d.Seqs, 0)
	d.W = append(d.W, 0)
	d.Ref = append(d.Ref, 0)
	d.Pts = append(d.Pts, p...)
	d.Norms = append(d.Norms, 0)
	copy(d.Seqs[i+1:], d.Seqs[i:])
	copy(d.W[i+1:], d.W[i:])
	copy(d.Ref[i+1:], d.Ref[i:])
	copy(d.Pts[(i+1)*d.Dims:], d.Pts[i*d.Dims:])
	copy(d.Norms[i+1:], d.Norms[i:])
	d.Seqs[i], d.W[i], d.Ref[i] = seq, w, ref
	copy(d.Row(i), p)
	d.Norms[i] = vec.Norm2(p)
	return true
}

// FillNorms derives Norms from Pts: what a loader calls on a set it read.
func (d *Dead) FillNorms() {
	d.Norms = make([]float64, d.Len())
	for i := range d.Norms {
		d.Norms[i] = vec.Norm2(d.Row(i))
	}
}

// Kill marks the row with sequence number seq dead and reports whether the
// segment stores the row and whether it was alive until now. Every tombstone
// is built from the stored row — its weight and coordinates, the segment's
// own decay reference — so a segment's dead rows are a function of the
// segment and their seqs alone, which is what lets a replica rebuild them
// from its own copy of the segment (DeadRows).
func (s *Segment) Kill(seq uint64) (stored, added bool) {
	row, ok := s.Find(seq)
	if !ok {
		return false, false
	}
	w := 1.0
	if s.Tree.Weights != nil {
		w = s.Tree.Weights[row]
	}
	if s.Dead == nil {
		s.Dead = &Dead{}
	}
	return true, s.Dead.Add(seq, w, s.TimeRef, s.Tree.Points.Row(row))
}

// DeadRows returns the tombstone set Kill would have built for exactly the
// given seqs — s.Dead itself when that is what it holds already, nil for
// none — without touching s.Dead, and false when s does not store one of
// them.
func (s *Segment) DeadRows(seqs []uint64) (*Dead, bool) {
	if s.Dead != nil && slices.Equal(seqs, s.Dead.Seqs) {
		return s.Dead, true
	}
	rows := Segment{Tree: s.Tree, Seqs: s.Seqs, TimeRef: s.TimeRef, inv: s.inv} // the same rows, none dead yet
	for _, seq := range seqs {
		if stored, _ := rows.Kill(seq); !stored {
			return nil, false
		}
	}
	return rows.Dead, true
}

// Clone returns a deep copy (nil for the empty set), safe to read after
// the engine lock is released.
func (d *Dead) Clone() *Dead {
	if d.Len() == 0 {
		return nil
	}
	return &Dead{
		Dims:  d.Dims,
		Seqs:  append([]uint64(nil), d.Seqs...),
		W:     append([]float64(nil), d.W...),
		Ref:   append([]int64(nil), d.Ref...),
		Pts:   append([]float64(nil), d.Pts...),
		Norms: append([]float64(nil), d.Norms...),
		Debt:  d.Debt,
	}
}
