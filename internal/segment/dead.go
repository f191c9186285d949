package segment

import "sort"

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
	copy(d.Seqs[i+1:], d.Seqs[i:])
	copy(d.W[i+1:], d.W[i:])
	copy(d.Ref[i+1:], d.Ref[i:])
	copy(d.Pts[(i+1)*d.Dims:], d.Pts[i*d.Dims:])
	d.Seqs[i], d.W[i], d.Ref[i] = seq, w, ref
	copy(d.Row(i), p)
	return true
}

// Clone returns a deep copy (nil for the empty set), safe to read after
// the engine lock is released.
func (d *Dead) Clone() *Dead {
	if d.Len() == 0 {
		return nil
	}
	return &Dead{
		Dims: d.Dims,
		Seqs: append([]uint64(nil), d.Seqs...),
		W:    append([]float64(nil), d.W...),
		Ref:  append([]int64(nil), d.Ref...),
		Pts:  append([]float64(nil), d.Pts...),
	}
}
