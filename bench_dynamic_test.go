package karl

import (
	"testing"
	"time"
)

// BenchmarkInsertHeavy measures the segmented engine under a 90/10
// query/insert steady state: every tenth operation streams a new point in
// (absorbing seal and background-compaction cost), the rest are
// approximate queries over the live manifest. This is the workload the
// LSM-style architecture exists for — a stop-the-world rebuild anywhere
// in the maintenance path shows up directly in the per-op time.
func BenchmarkInsertHeavy(b *testing.B) {
	pts, q := benchCloud(20000, 8)
	d, err := NewDynamic(Gaussian(20), WithSealSize(512), WithCompactionFanout(4))
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range pts[:10000] {
		if err := d.Insert(p, 1); err != nil {
			b.Fatal(err)
		}
	}
	next := 10000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%10 == 9 {
			if err := d.Insert(pts[next%len(pts)], 1); err != nil {
				b.Fatal(err)
			}
			next++
		} else {
			if _, err := d.Approximate(q, 0.1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDynamicInsert isolates the write path: appends into the
// memtable with periodic seals, no queries.
func BenchmarkDynamicInsert(b *testing.B) {
	pts, _ := benchCloud(20000, 8)
	d, err := NewDynamic(Gaussian(20), WithSealSize(512), WithCompactionFanout(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Insert(pts[i%len(pts)], 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaseTerm times the exact scan a read pays under the engine lock
// (Engine.snapshot) over 512 memtable rows plus 512 dead rows at d = 8 —
// the rows no bound can settle — and reports it per row. Compaction is off
// so the tombstones stay put; the decayed case also rescales every weight
// to the query instant.
func BenchmarkBaseTerm(b *testing.B) {
	const rows, dims = 512, 8
	pts, _ := benchCloud(3*rows, dims)
	for _, decay := range []bool{false, true} {
		name := "plain"
		opts := []Option{WithSealSize(2 * rows), WithAutoCompaction(false)}
		if decay {
			name = "decayed"
			opts = append(opts, WithDecayHalfLife(time.Hour))
		}
		b.Run(name, func(b *testing.B) {
			d, err := NewDynamic(Gaussian(20), opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			for _, p := range pts {
				if err := d.Insert(p, 1); err != nil { // the first 2·rows seal into one segment
					b.Fatal(err)
				}
			}
			for id := uint64(1); id <= rows; id++ {
				if err := d.Delete(id); err != nil {
					b.Fatal(err)
				}
			}
			if d.MemtableLen() != rows || d.Tombstones() != rows {
				b.Fatalf("%d memtable rows, %d tombstones; want %d of each", d.MemtableLen(), d.Tombstones(), rows)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := d.snapshot(pts[i%len(pts)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*rows), "ns/row")
		})
	}
}
