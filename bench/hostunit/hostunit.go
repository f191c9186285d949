// Package hostunit is the benchmark's frozen host-speed reference: a naive
// float64 Gaussian scan over a fixed 100 000×10 matrix. Wall-clock on the
// small shared guests this benchmark runs on swings by 2× between
// consecutive seconds, and the swing is in memory streaming, not in pure
// compute; timing this scan next to every block of requests and dividing
// by it is what makes the reported numbers repeat (see bench/README.md).
//
// The package imports nothing from the repository on purpose: no
// optimisation of the system under test can move the unit.
package hostunit

import (
	"math"
	"sort"
	"time"
)

const (
	rows = 100000
	cols = 10
	// gamma keeps the exponent spread over (0, ~17): every term costs a
	// real exp, none underflows to a fast path.
	gamma = 2.0

	// NominalMS is the cost the scan is declared to have. Measured cost ÷
	// NominalMS is the host's slowness; normalised times are "milliseconds
	// on a host where the scan takes NominalMS".
	NominalMS = 3.0
)

// Ref owns the reference matrix. It is not safe for concurrent use.
type Ref struct {
	data []float64
	q    [cols]float64
	sink float64
}

// New fills the matrix from a fixed splitmix64 stream, so the data is the
// same in every run, on every Go version.
func New() *Ref { return newRef(rows) }

// NewSmall is a hundredth of the matrix, for tests that only need the
// plumbing to run; its unit means nothing.
func NewSmall() *Ref { return newRef(rows / 100) }

func newRef(rows int) *Ref {
	r := &Ref{data: make([]float64, rows*cols)}
	state := uint64(0x9e3779b97f4a7c15)
	for i := range r.data {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		r.data[i] = float64(z>>11) / (1 << 53)
	}
	for j := range r.q {
		r.q[j] = 0.5
	}
	return r
}

// Scan computes Σ exp(−γ‖q−p‖²) over the whole matrix and returns the time
// it took.
func (r *Ref) Scan() time.Duration {
	t0 := time.Now()
	var sum float64
	for i := 0; i < len(r.data)/cols; i++ {
		p := r.data[i*cols : i*cols+cols]
		var d2 float64
		for j, v := range p {
			d := r.q[j] - v
			d2 += d * d
		}
		sum += math.Exp(-gamma * d2)
	}
	r.sink = sum
	return time.Since(t0)
}

// Unit is the median of k scans.
func (r *Ref) Unit(k int) time.Duration {
	ds := make([]time.Duration, k)
	for i := range ds {
		ds[i] = r.Scan()
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[k/2]
}

// Slowness converts a measured unit into the factor every time measured
// next to it is divided by.
func Slowness(unit time.Duration) float64 {
	return float64(unit) / (NominalMS * float64(time.Millisecond))
}
