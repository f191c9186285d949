// Package oracle is the benchmark's own exact answer: a naive Gaussian
// scan over the harness's copy of the live point set, and the two
// contracts of the paper checked against it. It shares no code with the
// system under test, so an answer both agree on is right for a reason.
package oracle

import (
	"fmt"
	"math"
	"sync"
)

// Set is a weighted point set under one Gaussian kernel. Weights nil means
// unit weights (Type I); positive weights are Type II, mixed signs Type III.
type Set struct {
	Dim     int
	Gamma   float64
	Points  [][]float64
	Weights []float64
}

// W is the total weight mass Σ|w_i| every tolerance band is stated against.
func (s *Set) W() float64 {
	if s.Weights == nil {
		return float64(len(s.Points))
	}
	var w float64
	for _, v := range s.Weights {
		w += math.Abs(v)
	}
	return w
}

// F computes Σ w_i·exp(−γ‖q−p_i‖²) exactly.
func (s *Set) F(q []float64) float64 {
	var sum float64
	for i, p := range s.Points {
		var d2 float64
		for j, v := range p {
			d := q[j] - v
			d2 += d * d
		}
		k := math.Exp(-s.Gamma * d2)
		if s.Weights != nil {
			k *= s.Weights[i]
		}
		sum += k
	}
	return sum
}

// FAll evaluates F for every query on the given number of goroutines.
func (s *Set) FAll(queries [][]float64, workers int) []float64 {
	out := make([]float64, len(queries))
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				out[i] = s.F(queries[i])
			}
		}(w)
	}
	wg.Wait()
	return out
}

// band is the absolute slack, as a share of W, inside which a verdict or a
// value is not judged: the system sums in tree order, the oracle in
// insertion order, and the two differ by rounding.
const band = 1e-9

// Check accumulates contract verdicts. The zero value is ready; it is not
// safe for concurrent use.
type Check struct {
	Verified          int
	TkaqWrongVerdicts int
	EkaqViolations    int
	// UnflaggedPartials counts the wrong answers that came from a front
	// door which reports coverage and claimed it was complete — the silent
	// kind. The caller sets it; it is a subset of the two counts above.
	UnflaggedPartials int
	// MaxErrOverEps is the worst |v−F| ÷ (ε·|F|) seen on an eKAQ answer;
	// at most 1 when the contract holds.
	MaxErrOverEps float64
	// First holds the first three offending answers, for the report.
	First []string
}

// Violations is the number of answers that broke a contract.
func (c *Check) Violations() int { return c.TkaqWrongVerdicts + c.EkaqViolations }

func (c *Check) offend(format string, args ...any) {
	if len(c.First) < 3 {
		c.First = append(c.First, fmt.Sprintf(format, args...))
	}
}

// Threshold judges a TKAQ verdict "F > tau". Inside the rounding band
// around tau either verdict is accepted. It reports whether the answer held.
func (c *Check) Threshold(label string, over bool, f, tau, w float64) bool {
	c.Verified++
	if math.Abs(f-tau) <= band*w || over == (f > tau) {
		return true
	}
	c.TkaqWrongVerdicts++
	c.offend("%s: TKAQ over=%v but F=%.12g tau=%.12g", label, over, f, tau)
	return false
}

// Approx judges an eKAQ value: |v−F| ≤ ε·|F| plus the rounding band. This
// is also the mixed-sign form core.CondApprox guarantees for Type III. It
// reports whether the answer held.
func (c *Check) Approx(label string, v, f, eps, w float64) bool {
	c.Verified++
	err := math.Abs(v - f)
	if math.IsNaN(err) {
		err = math.Inf(1)
	}
	slack := band * w
	if allowed := eps * math.Abs(f); allowed > 0 {
		if r := (err - slack) / allowed; r > c.MaxErrOverEps {
			c.MaxErrOverEps = r
		}
	}
	if err <= eps*math.Abs(f)+slack {
		return true
	}
	c.EkaqViolations++
	c.offend("%s: eKAQ v=%.12g but F=%.12g eps=%g (err/eps|F| = %.3g)", label, v, f, eps, err/(eps*math.Abs(f)))
	return false
}
