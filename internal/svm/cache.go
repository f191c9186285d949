package svm

import (
	"karl/internal/kernel"
	"karl/internal/vec"
)

// kernelCache serves rows of the training kernel matrix K_ij = K(x_i, x_j)
// to the SMO solver. Small problems keep the full matrix; larger ones use a
// bounded row cache with clock eviction, mirroring LibSVM's cache strategy
// in spirit.
type kernelCache struct {
	kern kernel.Params
	x    *vec.Matrix
	n    int

	full []float64 // n×n when small enough, nil otherwise

	rows    map[int][]float64
	order   []int // insertion ring for eviction
	ringPos int
	maxRows int

	// evals counts kernel evaluations, exposed for tests and tuning.
	evals int
}

// fullMatrixLimit is the training-set size up to which the whole kernel
// matrix is materialized (1500² float64 ≈ 18 MB).
const fullMatrixLimit = 1500

func newKernelCache(x *vec.Matrix, kern kernel.Params, maxRows int) *kernelCache {
	c := &kernelCache{kern: kern, x: x, n: x.Rows, maxRows: maxRows}
	if c.n <= fullMatrixLimit {
		c.full = make([]float64, c.n*c.n)
		for i := 0; i < c.n; i++ {
			for j := i; j < c.n; j++ {
				v := kern.Eval(x.Row(i), x.Row(j))
				c.evals++
				c.full[i*c.n+j] = v
				c.full[j*c.n+i] = v
			}
		}
		return c
	}
	if c.maxRows < 2 {
		c.maxRows = 2
	}
	c.rows = make(map[int][]float64, c.maxRows)
	return c
}

// row returns the i-th kernel matrix row. The returned slice must not be
// modified or retained across calls.
func (c *kernelCache) row(i int) []float64 {
	if c.full != nil {
		return c.full[i*c.n : (i+1)*c.n]
	}
	if r, ok := c.rows[i]; ok {
		return r
	}
	r := make([]float64, c.n)
	xi := c.x.Row(i)
	for j := 0; j < c.n; j++ {
		r[j] = c.kern.Eval(xi, c.x.Row(j))
		c.evals++
	}
	if len(c.rows) >= c.maxRows {
		// Evict the oldest inserted row (ring order).
		victim := c.order[c.ringPos]
		delete(c.rows, victim)
		c.order[c.ringPos] = i
		c.ringPos = (c.ringPos + 1) % c.maxRows
	} else {
		c.order = append(c.order, i)
	}
	c.rows[i] = r
	return r
}
