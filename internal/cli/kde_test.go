package cli

import (
	"math"
	"math/rand"
	"testing"

	"karl/internal/vec"
)

// TestRenderGrid renders a density grid exactly and within ε through the one
// engine: the grid has res² cells, the centre of a cloud around the origin
// is denser than the corner of its range, every ε cell is within ε of the
// exact one, and out-of-range or equal dimensions and a one-cell resolution
// are refused before any column is read (the flags -dimx 5 and -dimx -1 on
// 2-d input once panicked indexing a row).
func TestRenderGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	pts := vec.NewMatrix(200, 4)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64() * 0.3
	}
	exact, err := renderGrid(pts, 3, 0, 1, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 81 {
		t.Fatalf("grid size %d, want 81", len(exact))
	}
	if center, corner := exact[4*9+4], exact[0]; center <= 10*corner {
		t.Fatalf("centre %v should dwarf corner %v", center, corner)
	}
	const eps = 0.05
	approx, err := renderGrid(pts, 3, 0, 1, 9, eps)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range approx {
		if math.Abs(v-exact[i]) > eps*exact[i]*(1+1e-9) {
			t.Fatalf("cell %d: %v, exact %v, beyond ε = %v", i, v, exact[i], eps)
		}
	}

	for _, bad := range []struct{ dimX, dimY, res int }{
		{0, 0, 8}, {0, 9, 8}, {5, 1, 8}, {-1, 1, 8}, {0, 1, 1},
	} {
		if _, err := renderGrid(pts, 3, bad.dimX, bad.dimY, bad.res, 0); err == nil {
			t.Errorf("dims (%d,%d) res %d accepted", bad.dimX, bad.dimY, bad.res)
		}
	}
}
