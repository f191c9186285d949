package dataset

import (
	"bufio"
	"errors"
	"math"
	"strings"
	"testing"

	"karl/internal/vec"
)

func TestWeightingString(t *testing.T) {
	if TypeI.String() != "I" || TypeII.String() != "II" || TypeIII.String() != "III" {
		t.Fatal("Weighting.String mismatch")
	}
	if Weighting(9).String() != "Weighting(9)" {
		t.Fatal("unknown Weighting.String mismatch")
	}
}

func TestCatalogMirrorsTableVI(t *testing.T) {
	cat := Catalog()
	if len(cat) != 10 {
		t.Fatalf("catalog has %d datasets, Table VI lists 10", len(cat))
	}
	byType := map[Weighting]int{}
	for _, s := range cat {
		byType[s.Weighting]++
		if s.Dim < 1 || s.NRaw < 1 {
			t.Fatalf("%s: bad spec %+v", s.Name, s)
		}
	}
	if byType[TypeI] != 4 || byType[TypeII] != 3 || byType[TypeIII] != 3 {
		t.Fatalf("type counts %v, want 4/3/3", byType)
	}
	// Spot-check paper values.
	susy, err := ByName("susy")
	if err != nil {
		t.Fatal(err)
	}
	if susy.NRaw != 4990000 || susy.Dim != 18 {
		t.Fatalf("susy spec %+v does not match Table VI", susy)
	}
	a9a, _ := ByName("a9a")
	if a9a.NModel != 11772 || a9a.Dim != 123 {
		t.Fatalf("a9a spec %+v does not match Table VI", a9a)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestGenerateTypeI(t *testing.T) {
	spec, _ := ByName("home")
	ds, err := Generate(spec, Options{Scale: 1.0 / 1000, Queries: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Weights != nil {
		t.Fatal("Type I should have nil weights")
	}
	if ds.Points.Cols != 10 {
		t.Fatalf("home should be 10-d, got %d", ds.Points.Cols)
	}
	if ds.Queries.Rows != 50 {
		t.Fatalf("query count %d want 50", ds.Queries.Rows)
	}
	if ds.Gamma <= 0 {
		t.Fatalf("Scott gamma %v", ds.Gamma)
	}
	// Normalized to [0,1]^d.
	for _, v := range ds.Points.Data {
		if v < 0 || v > 1 {
			t.Fatalf("point coordinate %v outside [0,1]", v)
		}
	}
}

func TestGenerateTypeII(t *testing.T) {
	spec, _ := ByName("nsl-kdd")
	ds, err := Generate(spec, Options{Scale: 1.0 / 100, Queries: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Weights == nil {
		t.Fatal("Type II needs weights")
	}
	var sum float64
	for _, w := range ds.Weights {
		if w <= 0 {
			t.Fatalf("Type II weight %v not positive", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Σw = %v, want 1 (ν-SVM style)", sum)
	}
	if ds.Tau <= 0 {
		t.Fatalf("surrogate τ = %v, want positive", ds.Tau)
	}
	if ds.Gamma != 1.0/41 {
		t.Fatalf("gamma %v, want LibSVM default 1/d", ds.Gamma)
	}
}

func TestGenerateTypeIII(t *testing.T) {
	spec, _ := ByName("ijcnn1")
	ds, err := Generate(spec, Options{Scale: 1.0 / 50, Queries: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var pos, neg bool
	for _, w := range ds.Weights {
		if w > 0 {
			pos = true
		}
		if w < 0 {
			neg = true
		}
	}
	if !pos || !neg {
		t.Fatal("Type III weights must mix signs")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := ByName("miniboone")
	a, _ := Generate(spec, Options{Scale: 1.0 / 500, Queries: 10, Seed: 42})
	b, _ := Generate(spec, Options{Scale: 1.0 / 500, Queries: 10, Seed: 42})
	if !vec.Equal(a.Points.Data, b.Points.Data, 0) {
		t.Fatal("same seed must reproduce points")
	}
	c, _ := Generate(spec, Options{Scale: 1.0 / 500, Queries: 10, Seed: 43})
	if vec.Equal(a.Points.Data, c.Points.Data, 0) {
		t.Fatal("different seed should differ")
	}
}

func TestGenerateSizedExact(t *testing.T) {
	spec, _ := ByName("susy")
	ds, err := GenerateSized(spec, 1234, 17, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Points.Rows != 1234 || ds.Queries.Rows != 17 {
		t.Fatalf("sizes %d/%d", ds.Points.Rows, ds.Queries.Rows)
	}
	if _, err := GenerateSized(spec, 1, 10, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := GenerateSized(spec, 100, 0, 1); err == nil {
		t.Fatal("queries=0 accepted")
	}
}

func TestScaleCapping(t *testing.T) {
	spec, _ := ByName("susy") // 4.99M raw
	ds, err := Generate(spec, Options{Scale: 1, MaxN: 2000, Queries: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Points.Rows != 2000 {
		t.Fatalf("MaxN cap not applied: %d", ds.Points.Rows)
	}
	// Tiny scale gets floored at 64.
	ds, _ = Generate(spec, Options{Scale: 1e-9, Queries: 5, Seed: 1})
	if ds.Points.Rows != 64 {
		t.Fatalf("floor not applied: %d", ds.Points.Rows)
	}
}

func TestShellCloudIsShellLike(t *testing.T) {
	// Support-vector surrogates: for a single cluster, distances to the
	// centroid should concentrate near the shell radius (low relative
	// variance compared to a filled cloud).
	spec := Spec{Name: "shell-test", NRaw: 2000, Dim: 8, Weighting: TypeII, Clusters: 1, Spread: 0.03}
	ds, err := GenerateSized(spec, 2000, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	center := vec.Mean(rowsOf(ds.Points))
	var mean, m2 float64
	for i := 0; i < ds.Points.Rows; i++ {
		d := vec.Dist(center, ds.Points.Row(i))
		mean += d
	}
	mean /= float64(ds.Points.Rows)
	for i := 0; i < ds.Points.Rows; i++ {
		d := vec.Dist(center, ds.Points.Row(i)) - mean
		m2 += d * d
	}
	cv := math.Sqrt(m2/float64(ds.Points.Rows)) / mean
	if cv > 0.15 {
		t.Fatalf("shell coefficient of variation %v too high — not shell-like", cv)
	}
}

func rowsOf(m *vec.Matrix) [][]float64 {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

func TestReadRows(t *testing.T) {
	long := strings.Repeat("1 ", maxLine/2+1)
	for _, tc := range []struct {
		name, in string
		rows     int
		wantErr  string // substring; "" = no error
	}{
		{"vectors and blank lines", "1 2 3\n\n  \n4e-1\t5 -6\n", 2, ""},
		{"no trailing newline", "1 2\n3 4", 2, ""},
		{"empty input", "", 0, ""},
		{"not a number", "1 2\n3 x4\n", 0, `line 2: parse "x4"`},
		{"ragged row", "1 2\n\n3 4 5\n", 0, "line 3: 3 fields, the rows before it have 2"},
		{"line over the cap", "1 2\n" + long + "\n", 0, "line 2: bufio.Scanner: token too long"},
	} {
		rows, err := ReadRows(strings.NewReader(tc.in))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		case tc.wantErr == "" && len(rows) != tc.rows:
			t.Errorf("%s: %d rows, want %d", tc.name, len(rows), tc.rows)
		}
	}
	if _, err := ReadRows(strings.NewReader("1 2\n" + long)); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("a line over the cap: err = %v, want bufio.ErrTooLong wrapped", err)
	}
	rows, err := ReadRows(strings.NewReader("1 2 3\n4e-1\t5 -6\n"))
	if err != nil || len(rows) != 2 || rows[1][0] != 0.4 || rows[1][2] != -6 {
		t.Errorf("ReadRows = %v, %v", rows, err)
	}
}
