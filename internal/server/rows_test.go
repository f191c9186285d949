package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"karl"
	"karl/internal/blockio"
)

// rowsBody is the rows body of points and weights, or the test fails.
func rowsBody(t testing.TB, points [][]float64, weights []float64) []byte {
	t.Helper()
	b, err := AppendRows(nil, points, weights)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// craftedRows is a rows stream whose block holds the given width, flat
// floats and weights as they are, whatever they make.
func craftedRows(t *testing.T, dims int, flat, weights []float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := blockio.NewEncoder(&buf)
	c.Begin(blockio.TagRows)
	blockio.Int(c, &dims)
	blockio.Slice(c, &flat)
	blockio.Slice(c, &weights)
	c.End()
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRowsRoundTrip: a rows body carries every float64 bit for bit — −0,
// subnormals and the largest finite value included — and the weights with
// them, or none.
func TestRowsRoundTrip(t *testing.T) {
	edge := []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1060, 2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64, 0.1, 1e-300, 123456789.123456789}
	points := make([][]float64, 40)
	for i := range points {
		points[i] = make([]float64, 3)
		for j := range points[i] {
			if points[i][j] = edge[(3*i+j)%len(edge)]; i%2 == 1 {
				points[i][j] = -points[i][j]
			}
		}
	}
	weights := make([]float64, len(points))
	for i := range weights {
		weights[i] = edge[(i+4)%len(edge)]
	}
	for name, w := range map[string][]float64{"weighted": weights, "unit": nil} {
		body := rowsBody(t, points, w)
		var got InsertRequest
		if err := readRows(body, &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Points) != len(points) || len(got.Weights) != len(w) || (w == nil) != (got.Weights == nil) {
			t.Fatalf("%s: %d rows, %d weights back for %d, %d", name, len(got.Points), len(got.Weights), len(points), len(w))
		}
		for i, p := range points {
			for j, v := range p {
				if math.Float64bits(got.Points[i][j]) != math.Float64bits(v) {
					t.Fatalf("%s: points[%d][%d] is %v, sent %v", name, i, j, got.Points[i][j], v)
				}
			}
			if cap(got.Points[i]) != len(p) {
				t.Fatalf("%s: row %d has capacity %d, so an append would run into the next", name, i, cap(got.Points[i]))
			}
		}
		for i, v := range w {
			if math.Float64bits(got.Weights[i]) != math.Float64bits(v) {
				t.Fatalf("%s: weights[%d] is %v, sent %v", name, i, got.Weights[i], v)
			}
		}
		if again := rowsBody(t, got.Points, got.Weights); !bytes.Equal(again, body) {
			t.Fatalf("%s: the decoded rows encode to other bytes", name)
		}
	}
	if _, err := AppendRows(nil, [][]float64{{1, 2}, {3}}, nil); err == nil {
		t.Fatal("rows of two widths were encoded")
	}
}

// TestRowsRefusals: a rows body that is damaged or means a refused insert
// gets the status the same insert gets as JSON — and the same words where
// the refusal is the handler's or the engine's, not the decoder's.
func TestRowsRefusals(t *testing.T) {
	eng, err := karl.NewDynamic(karl.Gaussian(5))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMutable(eng, WithMaxBodyBytes(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	insert := func(ctype string, body []byte) (int, string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/insert", bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		srv.ServeHTTP(rec, req)
		var env errorResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &env)
		return rec.Code, env.Error
	}
	if status, msg := insert(RowsContentType, rowsBody(t, [][]float64{{0.1, 0.2}, {0.3, 0.4}}, nil)); status != http.StatusOK {
		t.Fatalf("seeding: %d %s", status, msg)
	}
	good := rowsBody(t, [][]float64{{0.5, 0.6}, {0.7, 0.8}}, []float64{1, 2})
	flipped := bytes.Clone(good)
	flipped[len(flipped)-7]++ // the rows block's checksum sits before the 5-byte end block
	trailing := append(bytes.Clone(good), 0)
	big := make([][]float64, 1<<10)
	for i := range big {
		big[i] = make([]float64, 8)
	}

	for _, c := range []struct {
		name     string
		rows     []byte
		json     string // the same insert as JSON
		contains string
		sameText bool
	}{
		{"truncated", good[:len(good)-9], `{"points":[[0.5,0.6],[0.7`, "unexpected EOF", false},
		{"flipped checksum byte", flipped, `{"points":[[0.5,0.6]]]`, "block checksum mismatch", false},
		{"not rows of dims", craftedRows(t, 2, []float64{1, 2, 3}, nil), `{"points":[[1,2],[3,]]}`, "3 elements are not rows of 2", false},
		{"width zero", craftedRows(t, 0, []float64{1, 2}, nil), `{"points":[[1,2],]}`, "2 elements are not rows of 0", false},
		{"weight count", rowsBody(t, [][]float64{{1, 2}, {3, 4}}, []float64{1, 2, 3}), `{"points":[[1,2],[3,4]],"weights":[1,2,3]}`, "3 weights for 2 points", true},
		{"no rows", craftedRows(t, 2, nil, nil), `{"points":[]}`, `provide "p"`, true},
		{"NaN coordinate", rowsBody(t, [][]float64{{1, math.NaN()}}, nil), `{"points":[[1,NaN]]}`, "points[0][1] must be finite, got NaN", false},
		{"Inf coordinate", rowsBody(t, [][]float64{{1, 2}, {math.Inf(-1), 2}}, nil), `{"points":[[1,2],[-1e999,2]]}`, "points[1][0] must be finite, got -Inf", false},
		{"Inf weight", rowsBody(t, [][]float64{{1, 2}}, []float64{math.Inf(1)}), `{"points":[[1,2]],"weights":[1e999]}`, "weights[0] must be finite, got +Inf", false},
		{"engine's dims", rowsBody(t, [][]float64{{1, 2, 3}}, nil), `{"points":[[1,2,3]]}`, "3 dims, engine has 2", true},
		{"data after the stream", trailing, `{"points":[[0.5,0.6]]} x`, "unexpected data after the rows stream", false},
		{"JSON sent as rows", []byte(`{"points":[[1,2]]}`), `{"points":[[1,2]]`, "not a block-format stream", false},
		{"over the size bound", rowsBody(t, big, nil), `{"points":[[0.` + strings.Repeat("1", 1<<16) + `]]}`, "request body exceeds 65536 bytes", true},
	} {
		status, msg := insert(RowsContentType, c.rows)
		jsonStatus, jsonMsg := insert("application/json", []byte(c.json))
		if status != jsonStatus || status == http.StatusOK || !strings.Contains(msg, c.contains) {
			t.Errorf("%s: rows get %d %q, JSON %d %q; want the JSON status, refused with %q", c.name, status, msg, jsonStatus, jsonMsg, c.contains)
		}
		if c.sameText && msg != jsonMsg {
			t.Errorf("%s: rows are refused with %q, JSON with %q", c.name, msg, jsonMsg)
		}
	}
	if n := eng.Len(); n != 2 {
		t.Fatalf("the engine holds %d points after the refusals, want the 2 seeded", n)
	}
	// The content type is what chooses the decoder, parameters and case aside.
	if status, msg := insert("Application/Octet-Stream; x=1", good); status != http.StatusOK {
		t.Fatalf("rows under a parameterised content type: %d %s", status, msg)
	}
	if status, _ := insert("application/json", good); status != http.StatusBadRequest {
		t.Fatalf("rows sent as JSON: %d, want 400", status)
	}
}

// TestRowsDeclaredLengthAllocatesNothing: a rows body that declares more
// floats than it holds is refused without allocating for them — not even
// one chunk of the declared slice.
func TestRowsDeclaredLengthAllocatesNothing(t *testing.T) {
	var buf bytes.Buffer
	c := blockio.NewEncoder(&buf)
	c.Begin(blockio.TagRows)
	dims, n := 8, 1<<40
	blockio.Int(c, &dims)
	blockio.Int(c, &n)
	c.End()
	c.Finish()
	body := buf.Bytes()

	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		var req InsertRequest
		if err := readRows(body, &req); err == nil || !strings.Contains(err.Error(), "unexpected EOF") || req.Points != nil {
			t.Fatalf("a %d-byte body declaring 2^40 floats: %d rows, error %v", len(body), len(req.Points), err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4<<10 {
		t.Fatalf("refusing a %d-byte body allocated %d bytes", len(body), per)
	}
}

// TestAppendRowsAllocates: a 64 × 8 rows body is built in about its own
// size, not in the 64 KiB an encoder buffers when it writes to a stream.
func TestAppendRowsAllocates(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector makes allocations larger")
	}
	pts := make([][]float64, 64)
	for i := range pts {
		pts[i] = make([]float64, 8)
		for j := range pts[i] {
			pts[i][j] = float64(i*8 + j)
		}
	}
	const runs = 100
	var before, after runtime.MemStats
	var body []byte
	runtime.ReadMemStats(&before)
	for range runs {
		var err error
		if body, err = AppendRows(nil, pts, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16<<10 {
		t.Fatalf("a %d-byte rows body allocated %d bytes", len(body), per)
	} else {
		t.Logf("a %d-byte rows body allocated %d bytes", len(body), per)
	}
}
