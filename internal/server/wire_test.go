package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"karl"
)

// harnessBody is a query body as the benchmark harness writes one: d numbers
// in strconv's shortest 'g' form.
func harnessBody(d int, param string, value float64) []byte {
	rng := rand.New(rand.NewSource(7))
	b := []byte(`{"q":[`)
	for j := 0; j < d; j++ {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-4)), 'g', -1, 64)
	}
	b = append(b, `],"`+param+`":`...)
	b = strconv.AppendFloat(b, value, 'g', -1, 64)
	return append(b, '}')
}

// parentDecode is the whole of the body decoding before the wire reader
// existed: the oracle for what a body means and for the words of a refusal.
func parentDecode(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request: %v", err)
	}
	return nil
}

// wireParity holds one body against the oracle for one request type: a body
// the reader takes decodes to the oracle's struct, and one it declines gets
// the oracle's refusal from decodeJSON, or the oracle's struct, or one of
// the two refusals the oracle lacked.
func wireParity[T any](t *testing.T, body []byte) {
	t.Helper()
	var want, fast, slow T
	wantErr := parentDecode(body, &want)
	slowErr := decodeJSON(body, nil, &slow)
	if ReadJSON(body, &fast) {
		if wantErr != nil || !reflect.DeepEqual(fast, want) {
			t.Fatalf("%T: the reader took %q as %+v; encoding/json has %+v, %v", want, body, fast, want, wantErr)
		}
		if slowErr != nil || !reflect.DeepEqual(slow, want) {
			t.Fatalf("%T: the reader took %q, which decodeJSON has as %+v, %v", want, body, slow, slowErr)
		}
		return
	}
	var zero T
	if !reflect.DeepEqual(fast, zero) {
		t.Fatalf("%T: the reader declined %q and left %+v behind", want, body, fast)
	}
	switch {
	case wantErr != nil:
		if slowErr == nil || slowErr.Error() != wantErr.Error() {
			t.Fatalf("%T: %q is refused with %v, before with %v", want, body, slowErr, wantErr)
		}
	case slowErr == nil:
		if !reflect.DeepEqual(slow, want) {
			t.Fatalf("%T: %q decodes to %+v, before to %+v", want, body, slow, want)
		}
	case slowErr.Error() != "bad request: unexpected data after the JSON body" &&
		!strings.HasSuffix(slowErr.Error(), " must be a number, got null"):
		t.Fatalf("%T: %q was accepted before and is refused with %v", want, body, slowErr)
	}
}

// FuzzWireParity is the differential gate of the wire reader against
// encoding/json, over the four request types and through a handler.
func FuzzWireParity(f *testing.F) {
	raw, err := os.ReadFile("testdata/wire_golden.json")
	if err != nil {
		f.Fatal(err)
	}
	var golden []wireExchange
	if err := json.Unmarshal(raw, &golden); err != nil {
		f.Fatal(err)
	}
	for _, x := range golden {
		if x.Request != "" {
			f.Add([]byte(x.Request))
		}
	}
	f.Add(harnessBody(123, "tau", 0))
	f.Add(harnessBody(123, "eps", 0.2))
	for _, nearMiss := range []string{"01", "1.", ".5", "+1", "1e", "NaN", "Infinity", "0x1p-2", "1_0", "-", "-0", "1E+2", "1e999", "null",
		// Past what Eisel–Lemire decides: more than 19 significant digits,
		// the subnormal halfway point below the smallest one, and a hair
		// over the largest float64.
		"12345678901234567890123", "0.10000000000000000000000001", "9007199254740993000000e-6",
		"2.4703282292062328e-324", "1.7976931348623159e308"} {
		f.Add([]byte(`{"q":[0.5,` + nearMiss + `],"tau":` + nearMiss + `}`))
		f.Add([]byte(`{"ids":[1,` + nearMiss + `],"id":` + nearMiss + `}`))
	}
	for _, body := range []string{
		`{"Q":[0.5,0.5]}`, `{"q":[0.5,0.5],"q":[0.1,0.1]}`, `{"q":[]}`, `{"q":null}`, `{"\u0071":[0.5,0.5]}`,
		`{"q":[0.5,0.5]} trailing garbage`, `{"q":[0.5,0.5]}{"q":[9]}`, " {\n\"q\" : [ 0.5 ,\t0.5 ] , \"tau\":1 }\r\n",
		`{"q":[0.5,0.5],"threshold":null}`, `{"kind":"threshold","queries":[[0.5,0.5],[0.1,null]],"tau":null,"workers":2}`,
		`{"kind":"aggr\u0065gate","queries":[[],[0.5]]}`, `{"kind":"é","queries":[null]}`, `{"workers":1.5}`, `{"workers":1e2}`,
		`{"p":[0.5,0.5],"w":null}`, `{"points":[[0.1,0.2],[0.3,null]],"weights":[1,null]}`, `{"points":[[]],"weights":[]}`,
		`{"id":18446744073709551615,"ids":[18446744073709551616]}`, `{"id":-0}`, `{"ids":[1,2,3]}`, `{}`, ``, `[]`, `{"q":[0.5,0.5],}`,
	} {
		f.Add([]byte(body))
	}

	srv, err := New(testEngine(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		wireParity[QueryRequest](t, body)
		wireParity[BatchRequest](t, body)
		wireParity[InsertRequest](t, body)
		wireParity[DeleteRequest](t, body)

		// The shard hop's replies, whose oracle is a bare json.Unmarshal.
		var bounds, wantBounds BoundsResponse
		if ReadJSON(body, &bounds) && (json.Unmarshal(body, &wantBounds) != nil || bounds != wantBounds) {
			t.Fatalf("the reader took the reply %q as %+v; encoding/json has %+v", body, bounds, wantBounds)
		}
		var value, wantValue ValueResponse
		if ReadJSON(body, &value) && (json.Unmarshal(body, &wantValue) != nil || value != wantValue) {
			t.Fatalf("the reader took the reply %q as %+v; encoding/json has %+v", body, value, wantValue)
		}

		// Through the handler: a body the oracle refuses is answered with
		// the oracle's words in the envelope.
		var req QueryRequest
		if wantErr := parentDecode(body, &req); wantErr != nil {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/threshold", bytes.NewReader(body)))
			want, _ := json.Marshal(errorResponse{wantErr.Error()})
			if rec.Code != http.StatusBadRequest || rec.Body.String() != string(want)+"\n" {
				t.Fatalf("%q: got %d %s, want 400 %s", body, rec.Code, rec.Body, want)
			}
		}
	})
}

// TestWireReaderTakesTheHotShapes: the differential gate proves the reader
// right about what it takes; this proves it takes what the clients send, so
// that a regression to "declines everything" cannot hide behind the
// fallback.
func TestWireReaderTakesTheHotShapes(t *testing.T) {
	var q, hop QueryRequest
	var b BatchRequest
	var ins InsertRequest
	var del DeleteRequest
	var bounds BoundsResponse
	var value ValueResponse
	written := func(v any) []byte {
		raw, ok := AppendJSON(nil, v)
		if !ok {
			t.Errorf("the writer does not know %T", v)
		}
		return append(raw, '\n')
	}
	for name, took := range map[string]bool{
		"harness tkaq": ReadJSON(harnessBody(123, "tau", 0), &q),
		"harness ekaq": ReadJSON(harnessBody(123, "eps", 0.2), &q),
		"shard hop":    ReadJSON(written(&QueryRequest{Q: []float64{1, 2}, Threshold: new(float64)}), &hop),
		"batch":        ReadJSON([]byte(`{"kind":"approximate","queries":[[0.5,0.5],[0.1,0.9]],"eps":0.1}`), &b),
		"bulk insert":  ReadJSON(written(&InsertRequest{Points: [][]float64{{1, 2}, {3, 4}}, Weights: []float64{1, -1}}), &ins),
		"bulk delete":  ReadJSON(written(&DeleteRequest{IDs: []uint64{1, 2, 3}}), &del),
		"bounds reply": ReadJSON(written(&BoundsResponse{1, 0.5, 1.5}), &bounds),
		"value reply":  ReadJSON(written(&ValueResponse{1e-9}), &value),
	} {
		if !took {
			t.Errorf("%s: declined", name)
		}
	}
	if len(q.Q) != 123 {
		t.Errorf("q has %d numbers", len(q.Q))
	}
	// A matrix is one backing array, its rows capped so that an append to
	// one cannot write into the next.
	if rows := b.Queries; len(rows) != 2 || cap(rows[0]) != 2 ||
		reflect.ValueOf(rows[1]).Pointer()-reflect.ValueOf(rows[0]).Pointer() != 16 {
		t.Errorf("batch rows %v are not slices of one array", rows)
	}
	if bounds != (BoundsResponse{1, 0.5, 1.5}) || value.Value != 1e-9 || len(hop.Q) != 2 || *hop.Threshold != 0 || len(ins.Points) != 2 || len(del.IDs) != 3 {
		t.Errorf("read %+v %+v %+v %+v %+v", bounds, value, hop, ins, del)
	}
}

// TestWireRowRoom: a batch's rows are sized by what the body can hold, so a
// string of brackets cannot make the reader allocate more than the most
// rows a body of the same length can carry.
func TestWireRowRoom(t *testing.T) {
	rows := append([]byte(`{"queries":[`), bytes.Repeat([]byte("[],"), 1<<18)...)
	rows = append(rows[:len(rows)-1], "]}"...)
	brackets := []byte(`{"queries":[[1]],"kind":"`)
	brackets = append(append(brackets, bytes.Repeat([]byte{'['}, len(rows)-len(brackets)-2)...), `"}`...)
	allocated := func(body []byte) uint64 {
		var before, after runtime.MemStats
		var dst BatchRequest
		runtime.ReadMemStats(&before)
		if !ReadJSON(body, &dst) {
			t.Fatalf("declined %.40q", body)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if got, bound := allocated(brackets), allocated(rows); got > bound {
		t.Errorf("a %d-byte body of brackets in a string allocates %d B, the most rows at that length %d B", len(brackets), got, bound)
	}
}

// BenchmarkWireDecode reads d=123 query bodies shaped as the svm-wire
// workload sends them — a point of the a9a stand-in plus noise, in shortest
// 'g' form — cycling 600 distinct ones so that no predictor learns one
// body's digits.
func BenchmarkWireDecode(b *testing.B) {
	const d = 123
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 600)
	for i := range bodies {
		body := []byte(`{"q":[`)
		for j := 0; j < d; j++ {
			if j > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, rng.Float64()+rng.NormFloat64()*0.1, 'g', -1, 64)
		}
		bodies[i] = append(body, `],"tau":0}`...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var q QueryRequest
		if !ReadJSON(bodies[i%len(bodies)], &q) {
			b.Fatal("declined")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(d+1)), "ns/number")
}

// TestWireWriterMatchesJSON: the writer's bytes are encoding/json's, for
// every reply and request it writes, across the float formats' edges.
func TestWireWriterMatchesJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125,
		math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 2.2250738585072014e-308,
		1e-7, 9.999999e-7, 1e-6, 1.5e-9, 1e-10, 1e-100, 1e20, 9.999999e20, 1e21, 1.5e21, 1e100,
		math.MaxFloat64, 5e-324,
	}
	for _, f := range floats[:] {
		floats = append(floats, -f)
	}
	check := func(v any) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := AppendJSON([]byte("x"), v); !ok || !bytes.Equal(got[1:], want) {
			t.Errorf("%T:\n got %s\nwant %s", v, got, want)
		}
	}
	names := []string{"shard-0", `http://a<b>&"c"\`, "\u2028é\x00\xff"}
	for i, f := range floats {
		g := floats[(i+7)%len(floats)]
		check(&ValueResponse{f})
		check(&BoundsResponse{f, g, f})
		check(&CoveredValueResponse{f, g, f, Coverage{Covered: g}})
		check(&CoveredValueResponse{f, g, f, Coverage{Partial: true, Covered: f, Failed: names}})
		check(&QueryRequest{Q: []float64{f, g}, Tau: f, Eps: g, EpsNorm: f})
		check(&QueryRequest{Q: floats, Threshold: &g})
		check(&InsertRequest{P: []float64{f, g}, W: &f})
		check(&InsertRequest{Points: [][]float64{{f, g}, nil, {}}, Weights: []float64{g, f, 1}})
		check(&BatchResponse{Values: []float64{f, g}})
		check(&BatchRequest{Kind: "a<b>", Queries: [][]float64{{f}, nil}, Tau: g, Workers: -i})
	}
	check(&QueryRequest{})
	check(&QueryRequest{Q: []float64{}})
	check(&InsertRequest{})
	check(&InsertRequest{P: []float64{}, Points: [][]float64{}, Weights: []float64{}})
	check(&DeleteRequest{})
	check(&DeleteRequest{ID: 7})
	check(&DeleteRequest{IDs: []uint64{}})
	check(&DeleteRequest{ID: math.MaxUint64, IDs: []uint64{1, math.MaxUint64, 0}})
	check(&BoolResponse{true})
	check(&BoolResponse{false})
	check(&CoveredBoolResponse{true, Coverage{Covered: 1}})
	check(&CoveredBoolResponse{false, Coverage{Partial: true, Covered: 0.75, Failed: names[:1]}})
	check(&BatchResponse{})
	check(&BatchResponse{Values: []float64{}, Over: []bool{}})
	check(&BatchResponse{Over: []bool{true, false, true}})

	// On the wire a reply ends in the newline json.Encoder wrote.
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, &BoundsResponse{1e-7, -1e21, 0.25})
	if got, want := rec.Body.String(), `{"value":1e-7,"lb":-1e+21,"ub":0.25}`+"\n"; got != want || rec.Code != 200 ||
		rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("writeJSON wrote %d %q %v, want %q", rec.Code, got, rec.Header(), want)
	}
}

// rewind is a request body that can be read again.
type rewind struct{ bytes.Reader }

func (*rewind) Close() error { return nil }

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// TestQueryWireAllocs pins what one d=123 query costs the front door in
// allocations, handler entry to reply: the request struct, the body cap's
// reader, q, the reply struct and the Content-Type header value. It was 21.5 under
// encoding/json.
func TestQueryWireAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	const d, maxAllocs = 123, 5
	rng := rand.New(rand.NewSource(3))
	pts := make([][]float64, 300)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	eng, err := karl.Build(pts, karl.Gaussian(0.05))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		handle func(http.ResponseWriter, *http.Request)
		body   []byte
	}{
		"threshold":   {s.handleThreshold, harnessBody(d, "tau", 0)},
		"approximate": {s.handleApproximate, harnessBody(d, "eps", 0.2)},
	} {
		body := &rewind{}
		req := httptest.NewRequest("POST", "/v1/"+name, nil)
		req.Body = body
		rec := httptest.NewRecorder()
		allocs := testing.AllocsPerRun(200, func() {
			body.Reset(c.body)
			rec.Body.Reset()
			c.handle(rec, req)
		})
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			t.Fatalf("%s: %d %s", name, rec.Code, rec.Body)
		}
		if allocs > maxAllocs {
			t.Errorf("%s: %.1f allocations a request, want at most %d", name, allocs, maxAllocs)
		}
		t.Logf("%s: %.1f allocations a request", name, allocs)
	}
}

// TestBodyBuffersAreBounded: a body buffer that grew for one large request
// is not kept.
func TestBodyBuffersAreBounded(t *testing.T) {
	big := new(bytes.Buffer)
	big.Grow(maxPooledBuffer + 1)
	putBuffer(big)
	small := new(bytes.Buffer)
	small.WriteString("x")
	putBuffer(small)
	if small.Len() != 0 {
		t.Error("a pooled buffer keeps its bytes")
	}
	for i := 0; i < 64; i++ {
		if buf := buffers.Get().(*bytes.Buffer); buf == big {
			t.Fatalf("a %d-byte buffer went back to the pool", big.Cap())
		}
	}
}

// TestNewRefusals drives the three refusals that used to be a silent 200:
// a null where a number belongs, bytes after the JSON body, and an aggregate
// JSON cannot carry. Each is answered by both decode paths alike (the reader
// declines the first two, so the one place that words them is decodeJSON)
// and is counted in the endpoint's errors.
func TestNewRefusals(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := make([][]float64, 50)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	eng, err := karl.Build(pts, karl.Polynomial(1, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	static, _ := New(eng)
	dyn, _ := karl.NewDynamic(karl.Gaussian(5))
	mutable, _ := NewMutable(dyn)
	do := func(h http.Handler, method, path, body string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		raw, _ := io.ReadAll(rec.Body)
		return rec.Code, string(raw)
	}
	if code, body := do(mutable, "POST", "/v1/insert", `{"points":[[0.1,0.2],[0.3,0.4]]}`); code != 200 {
		t.Fatalf("seeding: %d %s", code, body)
	}
	const trailing = "bad request: unexpected data after the JSON body"
	const overflow = "aggregate is not finite at this query"
	cases := []struct {
		h                  http.Handler
		method, path, body string
		status             int
		want               string
	}{
		{static, "POST", "/v1/aggregate", `{"q":[0,null]}`, 400, "q[1] must be a number, got null"},
		{static, "POST", "/v1/aggregate", `{"Q":[null,0]}`, 400, "Q[0] must be a number, got null"},
		{static, "POST", "/v1/threshold", `{"q":[0,0],"tau":null}`, 400, "tau must be a number, got null"},
		{static, "POST", "/v1/approximate", `{"q":[0,0],"eps":null}`, 400, "eps must be a number, got null"},
		{static, "POST", "/v1/bounds", `{"q":[0,0],"eps_norm":null}`, 400, "eps_norm must be a number, got null"},
		{static, "POST", "/v1/batch", `{"kind":"aggregate","queries":[[0,0],[0,null]]}`, 400, "queries[1][1] must be a number, got null"},
		{static, "POST", "/v1/batch", `{"kind":"aggregate","queries":[[0,0]],"workers":null}`, 400, "workers must be a number, got null"},
		{mutable, "POST", "/v1/insert", `{"p":[null,0]}`, 400, "p[0] must be a number, got null"},
		{mutable, "POST", "/v1/insert", `{"points":[[0,0],[null,0]]}`, 400, "points[1][0] must be a number, got null"},
		{mutable, "POST", "/v1/insert", `{"points":[[0,0]],"weights":[null]}`, 400, "weights[0] must be a number, got null"},
		{mutable, "DELETE", "/v1/point", `{"ids":[1,null]}`, 400, "ids[1] must be a number, got null"},
		{mutable, "DELETE", "/v1/point", `{"id":null}`, 400, "id must be a number, got null"},
		{mutable, "POST", "/v1/split", `{"kind":"hash","num_slots":null,"slots":[1]}`, 400, "num_slots must be a number, got null"},
		{mutable, "POST", "/v1/split", `{"kind":"hash","num_slots":4,"slots":[null]}`, 400, "slots[0] must be a number, got null"},

		{static, "POST", "/v1/aggregate", `{"q":[0,0]} trailing garbage`, 400, trailing},
		{static, "POST", "/v1/aggregate", `{"q":[0,0]}{"q":[9]}`, 400, trailing},
		{static, "POST", "/v1/threshold", `{"q":[0,0],"tau":1}]`, 400, trailing},
		{static, "POST", "/v1/approximate", `{"q":[0,0],"eps":0.1}0`, 400, trailing},
		{static, "POST", "/v1/bounds", `{"q":[0,0]}null`, 400, trailing},
		{static, "POST", "/v1/batch", `{"kind":"aggregate","queries":[[0,0]]},`, 400, trailing},
		{mutable, "POST", "/v1/insert", `{"p":[0,0]}{}`, 400, trailing},
		{mutable, "DELETE", "/v1/point", `{"id":1}x`, 400, trailing},
		{mutable, "POST", "/v1/split", `{"kind":"kd"} {}`, 400, trailing},

		{static, "POST", "/v1/aggregate", `{"q":[1e200,1e200]}`, 422, overflow},
		{static, "POST", "/v1/approximate", `{"q":[1e200,1e200],"eps":0.1}`, 422, overflow},
		{static, "POST", "/v1/bounds", `{"q":[1e200,1e200]}`, 422, overflow},
		{static, "POST", "/v1/bounds", `{"q":[1e200,1e200],"eps":0.1}`, 422, overflow},
		{static, "POST", "/v1/batch", `{"kind":"aggregate","queries":[[0,0],[1e200,1e200]]}`, 422, overflow},

		// Absent stays absent, and whitespace is not data.
		{static, "POST", "/v1/bounds", `{"q":[0,0],"threshold":null}` + " \n", 200, ""},
		{static, "POST", "/v1/aggregate", " {\"q\":[0,0]}\r\n\t ", 200, ""},
		{mutable, "POST", "/v1/insert", `{"p":[0.5,0.5],"w":null,"points":null}`, 200, ""},
	}
	for _, c := range cases {
		code, body := do(c.h, c.method, c.path, c.body)
		var env struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil || code != c.status || env.Error != c.want {
			t.Errorf("%s %s %s: got %d %q, want %d with error %q", c.method, c.path, c.body, code, body, c.status, c.want)
		}
	}
	var stats StatsResponse
	_, body := do(static, "GET", "/v1/stats", "")
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{"aggregate": 5, "threshold": 2, "approximate": 3, "bounds": 4, "batch": 4} {
		if ep := stats.Endpoints[name]; ep.Errors != want || ep.Requests-ep.Errors != ep.Queries {
			t.Errorf("%s counted %+v, want %d errors and a query for every other request", name, ep, want)
		}
	}
}
