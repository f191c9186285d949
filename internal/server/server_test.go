package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"karl"
)

func testEngine(t testing.TB) *karl.Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	pts := make([][]float64, 500)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	eng, err := karl.Build(pts, karl.Gaussian(5))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, ts, path, raw)
}

func postRaw(t *testing.T, ts *httptest.Server, path string, raw []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestNewRejectsNil(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil engine accepted")
	}
}

func TestNewRejectsBadPoolSize(t *testing.T) {
	if _, err := New(testEngine(t), WithPoolSize(0)); err == nil {
		t.Fatal("pool size 0 accepted")
	}
	if _, err := New(testEngine(t), WithPoolSize(-3)); err == nil {
		t.Fatal("negative pool size accepted")
	}
}

func TestInfo(t *testing.T) {
	s, err := New(testEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Points != 500 || info.Dims != 2 || info.Kernel != "gaussian" || info.Gamma != 5 {
		t.Fatalf("info = %+v", info)
	}
}

func TestAggregateEndpoint(t *testing.T) {
	eng := testEngine(t)
	s, _ := New(eng)
	ts := httptest.NewServer(s)
	defer ts.Close()
	q := []float64{0.5, 0.5}
	resp, body := post(t, ts, "/v1/aggregate", QueryRequest{Q: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var v ValueResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	want, _ := eng.Aggregate(q)
	if math.Abs(v.Value-want) > 1e-12 {
		t.Fatalf("value %v want %v", v.Value, want)
	}
}

func TestThresholdEndpoint(t *testing.T) {
	eng := testEngine(t)
	s, _ := New(eng)
	ts := httptest.NewServer(s)
	defer ts.Close()
	q := []float64{0.5, 0.5}
	exact, _ := eng.Aggregate(q)
	resp, body := post(t, ts, "/v1/threshold", QueryRequest{Q: q, Tau: exact * 0.9})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var b BoolResponse
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	if !b.Over {
		t.Fatal("expected over=true below the exact value")
	}
}

func TestApproximateEndpoint(t *testing.T) {
	eng := testEngine(t)
	s, _ := New(eng)
	ts := httptest.NewServer(s)
	defer ts.Close()
	q := []float64{0.5, 0.5}
	exact, _ := eng.Aggregate(q)
	resp, body := post(t, ts, "/v1/approximate", QueryRequest{Q: q, Eps: 0.1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var v ValueResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(v.Value-exact) / exact; rel > 0.1 {
		t.Fatalf("rel error %v", rel)
	}
}

// TestDecodeRejectsMalformed drives every expressible malformed input
// through the HTTP layer; each must come back 400 with a JSON error
// envelope.
func TestDecodeRejectsMalformed(t *testing.T) {
	s, _ := New(testEngine(t))
	ts := httptest.NewServer(s)
	defer ts.Close()
	cases := []struct {
		name, path, body string
	}{
		{"invalid json", "/v1/aggregate", `{`},
		{"unknown field", "/v1/aggregate", `{"q":[0.5,0.5],"bogus":1}`},
		{"missing q", "/v1/aggregate", `{}`},
		{"dim mismatch", "/v1/aggregate", `{"q":[1]}`},
		{"threshold dim mismatch", "/v1/threshold", `{"q":[1,2,3],"tau":1}`},
		{"eps zero", "/v1/approximate", `{"q":[0.5,0.5],"eps":0}`},
		{"eps negative", "/v1/approximate", `{"q":[0.5,0.5],"eps":-0.1}`},
		{"eps missing", "/v1/approximate", `{"q":[0.5,0.5]}`},
		{"batch invalid json", "/v1/batch", `[`},
		{"batch unknown kind", "/v1/batch", `{"kind":"exact","queries":[[0.5,0.5]]}`},
		{"batch missing kind", "/v1/batch", `{"queries":[[0.5,0.5]]}`},
		{"batch dim mismatch mid-batch", "/v1/batch", `{"kind":"aggregate","queries":[[0.5,0.5],[1],[0.1,0.2]]}`},
		{"batch eps zero", "/v1/batch", `{"kind":"approximate","queries":[[0.5,0.5]],"eps":0}`},
		{"batch unknown field", "/v1/batch", `{"kind":"aggregate","queries":[[0.5,0.5]],"bogus":1}`},
		{"null in q", "/v1/aggregate", `{"q":[0.5,null]}`},
		{"null tau", "/v1/threshold", `{"q":[0.5,0.5],"tau":null}`},
		{"null eps", "/v1/approximate", `{"q":[0.5,0.5],"eps":null}`},
		{"batch null in a query", "/v1/batch", `{"kind":"aggregate","queries":[[0.5,0.5],[null,0.5]]}`},
		{"trailing garbage", "/v1/aggregate", `{"q":[0.5,0.5]} trailing garbage`},
		{"second value", "/v1/threshold", `{"q":[0.5,0.5],"tau":1}{"q":[9]}`},
		{"bounds trailing bracket", "/v1/bounds", `{"q":[0.5,0.5]}]`},
		{"batch trailing value", "/v1/batch", `{"kind":"aggregate","queries":[[0.5,0.5]]}0`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRaw(t, ts, tc.path, []byte(tc.body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error envelope missing: %s", body)
			}
		})
	}
}

// TestValidateNonFinite exercises the uniform NaN/Inf rejection directly:
// standard JSON cannot express non-finite numbers, but the validation
// layer must not rely on that.
func TestValidateNonFinite(t *testing.T) {
	s, _ := New(testEngine(t))
	nan, inf := math.NaN(), math.Inf(1)
	ok := []float64{0.5, 0.5}
	cases := []struct {
		name    string
		req     QueryRequest
		n       need
		wantErr bool
	}{
		{"valid aggregate", QueryRequest{Q: ok}, needNothing, false},
		{"valid threshold", QueryRequest{Q: ok, Tau: 1.5}, needTau, false},
		{"valid approximate", QueryRequest{Q: ok, Eps: 0.1}, needEps, false},
		{"nan in q", QueryRequest{Q: []float64{nan, 0.5}}, needNothing, true},
		{"+inf in q", QueryRequest{Q: []float64{0.5, inf}}, needNothing, true},
		{"-inf in q", QueryRequest{Q: []float64{0.5, -inf}}, needTau, true},
		{"nan tau", QueryRequest{Q: ok, Tau: nan}, needTau, true},
		{"inf tau", QueryRequest{Q: ok, Tau: inf}, needTau, true},
		{"nan tau ignored by aggregate", QueryRequest{Q: ok, Tau: nan}, needNothing, false},
		{"nan eps", QueryRequest{Q: ok, Eps: nan}, needEps, true},
		{"+inf eps", QueryRequest{Q: ok, Eps: inf}, needEps, true},
		{"-inf eps", QueryRequest{Q: ok, Eps: -inf}, needEps, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := s.validate(tc.req, tc.n)
			if (err != nil) != tc.wantErr {
				t.Fatalf("validate(%+v) err = %v, want error %v", tc.req, err, tc.wantErr)
			}
		})
	}
	batchCases := []struct {
		name    string
		req     BatchRequest
		wantErr bool
	}{
		{"valid", BatchRequest{Kind: "threshold", Queries: [][]float64{ok}, Tau: 1}, false},
		{"nan tau", BatchRequest{Kind: "threshold", Queries: [][]float64{ok}, Tau: nan}, true},
		{"inf eps", BatchRequest{Kind: "approximate", Queries: [][]float64{ok}, Eps: inf}, true},
		{"nan in query 1", BatchRequest{Kind: "aggregate", Queries: [][]float64{ok, {nan, 0.5}}}, true},
	}
	for _, tc := range batchCases {
		t.Run("batch "+tc.name, func(t *testing.T) {
			err := s.validateBatch(tc.req)
			if (err != nil) != tc.wantErr {
				t.Fatalf("validateBatch(%+v) err = %v, want error %v", tc.req, err, tc.wantErr)
			}
		})
	}
}

func TestBadRequests(t *testing.T) {
	s, _ := New(testEngine(t))
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/aggregate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST endpoint returned %d", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	eng := testEngine(t)
	s, _ := New(eng)
	ts := httptest.NewServer(s)
	defer ts.Close()
	queries := [][]float64{{0.2, 0.8}, {0.5, 0.5}, {0.9, 0.1}}
	resp, body := post(t, ts, "/v1/batch", BatchRequest{Kind: "aggregate", Queries: queries, Workers: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Values) != len(queries) || br.Over != nil {
		t.Fatalf("batch response %+v", br)
	}
	for i, q := range queries {
		want, _ := eng.Aggregate(q)
		if br.Values[i] != want {
			t.Fatalf("query %d: %v want %v", i, br.Values[i], want)
		}
	}
	// Empty batch is fine and returns empty results.
	resp, body = post(t, ts, "/v1/batch", BatchRequest{Kind: "threshold", Queries: nil, Tau: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty batch status %d: %s", resp.StatusCode, body)
	}
}

// TestBatchEndpointMatchesSequential is the property test of the batch
// contract: for every weighting type (I/II/III) and every paper kernel
// (Gaussian, polynomial, sigmoid), /v1/batch results are index-aligned
// and bitwise-equal to the corresponding sequence of single-query
// endpoint calls.
func TestBatchEndpointMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, dim, nq = 300, 3, 16
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	weights := map[string][]float64{"typeI": nil}
	pos := make([]float64, n)
	mixed := make([]float64, n)
	for i := 0; i < n; i++ {
		pos[i] = 0.1 + rng.Float64()
		mixed[i] = rng.NormFloat64()
	}
	weights["typeII"] = pos
	weights["typeIII"] = mixed
	kernels := map[string]karl.Kernel{
		"gaussian":   karl.Gaussian(3),
		"polynomial": karl.Polynomial(0.5, 1, 2),
		"sigmoid":    karl.Sigmoid(0.5, 0.1),
	}
	queries := make([][]float64, nq)
	for i := range queries {
		queries[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	for wname, w := range weights {
		for kname, kern := range kernels {
			t.Run(wname+"/"+kname, func(t *testing.T) {
				var opts []karl.Option
				if w != nil {
					opts = append(opts, karl.WithWeights(w))
				}
				eng, err := karl.Build(pts, kern, opts...)
				if err != nil {
					t.Fatal(err)
				}
				s, _ := New(eng)
				ts := httptest.NewServer(s)
				defer ts.Close()
				exact0, _ := eng.Aggregate(queries[0])
				tau := exact0 * 0.95
				for _, kind := range []string{"aggregate", "threshold", "approximate"} {
					breq := BatchRequest{Kind: kind, Queries: queries, Tau: tau, Eps: 0.1, Workers: 4}
					resp, body := post(t, ts, "/v1/batch", breq)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s batch status %d: %s", kind, resp.StatusCode, body)
					}
					var br BatchResponse
					if err := json.Unmarshal(body, &br); err != nil {
						t.Fatal(err)
					}
					for i, q := range queries {
						sreq := QueryRequest{Q: q, Tau: tau, Eps: 0.1}
						resp, sbody := post(t, ts, "/v1/"+kind, sreq)
						if resp.StatusCode != http.StatusOK {
							t.Fatalf("%s single status %d: %s", kind, resp.StatusCode, sbody)
						}
						if kind == "threshold" {
							var sb BoolResponse
							if err := json.Unmarshal(sbody, &sb); err != nil {
								t.Fatal(err)
							}
							if br.Over[i] != sb.Over {
								t.Fatalf("threshold query %d: batch %v single %v", i, br.Over[i], sb.Over)
							}
							continue
						}
						var sv ValueResponse
						if err := json.Unmarshal(sbody, &sv); err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(br.Values[i]) != math.Float64bits(sv.Value) {
							t.Fatalf("%s query %d: batch %x single %x", kind,
								i, math.Float64bits(br.Values[i]), math.Float64bits(sv.Value))
						}
					}
				}
			})
		}
	}
}

// TestServerConcurrentQueries hammers the pool from 32 goroutines mixing
// all four query endpoints, each result checked against an exact-scan
// oracle computed up front. Run with -race.
func TestServerConcurrentQueries(t *testing.T) {
	eng := testEngine(t)
	s, _ := New(eng, WithPoolSize(4))
	ts := httptest.NewServer(s)
	defer ts.Close()
	rng := rand.New(rand.NewSource(7))
	const nq = 8
	queries := make([][]float64, nq)
	oracle := make([]float64, nq)
	for i := range queries {
		queries[i] = []float64{rng.Float64(), rng.Float64()}
		v, err := eng.Aggregate(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = v
	}
	// post calls t.Fatal, which must not run off the test goroutine; the
	// workers use this error-returning variant instead.
	doPost := func(path string, body any) (int, []byte, error) {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return 0, nil, err
		}
		return resp.StatusCode, buf.Bytes(), nil
	}
	const goroutines, perG = 32, 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				qi := (g + k) % nq
				q, want := queries[qi], oracle[qi]
				switch (g + k) % 4 {
				case 0: // exact aggregate, bitwise oracle match
					code, body, err := doPost("/v1/aggregate", QueryRequest{Q: q})
					var v ValueResponse
					if err == nil {
						err = json.Unmarshal(body, &v)
					}
					if err != nil || code != http.StatusOK {
						errs <- fmt.Errorf("aggregate status %d err %v: %s", code, err, body)
						continue
					}
					if math.Float64bits(v.Value) != math.Float64bits(want) {
						errs <- fmt.Errorf("aggregate %v want %v", v.Value, want)
					}
				case 1: // threshold below and above the exact value
					for _, tc := range []struct {
						tau  float64
						over bool
					}{{want * 0.9, true}, {want * 1.1, false}} {
						code, body, err := doPost("/v1/threshold", QueryRequest{Q: q, Tau: tc.tau})
						var b BoolResponse
						if err == nil {
							err = json.Unmarshal(body, &b)
						}
						if err != nil || code != http.StatusOK {
							errs <- fmt.Errorf("threshold status %d err %v: %s", code, err, body)
							continue
						}
						if b.Over != tc.over {
							errs <- fmt.Errorf("threshold(tau=%v) = %v, exact %v", tc.tau, b.Over, want)
						}
					}
				case 2: // approximate within eps of the oracle
					code, body, err := doPost("/v1/approximate", QueryRequest{Q: q, Eps: 0.05})
					var v ValueResponse
					if err == nil {
						err = json.Unmarshal(body, &v)
					}
					if err != nil || code != http.StatusOK {
						errs <- fmt.Errorf("approximate status %d err %v: %s", code, err, body)
						continue
					}
					if rel := math.Abs(v.Value-want) / want; rel > 0.05 {
						errs <- fmt.Errorf("approximate rel error %v", rel)
					}
				case 3: // batch aggregate, index-aligned bitwise oracle match
					code, body, err := doPost("/v1/batch", BatchRequest{Kind: "aggregate", Queries: queries, Workers: 3})
					var br BatchResponse
					if err == nil {
						err = json.Unmarshal(body, &br)
					}
					if err != nil || code != http.StatusOK {
						errs <- fmt.Errorf("batch status %d err %v: %s", code, err, body)
						continue
					}
					for i := range queries {
						if math.Float64bits(br.Values[i]) != math.Float64bits(oracle[i]) {
							errs <- fmt.Errorf("batch query %d: %v want %v", i, br.Values[i], oracle[i])
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent query: %v", err)
	}
}

func TestStatsEndpoint(t *testing.T) {
	eng := testEngine(t)
	s, _ := New(eng, WithPoolSize(3))
	ts := httptest.NewServer(s)
	defer ts.Close()
	q := []float64{0.5, 0.5}
	post(t, ts, "/v1/aggregate", QueryRequest{Q: q})
	post(t, ts, "/v1/aggregate", QueryRequest{Q: q})
	post(t, ts, "/v1/approximate", QueryRequest{Q: q, Eps: 0.1})
	post(t, ts, "/v1/approximate", QueryRequest{Q: q, Eps: -1}) // counted as error
	post(t, ts, "/v1/batch", BatchRequest{Kind: "threshold", Queries: [][]float64{q, q, q}, Tau: 1})

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	agg := st.Endpoints["aggregate"]
	if agg.Requests != 2 || agg.Errors != 0 || agg.Queries != 2 {
		t.Fatalf("aggregate stats %+v", agg)
	}
	if want := int64(2 * eng.Len()); agg.PointsScanned != want {
		t.Fatalf("aggregate points scanned %d want %d", agg.PointsScanned, want)
	}
	app := st.Endpoints["approximate"]
	if app.Requests != 2 || app.Errors != 1 || app.Queries != 1 {
		t.Fatalf("approximate stats %+v", app)
	}
	bat := st.Endpoints["batch"]
	if bat.Requests != 1 || bat.Queries != 3 {
		t.Fatalf("batch stats %+v", bat)
	}
	if st.Pool.Capacity != 3 || st.Pool.Clones < 1 || st.Pool.Idle > st.Pool.Capacity {
		t.Fatalf("pool stats %+v", st.Pool)
	}
}

// TestPoolReusesClones checks that sequential requests are served by a
// bounded number of clones rather than one clone per request.
func TestPoolReusesClones(t *testing.T) {
	s, _ := New(testEngine(t), WithPoolSize(2))
	ts := httptest.NewServer(s)
	defer ts.Close()
	for i := 0; i < 20; i++ {
		post(t, ts, "/v1/aggregate", QueryRequest{Q: []float64{0.5, 0.5}})
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// Sequential requests: the first acquires a fresh clone, releases it,
	// and everyone after reuses it.
	if st.Pool.Clones > 2 {
		t.Fatalf("%d clones for 20 sequential requests", st.Pool.Clones)
	}
}

func TestConcurrentRequests(t *testing.T) {
	eng := testEngine(t)
	s, _ := New(eng)
	ts := httptest.NewServer(s)
	defer ts.Close()
	want, _ := eng.Aggregate([]float64{0.5, 0.5})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, _ := json.Marshal(QueryRequest{Q: []float64{0.5, 0.5}})
			resp, err := http.Post(ts.URL+"/v1/aggregate", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var v ValueResponse
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				errs <- err
				return
			}
			if math.Abs(v.Value-want) > 1e-12 {
				errs <- fmt.Errorf("value %v want %v", v.Value, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent request failed: %v", err)
	}
}

func benchEngine(b *testing.B) *karl.Engine {
	b.Helper()
	rng := rand.New(rand.NewSource(43))
	pts := make([][]float64, 20000)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	eng, err := karl.Build(pts, karl.Gaussian(0.5))
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func benchDrive(b *testing.B, h http.Handler) {
	body := `{"q":[0.1,-0.2,0.3],"eps":0.05}`
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := httptest.NewRequest(http.MethodPost, "/v1/approximate", strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				b.Errorf("status %d: %s", w.Code, w.Body.Bytes())
				return
			}
		}
	})
}

// BenchmarkServerParallel measures eKAQ request throughput through the
// engine-clone pool. Compare against BenchmarkServerMutex (the old
// single-mutex serving path) with increasing -cpu to see the scaling the
// pool buys on multi-core hosts.
func BenchmarkServerParallel(b *testing.B) {
	s, err := New(benchEngine(b))
	if err != nil {
		b.Fatal(err)
	}
	benchDrive(b, s)
}

// BenchmarkServerMutex reproduces the pre-pool serving path — one engine
// behind one global mutex — as the scaling baseline.
func BenchmarkServerMutex(b *testing.B) {
	eng := benchEngine(b)
	var mu sync.Mutex
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		v, err := eng.Approximate(req.Q, req.Eps)
		mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, ValueResponse{v})
	})
	benchDrive(b, h)
}
