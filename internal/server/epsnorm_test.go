package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"karl"
)

func getStats(t *testing.T, ts *TestServer) StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestApproximateBudgetValidation pins the exactly-one-of contract between
// eps and eps_norm.
func TestApproximateBudgetValidation(t *testing.T) {
	s, err := New(testEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTestServer(s)
	defer ts.Close()
	for name, req := range map[string]QueryRequest{
		"both set":          {Q: []float64{0.5, 0.5}, Eps: 0.1, EpsNorm: 0.1},
		"eps_norm negative": {Q: []float64{0.5, 0.5}, EpsNorm: -0.1},
		"eps_norm one":      {Q: []float64{0.5, 0.5}, EpsNorm: 1},
		"eps_norm above":    {Q: []float64{0.5, 0.5}, EpsNorm: 1.5},
		"neither":           {Q: []float64{0.5, 0.5}},
	} {
		resp, body := post(t, ts, "/v1/approximate", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
	}
	resp, body := post(t, ts, "/v1/batch", BatchRequest{
		Kind: "approximate", Queries: [][]float64{{0.5, 0.5}}, Eps: 0.1, EpsNorm: 0.1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with both budgets: status %d: %s", resp.StatusCode, body)
	}
}

// TestEpsNormWithoutTier: the normalized error model is a request-level
// contract the full index serves: |v − F| ≤ eps_norm·W.
func TestEpsNormWithoutTier(t *testing.T) {
	eng := testEngine(t)
	s, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTestServer(s)
	defer ts.Close()
	q := []float64{0.35, 0.35}
	exact, _ := eng.Aggregate(q)
	resp, body := post(t, ts, "/v1/approximate", QueryRequest{Q: q, EpsNorm: 0.2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var v ValueResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.Value-exact)/float64(eng.Len()) > 0.2 {
		t.Fatal("normalized bound violated")
	}
}

// TestStatsWithoutTier: /v1/info and /v1/stats carry no sketch or tier
// field.
func TestStatsWithoutTier(t *testing.T) {
	s, err := New(testEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTestServer(s)
	defer ts.Close()
	post(t, ts, "/v1/approximate", QueryRequest{Q: []float64{0.5, 0.5}, EpsNorm: 0.1})
	for _, path := range []string{"/v1/info", "/v1/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for k := range body {
			if strings.Contains(k, "sketch") || strings.Contains(k, "tier") {
				t.Fatalf("%s carries %q", path, k)
			}
		}
	}
}

// epsNormCloud is the clustered 20k × 8 cloud of the root package's
// benchmarks (benchCloud: five clusters, σ = 0.04) and its query.
func epsNormCloud() ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(99))
	pts := make([][]float64, 20000)
	for i := range pts {
		pts[i] = make([]float64, 8)
		base := float64(i%5) * 0.18
		for j := range pts[i] {
			pts[i][j] = base + rng.NormFloat64()*0.04
		}
	}
	q := make([]float64, 8)
	for j := range q {
		q[j] = 0.2 + rng.Float64()*0.2
	}
	return pts, q
}

// TestEpsNormStopsEarly: an eps_norm query stops once its bounds certify
// eps_norm·W, so at eps_norm 0.1 it scans at most a tenth of the points the
// relative eps 0.1 scans, and its answer is still within eps_norm·W.
func TestEpsNormStopsEarly(t *testing.T) {
	pts, q := epsNormCloud()
	eng, err := karl.Build(pts, karl.Gaussian(20))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTestServer(s)
	defer ts.Close()
	scanned := func(req QueryRequest) (float64, int64) {
		t.Helper()
		before := getStats(t, ts).Endpoints["approximate"].PointsScanned
		resp, body := post(t, ts, "/v1/approximate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", req, resp.StatusCode, body)
		}
		var v ValueResponse
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		return v.Value, getStats(t, ts).Endpoints["approximate"].PointsScanned - before
	}
	_, rel := scanned(QueryRequest{Q: q, Eps: 0.1})
	v, norm := scanned(QueryRequest{Q: q, EpsNorm: 0.1})
	t.Logf("points scanned: eps 0.1 %d, eps_norm 0.1 %d", rel, norm)
	if rel == 0 || norm*10 > rel {
		t.Fatalf("eps_norm 0.1 scanned %d points, eps 0.1 %d: want at most a tenth", norm, rel)
	}
	exact, err := eng.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	if w := float64(len(pts)); math.Abs(v-exact) > 0.1*w {
		t.Fatalf("eps_norm answer %v, exact %v: off by more than 0.1·W = %v", v, exact, 0.1*w)
	}
}
