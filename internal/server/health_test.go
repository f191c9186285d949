package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"karl"
)

func TestHealthzAndReadyz(t *testing.T) {
	s, err := New(testEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTestServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || !h.OK {
		t.Fatalf("healthz body: %+v err=%v", h, err)
	}

	resp, err = http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d", resp.StatusCode)
	}
	var r ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if !r.Ready || r.Points != 500 {
		t.Fatalf("readyz = %+v", r)
	}
}

func TestBoundsEndpoint(t *testing.T) {
	eng := testEngine(t)
	s, _ := New(eng)
	ts := NewTestServer(s)
	defer ts.Close()
	q := []float64{0.5, 0.5}
	exact, _ := eng.Aggregate(q)

	// Exact request: no budget, lb = ub = value.
	resp, body := post(t, ts, "/v1/bounds", QueryRequest{Q: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var b BoundsResponse
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	if b.LB != b.UB || math.Abs(b.Value-exact) > 1e-12 {
		t.Fatalf("exact bounds = %+v, want lb=ub=value=%v", b, exact)
	}

	// Budgeted request: a certified interval containing the exact value,
	// tight to the relative budget.
	const eps = 0.1
	resp, body = post(t, ts, "/v1/bounds", QueryRequest{Q: q, Eps: eps})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	// FP tolerance: bounds from different summation orders can carry
	// ~1-ulp noise around the exact value once the gap has collapsed.
	tol := 1e-9 * (1 + math.Abs(exact))
	if b.LB-tol > exact || b.UB+tol < exact {
		t.Fatalf("exact %v outside certified [%v, %v]", exact, b.LB, b.UB)
	}
	// The contract, not the shape of the rule: the midpoint the reply carries
	// is within eps of whichever end of the interval is nearer zero.
	if (b.UB-b.LB)/2 > eps*math.Min(math.Abs(b.LB), math.Abs(b.UB))+tol {
		t.Fatalf("interval [%v, %v] looser than eps=%v", b.LB, b.UB, eps)
	}

	// Budget validation mirrors /v1/approximate.
	resp, _ = post(t, ts, "/v1/bounds", QueryRequest{Q: q, Eps: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative eps: status %d", resp.StatusCode)
	}
	resp, _ = post(t, ts, "/v1/bounds", QueryRequest{Q: q, Eps: 0.1, EpsNorm: 0.1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("both budgets: status %d", resp.StatusCode)
	}

	// Threshold request: refinement stops on the TKAQ rule, so the certified
	// interval lies strictly on one side of the threshold — including a
	// threshold of 0, which must not read as "no threshold" (exact).
	for _, th := range []float64{0, 0.5 * exact, 2 * exact} {
		resp, body = post(t, ts, "/v1/bounds", QueryRequest{Q: q, Threshold: &th})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("threshold %v: status %d: %s", th, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &b); err != nil {
			t.Fatal(err)
		}
		if b.LB-tol > exact || b.UB+tol < exact || b.Value != (b.LB+b.UB)/2 {
			t.Fatalf("threshold %v: exact %v vs certified %+v", th, exact, b)
		}
		if over := exact > th; over && !(b.LB > th) || !over && !(b.UB <= th) {
			t.Fatalf("threshold %v: interval [%v, %v] does not decide it (exact %v)", th, b.LB, b.UB, exact)
		}
		if th < exact && b.LB == b.UB {
			t.Fatalf("threshold %v far below the value was refined to exact", th)
		}
	}
	th := exact
	resp, _ = post(t, ts, "/v1/bounds", QueryRequest{Q: q, Eps: 0.1, Threshold: &th})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("threshold with a budget: status %d", resp.StatusCode)
	}
	resp, _ = post(t, ts, "/v1/threshold", QueryRequest{Q: q, Threshold: &th})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf(`"threshold" on /v1/threshold: status %d, want 400 (the field there is "tau")`, resp.StatusCode)
	}

	// The bounds endpoint shows up in /v1/stats, split by stopping rule.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	ep, ok := stats.Endpoints["bounds"]
	if !ok || ep.Queries != 5 || ep.ThresholdStopped != 3 || ep.EpsStopped != 1 {
		t.Fatalf("bounds endpoint stats %+v, want 5 queries: 3 threshold-stopped, 1 eps-stopped, 1 exact", ep)
	}
}

func TestMaxBodyBytes(t *testing.T) {
	s, err := New(testEngine(t), WithMaxBodyBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTestServer(s)
	defer ts.Close()

	// Small request passes.
	resp, body := post(t, ts, "/v1/aggregate", QueryRequest{Q: []float64{0.5, 0.5}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body rejected: %d %s", resp.StatusCode, body)
	}

	// Oversized request is rejected with 413 and a descriptive error.
	big := bytes.Repeat([]byte("9"), 1024)
	raw := append([]byte(`{"q":[0.`), big...)
	raw = append(raw, []byte(`,0.5]}`)...)
	resp, body = postRaw(t, ts, "/v1/aggregate", raw)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (%s)", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("exceeds")) {
		t.Fatalf("413 body not descriptive: %s", body)
	}

	if _, err := New(testEngine(t), WithMaxBodyBytes(0)); err == nil {
		t.Fatal("zero body cap accepted")
	}
}

func TestInfoReportsWeightMass(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	eng, err := karl.Build(pts, karl.Gaussian(1), karl.WithWeights([]float64{2, 3, -1, -0.5}))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := New(eng)
	ts := NewTestServer(s)
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
	if math.Abs(info.WeightPos-5) > 1e-12 || math.Abs(info.WeightNeg-1.5) > 1e-12 {
		t.Fatalf("weight masses = %v/%v, want 5/1.5", info.WeightPos, info.WeightNeg)
	}
}
