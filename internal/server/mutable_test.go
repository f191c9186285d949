package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"karl"
)

func testMutableServer(t *testing.T, opts ...karl.Option) (*karl.Engine, *httptest.Server) {
	t.Helper()
	d, err := karl.NewDynamic(karl.Gaussian(5), opts...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewMutable(d)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return d, ts
}

func TestNewMutableValidation(t *testing.T) {
	if _, err := NewMutable(nil); err == nil {
		t.Fatal("nil engine accepted")
	}
	d, _ := karl.NewDynamic(karl.Gaussian(1))
	if _, err := NewMutable(d, WithSketchTier(0.1)); err == nil {
		t.Fatal("sketch tier accepted for mutable serving")
	}
	if _, err := NewMutable(d, WithPoolSize(0)); err == nil {
		t.Fatal("pool size 0 accepted")
	}
}

func TestInsertEndpointSingleAndBulk(t *testing.T) {
	d, ts := testMutableServer(t)
	resp, body := post(t, ts, "/v1/insert", InsertRequest{P: []float64{0.1, 0.2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single insert: status %d: %s", resp.StatusCode, body)
	}
	var ir InsertResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Inserted != 1 || ir.Len != 1 {
		t.Fatalf("insert response %+v", ir)
	}
	w := 2.5
	resp, _ = post(t, ts, "/v1/insert", InsertRequest{P: []float64{0.3, 0.4}, W: &w})
	if resp.StatusCode != http.StatusOK {
		t.Fatal("weighted single insert failed")
	}
	resp, body = post(t, ts, "/v1/insert", InsertRequest{
		Points:  [][]float64{{0.5, 0.6}, {0.7, 0.8}},
		Weights: []float64{1, 3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk insert: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Inserted != 2 || ir.Len != 4 {
		t.Fatalf("bulk insert response %+v", ir)
	}
	// The reply carries the masses a coordinator would otherwise fetch from
	// /v1/info: 1 + 2.5 + 1 + 3.
	if ir.Points != 4 || ir.WeightPos != 7.5 || ir.WeightNeg != 0 {
		t.Fatalf("bulk insert response masses %+v", ir.MassResponse)
	}
	if d.Len() != 4 {
		t.Fatalf("engine Len = %d", d.Len())
	}
	// Served answers match a direct computation.
	q := []float64{0.4, 0.4}
	resp, body = post(t, ts, "/v1/aggregate", QueryRequest{Q: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate after insert: %s", body)
	}
	var v ValueResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	want, _ := d.Aggregate(q)
	if math.Abs(v.Value-want) > 1e-12 {
		t.Fatalf("value %v want %v", v.Value, want)
	}
}

func TestInsertEndpointRejectsBadBodies(t *testing.T) {
	_, ts := testMutableServer(t)
	for name, body := range map[string]InsertRequest{
		"empty":              {},
		"both forms":         {P: []float64{1, 2}, Points: [][]float64{{3, 4}}},
		"w with bulk":        {Points: [][]float64{{1, 2}}, W: ptr(2.0)},
		"weights with p":     {P: []float64{1, 2}, Weights: []float64{1}},
		"weight count":       {Points: [][]float64{{1, 2}, {3, 4}}, Weights: []float64{1}},
		"dims change midway": {Points: [][]float64{{1, 2}, {3}}},
	} {
		resp, b := post(t, ts, "/v1/insert", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, b)
		}
	}
}

func TestInsertEndpointIsAllOrNothing(t *testing.T) {
	// A batch with a bad point mid-way is rejected wholesale: the valid
	// prefix must not land (the engine validates before mutating).
	d, ts := testMutableServer(t)
	before := d.Len()
	resp, b := post(t, ts, "/v1/insert", InsertRequest{Points: [][]float64{{9, 9}, {1}}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "point 1") {
		t.Fatalf("bad batch not rejected: %d %s", resp.StatusCode, b)
	}
	if got := d.Len(); got != before {
		t.Fatalf("rejected batch landed points: len %d want %d", got, before)
	}
}

func TestInsertOnStaticServerIs404(t *testing.T) {
	s, _ := New(testEngine(t))
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, _ := post(t, ts, "/v1/insert", InsertRequest{P: []float64{0.1, 0.2}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("insert on static server: status %d", resp.StatusCode)
	}
}

func TestMutableInfoAndStats(t *testing.T) {
	// Auto-compaction off so the manifest epoch is deterministic once the
	// bulk insert returns (seals happen synchronously on the insert path).
	d, ts := testMutableServer(t, karl.WithSealSize(16), karl.WithAutoCompaction(false))
	rng := rand.New(rand.NewSource(43))
	pts := make([][]float64, 100)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	if resp, b := post(t, ts, "/v1/insert", InsertRequest{Points: pts}); resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk insert: %s", b)
	}
	// Run one query so the pool has served the current epoch.
	if resp, b := post(t, ts, "/v1/threshold", QueryRequest{Q: []float64{0.5, 0.5}, Tau: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("threshold: %s", b)
	}
	resp, err := http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !info.Mutable || info.Points != 100 || info.Dims != 2 || info.Segments == 0 {
		t.Fatalf("info = %+v", info)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Mutable == nil {
		t.Fatal("stats has no mutable block")
	}
	ms := stats.Mutable
	if ms.Points != 100 || ms.Seals != d.Seals() || ms.Segments == 0 {
		t.Fatalf("mutable stats = %+v", ms)
	}
	if ms.ServedEpoch != d.Epoch() {
		t.Fatalf("served epoch %d, manifest epoch %d", ms.ServedEpoch, d.Epoch())
	}
	ins, ok := stats.Endpoints["insert"]
	if !ok || ins.Requests != 1 || ins.Queries != 100 {
		t.Fatalf("insert endpoint stats = %+v", ins)
	}
}

// TestMutableConcurrentInsertAndQuery hammers a mutable server with
// interleaved inserts and queries; every response must be well-formed and
// the final count exact. Run with -race in CI.
func TestMutableConcurrentInsertAndQuery(t *testing.T) {
	d, ts := testMutableServer(t, karl.WithSealSize(32), karl.WithCompactionFanout(2))
	// Prime one point so queries never see an empty engine.
	if resp, b := post(t, ts, "/v1/insert", InsertRequest{P: []float64{0.5, 0.5}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime insert: %s", b)
	}
	const (
		inserters = 4
		queriers  = 4
		perWorker = 150
	)
	var wg sync.WaitGroup
	errc := make(chan error, inserters+queriers)
	for g := 0; g < inserters; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				resp, b := post(t, ts, "/v1/insert", InsertRequest{P: []float64{rng.Float64(), rng.Float64()}})
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("insert: %s", b)
					return
				}
			}
		}(int64(100 + g))
	}
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				q := []float64{rng.Float64(), rng.Float64()}
				var resp *http.Response
				var b []byte
				if i%2 == 0 {
					resp, b = post(t, ts, "/v1/approximate", QueryRequest{Q: q, Eps: 0.2})
				} else {
					resp, b = post(t, ts, "/v1/threshold", QueryRequest{Q: q, Tau: 0.5})
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("query: %s", b)
					return
				}
			}
		}(int64(200 + g))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if want := 1 + inserters*perWorker; d.Len() != want {
		t.Fatalf("Len = %d want %d", d.Len(), want)
	}
}

func ptr(v float64) *float64 { return &v }

// del issues a DELETE request with a JSON body.
func del(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(buf.String())
}

func TestDeleteEndpoint(t *testing.T) {
	d, ts := testMutableServer(t, karl.WithSealSize(8), karl.WithAutoCompaction(false))
	pts := make([][]float64, 20)
	for i := range pts {
		pts[i] = []float64{float64(i) / 20, 0.5}
	}
	resp, body := post(t, ts, "/v1/insert", InsertRequest{Points: pts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %s", body)
	}
	var ir InsertResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.IDs) != 20 {
		t.Fatalf("got %d ids, want 20", len(ir.IDs))
	}

	// Single delete by returned ID: the point is sealed, so it becomes a
	// tombstone rather than shrinking a segment.
	resp, body = del(t, ts, "/v1/point", DeleteRequest{ID: ir.IDs[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	var dr DeleteResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Deleted != 1 || dr.Len != 19 || dr.Points != 19 || dr.WeightPos != 19 {
		t.Fatalf("delete response %+v", dr)
	}
	if d.Len() != 19 {
		t.Fatalf("engine Len = %d, want 19", d.Len())
	}

	// Double delete and unknown IDs are 404.
	for name, id := range map[string]uint64{
		"double delete": ir.IDs[0],
		"never issued":  1 << 40,
	} {
		resp, body = del(t, ts, "/v1/point", DeleteRequest{ID: id})
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
	}

	// Bulk delete; a mid-batch 404 reports the partial landing.
	resp, body = del(t, ts, "/v1/point", DeleteRequest{IDs: ir.IDs[1:4]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk delete: %d %s", resp.StatusCode, body)
	}
	resp, body = del(t, ts, "/v1/point", DeleteRequest{IDs: []uint64{ir.IDs[4], ir.IDs[4]}})
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "1 of 2 deleted") {
		t.Fatalf("partial bulk delete not reported: %d %s", resp.StatusCode, body)
	}
	// ... in fields, not only in prose: one id landed, the repeat failed,
	// and the masses are those after the one removal.
	var de DeleteErrorResponse
	if err := json.Unmarshal(body, &de); err != nil {
		t.Fatal(err)
	}
	if de.Deleted != 1 || de.FailedID != ir.IDs[4] || de.Points != 15 || de.WeightPos != 15 {
		t.Fatalf("structured delete failure %+v", de)
	}

	// Malformed bodies.
	for name, body := range map[string]DeleteRequest{
		"empty":      {},
		"both forms": {ID: ir.IDs[5], IDs: []uint64{ir.IDs[6]}},
	} {
		resp, b := del(t, ts, "/v1/point", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, b)
		}
	}

	// Tombstones and lifetime deletes show up in /v1/stats and /v1/info.
	hresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if st.Mutable == nil || st.Mutable.Deletes != 5 || st.Mutable.Tombstones != d.Tombstones() {
		t.Fatalf("mutable stats %+v (engine tombstones %d)", st.Mutable, d.Tombstones())
	}
	if st.Endpoints["delete"].Requests == 0 || st.Endpoints["delete"].Errors == 0 {
		t.Fatalf("delete endpoint metrics %+v", st.Endpoints["delete"])
	}
	hresp, err = http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	var info InfoResponse
	if err := json.NewDecoder(hresp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if info.Tombstones != d.Tombstones() || info.Points != 15 {
		t.Fatalf("info %+v (engine tombstones %d)", info, d.Tombstones())
	}
}

func TestDeleteOnStaticServerIs404(t *testing.T) {
	s, _ := New(testEngine(t))
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, _ := del(t, ts, "/v1/point", DeleteRequest{ID: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete on static server: status %d", resp.StatusCode)
	}
}

func TestMutableInfoReportsWindowAndDecay(t *testing.T) {
	d, err := karl.NewDynamic(karl.Gaussian(5), karl.WithTTL(time.Minute), karl.WithDecayHalfLife(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewMutable(d)
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
	if info.WindowSeconds != 60 || info.HalfLifeSeconds != 30 {
		t.Fatalf("info window/decay %+v", info)
	}
}
