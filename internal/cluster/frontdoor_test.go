package cluster

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"karl"
	"karl/internal/server"
)

// spaces is an endless run of JSON whitespace, for bodies larger than the
// cap that are never held in memory.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestFrontDoorParity posts the same malformed and edge requests through the
// front doors in pairs — a single-node mutable server beside a writable
// coordinator over two members, and a static single node (karl-serve -model)
// beside a read-only coordinator over two static shards: on the routes a pair
// shares, both must refuse with the same status and the same error text —
// they are one handler set, not two copies — and the read-only pair leaves
// POST /v1/insert and DELETE /v1/point unrouted alike.
func TestFrontDoorParity(t *testing.T) {
	pts, _ := dataset(80, 2, 71, "I")
	seed, _ := json.Marshal(map[string]any{"points": pts})
	do := func(h http.Handler, method, path string, body io.Reader) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
		var env struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &env)
		return rec.Code, env.Error
	}
	// door is one pair; the single node comes first.
	type door struct {
		names    [2]string
		h        [2]http.Handler
		readOnly bool
	}
	newDoors := func(kern karl.Kernel) []door {
		single, err := server.NewMutable(newDynEngine(t, kern, karl.KDTree))
		if err != nil {
			t.Fatal(err)
		}
		wco, _ := foundWritable(t, 2, kern, karl.KDTree, nil, WritableConfig{})
		writable := door{names: [2]string{"single node", "coordinator"}, h: [2]http.Handler{single, NewWritableHTTPServer(wco)}}
		for i, h := range writable.h {
			if status, msg := do(h, "POST", "/v1/insert", strings.NewReader(string(seed))); status != http.StatusOK {
				t.Fatalf("%s: seeding: %d %s", writable.names[i], status, msg)
			}
		}
		static := buildEngine(t, pts, nil, kern, karl.KDTree)
		return []door{writable, {
			names:    [2]string{"static single node", "read-only coordinator"},
			h:        [2]http.Handler{readServer(t, static), NewHTTPServer(shardedCoordinator(t, static, 2, karl.HashPartition, Config{}))},
			readOnly: true,
		}}
	}
	doors := newDoors(karl.Gaussian(1))
	// A polynomial kernel overflows float64 far from the data, and is not
	// bounded by 1.
	polyDoors := newDoors(karl.Polynomial(1, 1, 3))

	const q = `"q":[0.1,0.2]`
	type parityCase struct {
		name, method, path, body string
		status                   int
		contains                 string
	}
	cases := []parityCase{
		{"info", "GET", "/v1/info", "", 200, ""},
		{"stats", "GET", "/v1/stats", "", 200, ""},
		{"healthz", "GET", "/v1/healthz", "", 200, ""},
		{"readyz", "GET", "/v1/readyz", "", 200, ""},
		{"p with weights", "POST", "/v1/insert", `{"p":[1,2],"weights":[5]}`, 400, `"weights" belongs to the bulk form`},
		{"points with w", "POST", "/v1/insert", `{"points":[[1,2]],"w":5}`, 400, `"w" belongs to the single form`},
		{"p with points", "POST", "/v1/insert", `{"p":[1,2],"points":[[1,2]]}`, 400, "mutually exclusive"},
		{"weights count", "POST", "/v1/insert", `{"points":[[1,2]],"weights":[1,2]}`, 400, "2 weights for 1 points"},
		{"no insert form", "POST", "/v1/insert", `{}`, 400, `provide "p"`},
		{"empty points", "POST", "/v1/insert", `{"points":[]}`, 400, `provide "p"`},
		{"id with ids", "DELETE", "/v1/point", `{"id":3,"ids":[4]}`, 400, "mutually exclusive"},
		{"id zero", "DELETE", "/v1/point", `{"id":0}`, 400, `provide "id"`},
		{"empty ids", "DELETE", "/v1/point", `{"ids":[]}`, 400, `provide "id"`},
		{"unknown field", "POST", "/v1/aggregate", `{` + q + `,"k":3}`, 400, `unknown field "k"`},
		{"unknown insert field", "POST", "/v1/insert", `{"p":[1,2],"weight":2}`, 400, `unknown field "weight"`},
		{"truncated body", "POST", "/v1/threshold", `{"q":[0.1`, 400, "bad request"},
		{"body over the cap", "POST", "/v1/aggregate", "oversized", 413, "request body exceeds 33554432 bytes"},
		{"insert over the cap", "POST", "/v1/insert", "oversized", 413, "request body exceeds 33554432 bytes"},
		{"threshold on /v1/threshold", "POST", "/v1/threshold", `{` + q + `,"threshold":3}`, 400, `takes "tau"`},
		{"eps with eps_norm", "POST", "/v1/approximate", `{` + q + `,"eps":0.1,"eps_norm":0.1}`, 400, "mutually exclusive"},
		{"eps_norm of 1", "POST", "/v1/approximate", `{` + q + `,"eps_norm":1}`, 400, "eps_norm must be in (0,1)"},
		{"eps_norm above 1", "POST", "/v1/approximate", `{` + q + `,"eps_norm":1.5}`, 400, "eps_norm must be in (0,1)"},
		{"no budget", "POST", "/v1/approximate", `{` + q + `}`, 400, "eps must be positive"},
		{"negative eps", "POST", "/v1/approximate", `{` + q + `,"eps":-1}`, 400, "eps must be positive"},
		{"wrong dimension", "POST", "/v1/aggregate", `{"q":[0.1,0.2,0.3]}`, 400, "query has 3 dims, model has 2"},
		{"wrong dimension threshold", "POST", "/v1/threshold", `{"q":[0.1],"tau":1}`, 400, "query has 1 dims, model has 2"},
		{"non-finite q", "POST", "/v1/approximate", `{"q":[0.1,1e999],"eps":0.1}`, 400, "bad request"},
		{"wrong method", "GET", "/v1/aggregate", "", 405, ""},
		{"null in q", "POST", "/v1/aggregate", `{"q":[0.1,null]}`, 400, "q[1] must be a number, got null"},
		{"null tau", "POST", "/v1/threshold", `{` + q + `,"tau":null}`, 400, "tau must be a number, got null"},
		{"null in points", "POST", "/v1/insert", `{"points":[[1,2],[3,null]]}`, 400, "points[1][1] must be a number, got null"},
		{"null weight", "POST", "/v1/insert", `{"points":[[1,2]],"weights":[null]}`, 400, "weights[0] must be a number, got null"},
		{"null id", "DELETE", "/v1/point", `{"ids":[1,null]}`, 400, "ids[1] must be a number, got null"},
		{"trailing garbage", "POST", "/v1/aggregate", `{` + q + `} trailing garbage`, 400, "unexpected data after the JSON body"},
		{"second value", "POST", "/v1/approximate", `{` + q + `,"eps":0.1}{"q":[9]}`, 400, "unexpected data after the JSON body"},
		{"insert trailing value", "POST", "/v1/insert", `{"p":[1,2]}{}`, 400, "unexpected data after the JSON body"},
		{"delete trailing bytes", "DELETE", "/v1/point", `{"id":1}x`, 400, "unexpected data after the JSON body"},
	}
	polyCases := []parityCase{
		{"aggregate overflows", "POST", "/v1/aggregate", `{"q":[1e200,1e200]}`, 422, "aggregate is not finite at this query"},
		{"approximate overflows", "POST", "/v1/approximate", `{"q":[1e200,1e200],"eps":0.1}`, 422, "aggregate is not finite at this query"},
		{"aggregate near the data", "POST", "/v1/aggregate", `{` + q + `}`, 200, ""},
		{"eps_norm on an unbounded kernel", "POST", "/v1/approximate", `{` + q + `,"eps_norm":0.5}`, 400, "eps_norm needs a kernel bounded by 1; use eps"},
	}
	for i, c := range append(cases, polyCases...) {
		doors := doors
		if i >= len(cases) {
			doors = polyDoors
		}
		for _, d := range doors {
			want, contains := c.status, c.contains
			if d.readOnly && (c.path == "/v1/insert" || c.path == "/v1/point") {
				want, contains = http.StatusNotFound, "" // the mux's own 404: no such route
			}
			var got [2][2]any
			for j, h := range d.h {
				var body io.Reader = strings.NewReader(c.body)
				if c.body == "oversized" {
					body = io.MultiReader(strings.NewReader(`{"q":[0.1,`), io.LimitReader(spaces{}, 33<<20))
				}
				status, msg := do(h, c.method, c.path, body)
				if status != want || !strings.Contains(msg, contains) {
					t.Errorf("%s, %s: got %d %q, want %d with %q", c.name, d.names[j], status, msg, want, contains)
				}
				got[j] = [2]any{status, msg}
			}
			if got[0] != got[1] {
				t.Errorf("%s: the %s answers %v, the %s %v", c.name, d.names[0], got[0], d.names[1], got[1])
			}
		}
	}
}

// TestWritableFoundedEmptyAnswers: a writable cluster founded over empty
// members must answer as soon as ANY member holds a point. Every insert
// here routes to member 2, so member 1 stays empty: it contributes exactly
// 0, is asked nothing, and no answer is flagged partial.
func TestWritableFoundedEmptyAnswers(t *testing.T) {
	ctx := context.Background()
	kern := karl.Gaussian(0.5)
	wco, engines := foundWritable(t, 2, kern, karl.KDTree, nil, WritableConfig{})
	mono := newDynEngine(t, kern, karl.KDTree)

	cand, _ := dataset(400, 2, 83, "I")
	man := wco.Manifest()
	var pts [][]float64
	for _, p := range cand {
		if man.Route(p) == 2 {
			pts = append(pts, p)
		}
	}
	if len(pts) < 40 {
		t.Fatalf("fixture: only %d of %d candidates route to member 2", len(pts), len(cand))
	}
	pts = pts[:40]
	for i := 0; i < len(pts); i += 10 {
		mustInsert(t, wco, pts[i:i+10], nil)
		if _, err := mono.InsertBulk(pts[i:i+10], nil); err != nil {
			t.Fatal(err)
		}
		// The very first acknowledged insert opens the cluster for reads.
		if _, err := wco.Aggregate(ctx, pts[0]); err != nil {
			t.Fatalf("Aggregate after %d points: %v", i+10, err)
		}
	}
	if engines[0].Len() != 0 || engines[1].Len() != len(pts) {
		t.Fatalf("fixture: members hold %d and %d points, want 0 and %d", engines[0].Len(), engines[1].Len(), len(pts))
	}

	const eps = 0.05
	queries, _ := dataset(12, 2, 89, "I")
	for _, q := range append(queries, pts[:4]...) {
		want, err := mono.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := wco.Aggregate(ctx, q)
		if err != nil || agg.Partial || agg.Covered != 1 || math.Abs(agg.Value-want) > 1e-9*(1+want) {
			t.Fatalf("Aggregate(%v) = %+v, %v; want %v, whole", q, agg, err, want)
		}
		app, err := wco.Approximate(ctx, q, eps)
		if err != nil || app.Partial || math.Abs(app.Value-want) > eps*want+1e-12 {
			t.Fatalf("Approximate(%v) = %+v, %v; want within %v of %v, whole", q, app, err, eps, want)
		}
		for _, tau := range []float64{want * 0.9, want * 1.1} {
			thr, err := wco.Threshold(ctx, q, tau)
			if err != nil || thr.Partial || thr.Over != (want > tau) {
				t.Fatalf("Threshold(%v, %v) = %+v, %v; F = %v", q, tau, thr, err, want)
			}
		}
	}

	// The same through the front door: no "partial" on the wire.
	front := NewWritableHTTPServer(wco)
	rec := httptest.NewRecorder()
	front.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/aggregate", strings.NewReader(`{"q":[0.1,0.2]}`)))
	var val server.CoveredValueResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &val); err != nil || rec.Code != http.StatusOK || val.Partial || val.Covered != 1 {
		t.Fatalf("POST /v1/aggregate = %d %s", rec.Code, rec.Body)
	}
}
