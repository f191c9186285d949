package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"karl"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire_golden.json from the current handlers")

// wireExchange is one request of the golden script and the reply a
// single-node server gave it.
type wireExchange struct {
	Server  string `json:"server"`
	Method  string `json:"method"`
	Path    string `json:"path"`
	Request string `json:"request,omitempty"`
	Status  int    `json:"status"`
	Body    string `json:"body"`
}

// TestWireGolden pins the single-node wire: a fixed script of requests —
// every route, the success shapes and the error envelopes — against a
// static server, a capped one, a mutable one and a polynomial-kernel one
// must produce the status codes and response bodies recorded in
// testdata/wire_golden.json byte for byte. The file was captured at the commit before the front door
// was shared with the cluster coordinator, so any byte a refactor of the
// handler set adds to or drops from a single-node reply fails here.
// (Values are float64 sums printed in full; the file is for amd64.)
func TestWireGolden(t *testing.T) {
	servers, script := wireScript(t)
	for i := range script {
		x := &script[i]
		req := httptest.NewRequest(x.Method, x.Path, strings.NewReader(x.Request))
		rec := httptest.NewRecorder()
		servers[x.Server].ServeHTTP(rec, req)
		x.Status, x.Body = rec.Code, rec.Body.String()
	}

	path := filepath.Join("testdata", "wire_golden.json")
	if *updateWire {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", " ")
		if err := enc.Encode(script); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []wireExchange
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(script) {
		t.Fatalf("golden holds %d exchanges, the script %d (regenerate only at a commit whose wire is the reference)", len(want), len(script))
	}
	for i, got := range script {
		w := want[i]
		if got.Server != w.Server || got.Method != w.Method || got.Path != w.Path || got.Request != w.Request {
			t.Fatalf("exchange %d: script asks %s %s %s %q, golden recorded %s %s %s %q", i,
				got.Server, got.Method, got.Path, got.Request, w.Server, w.Method, w.Path, w.Request)
		}
		if got.Status != w.Status || got.Body != w.Body {
			t.Errorf("%s %s %s %s:\n got %d %q\nwant %d %q", got.Server, got.Method, got.Path, got.Request,
				got.Status, got.Body, w.Status, w.Body)
		}
	}
}

// wireScript returns the golden script and fresh servers to run it on: a
// static server, a capped one, a mutable one and a polynomial-kernel one.
func wireScript(t *testing.T) (map[string]http.Handler, []wireExchange) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	pts := make([][]float64, 400)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	eng, err := karl.Build(pts, karl.Gaussian(5))
	if err != nil {
		t.Fatal(err)
	}
	static, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := New(eng, WithMaxBodyBytes(64))
	if err != nil {
		t.Fatal(err)
	}
	// No background compaction: every counter in /v1/stats is then a
	// function of the script alone.
	dyn, err := karl.NewDynamic(karl.Gaussian(5), karl.WithSealSize(8), karl.WithAutoCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	mutable, err := NewMutable(dyn)
	if err != nil {
		t.Fatal(err)
	}
	// A polynomial kernel overflows float64 far from the data.
	polyEng, err := karl.Build(pts, karl.Polynomial(1, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	poly, err := New(polyEng)
	if err != nil {
		t.Fatal(err)
	}
	servers := map[string]http.Handler{"static": static, "capped": capped, "mutable": mutable, "poly": poly}

	bulk := func(from, to int) string {
		raw, _ := json.Marshal(pts[from:to])
		return string(raw)
	}
	q := `"q":[0.5,0.5]`
	script := []wireExchange{
		{Server: "static", Method: "GET", Path: "/v1/info"},
		{Server: "static", Method: "GET", Path: "/v1/healthz"},
		{Server: "static", Method: "GET", Path: "/v1/readyz"},
		{Server: "static", Method: "POST", Path: "/v1/aggregate", Request: `{` + q + `}`},
		{Server: "static", Method: "POST", Path: "/v1/threshold", Request: `{` + q + `,"tau":100}`},
		{Server: "static", Method: "POST", Path: "/v1/threshold", Request: `{` + q + `,"tau":1e6}`},
		{Server: "static", Method: "POST", Path: "/v1/approximate", Request: `{` + q + `,"eps":0.1}`},
		{Server: "static", Method: "POST", Path: "/v1/approximate", Request: `{` + q + `,"eps_norm":0.2}`},
		{Server: "static", Method: "POST", Path: "/v1/bounds", Request: `{` + q + `}`},
		{Server: "static", Method: "POST", Path: "/v1/bounds", Request: `{` + q + `,"eps":0.3}`},
		{Server: "static", Method: "POST", Path: "/v1/bounds", Request: `{` + q + `,"threshold":150}`},
		{Server: "static", Method: "POST", Path: "/v1/bounds", Request: `{` + q + `,"threshold":150,"eps":0.1}`},
		{Server: "static", Method: "POST", Path: "/v1/batch", Request: `{"kind":"aggregate","queries":[[0.5,0.5],[0.1,0.9]],"workers":1}`},
		{Server: "static", Method: "POST", Path: "/v1/batch", Request: `{"kind":"threshold","queries":[[0.5,0.5],[0.1,0.9]],"tau":120,"workers":1}`},
		{Server: "static", Method: "POST", Path: "/v1/batch", Request: `{"kind":"approximate","queries":[[0.5,0.5],[0.1,0.9]],"eps":0.1,"workers":1}`},
		{Server: "static", Method: "POST", Path: "/v1/batch", Request: `{"kind":"nearest","queries":[[0.5,0.5]]}`},
		{Server: "static", Method: "POST", Path: "/v1/batch", Request: `{"kind":"aggregate","queries":[[0.5,0.5],[0.1]]}`},
		{Server: "static", Method: "POST", Path: "/v1/aggregate", Request: `{"q":[0.5`},
		{Server: "static", Method: "POST", Path: "/v1/aggregate", Request: `{` + q + `,"k":3}`},
		{Server: "static", Method: "POST", Path: "/v1/aggregate", Request: `{"q":[0.5,0.5,0.5]}`},
		{Server: "static", Method: "POST", Path: "/v1/aggregate", Request: `{"q":[0.5,1e999]}`},
		{Server: "static", Method: "POST", Path: "/v1/threshold", Request: `{` + q + `,"threshold":3}`},
		{Server: "static", Method: "POST", Path: "/v1/approximate", Request: `{` + q + `}`},
		{Server: "static", Method: "POST", Path: "/v1/approximate", Request: `{` + q + `,"eps":-1}`},
		{Server: "static", Method: "POST", Path: "/v1/approximate", Request: `{` + q + `,"eps":0.1,"eps_norm":0.1}`},
		{Server: "static", Method: "POST", Path: "/v1/approximate", Request: `{` + q + `,"eps_norm":1}`},
		{Server: "static", Method: "POST", Path: "/v1/insert", Request: `{"p":[0.5,0.5]}`},
		{Server: "static", Method: "DELETE", Path: "/v1/point", Request: `{"id":1}`},
		{Server: "static", Method: "GET", Path: "/v1/aggregate"},
		{Server: "static", Method: "GET", Path: "/v1/stats"},

		{Server: "capped", Method: "POST", Path: "/v1/aggregate", Request: `{"q":[0.5,0.5` + strings.Repeat(" ", 80) + `]}`},
		{Server: "capped", Method: "POST", Path: "/v1/batch", Request: `{"kind":"aggregate","queries":[[0.5,0.5],[0.1,0.9],[0.3,0.3],[0.2,0.2]]}`},

		{Server: "mutable", Method: "GET", Path: "/v1/info"},
		{Server: "mutable", Method: "GET", Path: "/v1/readyz"},
		{Server: "mutable", Method: "POST", Path: "/v1/aggregate", Request: `{` + q + `}`},
		{Server: "mutable", Method: "POST", Path: "/v1/insert", Request: `{"p":[0.5,0.5],"w":2}`},
		{Server: "mutable", Method: "POST", Path: "/v1/insert", Request: `{"points":` + bulk(0, 3) + `,"weights":[1,2,-0.5]}`},
		{Server: "mutable", Method: "POST", Path: "/v1/insert", Request: `{"points":` + bulk(3, 30) + `}`},
		{Server: "mutable", Method: "POST", Path: "/v1/insert", Request: `{"p":[0.5,0.5],"points":[[0.1,0.2]]}`},
		{Server: "mutable", Method: "POST", Path: "/v1/insert", Request: `{"p":[0.5,0.5],"weights":[5]}`},
		{Server: "mutable", Method: "POST", Path: "/v1/insert", Request: `{"points":[[0.1,0.2]],"w":5}`},
		{Server: "mutable", Method: "POST", Path: "/v1/insert", Request: `{"points":[[0.1,0.2]],"weights":[1,2]}`},
		{Server: "mutable", Method: "POST", Path: "/v1/insert", Request: `{}`},
		{Server: "mutable", Method: "POST", Path: "/v1/insert", Request: `{"p":[0.5,0.5,0.5]}`},
		{Server: "mutable", Method: "POST", Path: "/v1/insert", Request: `{"points":[[0.1,0.2],[0.3]]}`},
		{Server: "mutable", Method: "POST", Path: "/v1/aggregate", Request: `{` + q + `}`},
		{Server: "mutable", Method: "POST", Path: "/v1/threshold", Request: `{` + q + `,"tau":10}`},
		{Server: "mutable", Method: "POST", Path: "/v1/approximate", Request: `{` + q + `,"eps":0.05}`},
		{Server: "mutable", Method: "POST", Path: "/v1/bounds", Request: `{` + q + `,"eps":0.5}`},
		{Server: "mutable", Method: "POST", Path: "/v1/batch", Request: `{"kind":"aggregate","queries":[[0.5,0.5],[0.1,0.9]],"workers":1}`},
		{Server: "mutable", Method: "DELETE", Path: "/v1/point", Request: `{"id":2}`},
		{Server: "mutable", Method: "DELETE", Path: "/v1/point", Request: `{"ids":[5,31,6]}`},
		{Server: "mutable", Method: "DELETE", Path: "/v1/point", Request: `{"ids":[7,2,8]}`},
		{Server: "mutable", Method: "DELETE", Path: "/v1/point", Request: `{"id":999}`},
		{Server: "mutable", Method: "DELETE", Path: "/v1/point", Request: `{"id":0}`},
		{Server: "mutable", Method: "DELETE", Path: "/v1/point", Request: `{"id":3,"ids":[4]}`},
		{Server: "mutable", Method: "DELETE", Path: "/v1/point", Request: `{"ids":[]}`},
		{Server: "mutable", Method: "DELETE", Path: "/v1/point", Request: `{"id":"3"}`},
		{Server: "mutable", Method: "POST", Path: "/v1/aggregate", Request: `{` + q + `}`},
		{Server: "mutable", Method: "POST", Path: "/v1/split", Request: `{"kind":"ring"}`},
		{Server: "mutable", Method: "POST", Path: "/v1/split", Request: `{"kind":"hash","dim":1,"num_slots":4,"slots":[1]}`},
		{Server: "mutable", Method: "POST", Path: "/v1/split", Request: `{"kind":"hash"}`},
		{Server: "mutable", Method: "POST", Path: "/v1/split", Request: `{"kind":"kd","dim":0}`},
		{Server: "mutable", Method: "GET", Path: "/v1/replicate/status"},
		{Server: "mutable", Method: "GET", Path: "/v1/replicate/tail?have=1,1,x"},
		{Server: "mutable", Method: "GET", Path: "/v1/replicate/tail?fence=0&deletes=99&have=1,1,0,7"},
		{Server: "mutable", Method: "POST", Path: "/v1/replicate/promote"},
		{Server: "mutable", Method: "GET", Path: "/v1/info"},
		{Server: "mutable", Method: "GET", Path: "/v1/stats"},
		// Added after the capture, and last so that no counter an earlier
		// row reports moves: an empty "points" is refused like an empty "ids".
		{Server: "mutable", Method: "POST", Path: "/v1/insert", Request: `{"points":[]}`},
		// Added with the wire codec, last for the same reason: a null where a
		// number belongs, bytes after the body and an aggregate that is not
		// finite were each a 200.
		{Server: "static", Method: "POST", Path: "/v1/aggregate", Request: `{"q":[0.5,null]}`},
		{Server: "static", Method: "POST", Path: "/v1/threshold", Request: `{` + q + `,"tau":null}`},
		{Server: "static", Method: "POST", Path: "/v1/batch", Request: `{"kind":"aggregate","queries":[[0.5,0.5],[null,0.9]]}`},
		{Server: "mutable", Method: "POST", Path: "/v1/insert", Request: `{"points":[[0.1,null]],"weights":[null]}`},
		{Server: "mutable", Method: "DELETE", Path: "/v1/point", Request: `{"ids":[9,null]}`},
		{Server: "static", Method: "POST", Path: "/v1/aggregate", Request: `{` + q + `} trailing garbage`},
		{Server: "static", Method: "POST", Path: "/v1/aggregate", Request: `{` + q + `}{"q":[9]}`},
		{Server: "static", Method: "POST", Path: "/v1/batch", Request: `{"kind":"aggregate","queries":[[0.5,0.5]]}]`},
		{Server: "mutable", Method: "DELETE", Path: "/v1/point", Request: `{"id":9}{}`},
		{Server: "poly", Method: "POST", Path: "/v1/aggregate", Request: `{` + q + `}`},
		{Server: "poly", Method: "POST", Path: "/v1/aggregate", Request: `{"q":[1e200,1e200]}`},
		{Server: "poly", Method: "POST", Path: "/v1/approximate", Request: `{"q":[1e200,1e200],"eps":0.1}`},
		{Server: "poly", Method: "POST", Path: "/v1/bounds", Request: `{"q":[1e200,1e200]}`},
		{Server: "poly", Method: "POST", Path: "/v1/batch", Request: `{"kind":"aggregate","queries":[[0.5,0.5],[1e200,1e200]],"workers":1}`},
		{Server: "poly", Method: "POST", Path: "/v1/threshold", Request: `{"q":[1e200,1e200],"tau":1}`},
		{Server: "poly", Method: "GET", Path: "/v1/stats"},
	}

	return servers, script
}
