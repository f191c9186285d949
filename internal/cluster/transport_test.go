package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"karl"
	"karl/internal/server"
)

// transportFixture is an httptest server behind a syncTransport client,
// counting the connections the server accepts and the requests per path.
type transportFixture struct {
	ts    *httptest.Server
	hc    *http.Client
	conns atomic.Int64
	mu    sync.Mutex
	hits  map[string]int
}

func newTransportFixture(t *testing.T, h http.Handler) *transportFixture {
	t.Helper()
	f := &transportFixture{hits: map[string]int{}, hc: &http.Client{Transport: &syncTransport{}}}
	f.ts = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.hits[r.URL.Path]++
		f.mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	f.ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			f.conns.Add(1)
		}
	}
	f.ts.Start()
	t.Cleanup(f.ts.Close)
	return f
}

func (f *transportFixture) hit(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits[path]
}

// do sends one request and reads the response to its end, which is what
// returns the connection to the pool.
func (f *transportFixture) do(ctx context.Context, method, path string, body []byte) (string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, f.ts.URL+path, rd)
	if err != nil {
		return "", err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func echoPath(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	fmt.Fprint(w, r.URL.Path)
}

// TestTransportReusesConnection: sequential calls share one connection.
func TestTransportReusesConnection(t *testing.T) {
	f := newTransportFixture(t, http.HandlerFunc(echoPath))
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if got, err := f.do(ctx, http.MethodPost, "/v1/bounds", []byte(`{}`)); err != nil || got != "/v1/bounds" {
			t.Fatalf("call %d: %q, %v", i, got, err)
		}
	}
	if n := f.conns.Load(); n != 1 {
		t.Fatalf("5 sequential calls used %d connections, want 1", n)
	}
}

// TestTransportStaleConnection: the server closes a pooled idle connection.
// A read is retried once on a fresh connection and succeeds; an insert is
// not retried — the caller sees the failure and the request reached the
// server at most once — and the dead connection is gone from the pool.
func TestTransportStaleConnection(t *testing.T) {
	f := newTransportFixture(t, http.HandlerFunc(echoPath))
	ctx := context.Background()
	for _, read := range []struct{ method, path string }{
		{http.MethodGet, "/v1/info"},
		{http.MethodPost, "/v1/bounds"},
		{http.MethodPost, "/v1/aggregate"},
	} {
		if _, err := f.do(ctx, read.method, read.path, nil); err != nil {
			t.Fatalf("%s %s: %v", read.method, read.path, err)
		}
		f.ts.CloseClientConnections()
		before := f.conns.Load()
		if got, err := f.do(ctx, read.method, read.path, nil); err != nil || got != read.path {
			t.Fatalf("%s %s on a stale connection: %q, %v; want a transparent retry", read.method, read.path, got, err)
		}
		if n := f.conns.Load() - before; n != 1 {
			t.Fatalf("%s %s: retry opened %d connections, want 1", read.method, read.path, n)
		}
		if n := f.hit(read.path); n != 2 {
			t.Fatalf("%s %s reached the server %d times, want 2 (once before, once retried)", read.method, read.path, n)
		}
	}

	for _, write := range []struct{ method, path string }{
		{http.MethodPost, "/v1/insert"},
		{http.MethodDelete, "/v1/point"},
		{http.MethodPost, "/v1/split"},
		{http.MethodPost, "/v1/replicate/promote"},
	} {
		if _, err := f.do(ctx, write.method, write.path, []byte(`{}`)); err != nil {
			t.Fatalf("%s %s: %v", write.method, write.path, err)
		}
		f.ts.CloseClientConnections()
		if _, err := f.do(ctx, write.method, write.path, []byte(`{}`)); err == nil {
			t.Fatalf("%s %s on a stale connection succeeded: a write must not be replayed", write.method, write.path)
		}
		if n := f.hit(write.path); n != 1 {
			t.Fatalf("%s %s reached the server %d times, want 1", write.method, write.path, n)
		}
		// The failed connection was discarded, not parked again.
		if _, err := f.do(ctx, write.method, write.path, []byte(`{}`)); err != nil {
			t.Fatalf("%s %s after the failure: %v", write.method, write.path, err)
		}
	}
}

// TestTransportCancelUnblocksStalledRead: cancelling the context fails a
// call that is waiting for a response, and its connection — which may still
// receive that response — is never used again.
func TestTransportCancelUnblocksStalledRead(t *testing.T) {
	entered := make(chan struct{}, 2) // one send per stalled call below
	release := make(chan struct{})
	f := newTransportFixture(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			entered <- struct{}{}
			<-release
		}
		echoPath(w, r)
	}))
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := f.do(ctx, http.MethodGet, "/stall", nil)
		errc <- err
	}()
	<-entered
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v, want context.Canceled", err)
	}
	before := f.conns.Load()
	if got, err := f.do(context.Background(), http.MethodGet, "/v1/info", nil); err != nil || got != "/v1/info" {
		t.Fatalf("call after a cancelled one: %q, %v", got, err)
	}
	if n := f.conns.Load() - before; n != 1 {
		t.Fatalf("call after a cancelled one opened %d connections, want 1 (the half-read one must not be reused)", n)
	}

	// A deadline behaves the same way.
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	if _, err := f.do(dctx, http.MethodGet, "/stall", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out call returned %v, want context.DeadlineExceeded", err)
	}
}

// TestTransportConnectionClose: a response marked Connection: close is
// delivered whole and its connection is not pooled.
func TestTransportConnectionClose(t *testing.T) {
	f := newTransportFixture(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		echoPath(w, r)
	}))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if got, err := f.do(ctx, http.MethodGet, "/v1/info", nil); err != nil || got != "/v1/info" {
			t.Fatalf("call %d: %q, %v", i, got, err)
		}
	}
	if n := f.conns.Load(); n != 3 {
		t.Fatalf("3 Connection: close calls used %d connections, want 3", n)
	}
}

// TestTransportStreamsLargeBody: a multi-megabyte request body goes to the
// socket as it is read; the transport never holds a copy of it. (The seeding
// insert of a cluster is tens of megabytes; a transport that collected the
// body first cost 20–35 ms and several percent of RSS there.)
func TestTransportStreamsLargeBody(t *testing.T) {
	var got atomic.Int64
	f := newTransportFixture(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		got.Store(n)
	}))
	body := bytes.Repeat([]byte("0123456789abcdef"), 512<<10) // 8 MiB
	ctx := context.Background()
	call := func() {
		if _, err := f.do(ctx, http.MethodPost, "/v1/insert", body); err != nil {
			t.Fatalf("large insert: %v", err)
		}
	}
	call() // dial, size the bufio buffers
	if got.Load() != int64(len(body)) {
		t.Fatalf("server read %d bytes, want %d", got.Load(), len(body))
	}
	const runs = 4
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&m1)
	// Client and server share the process, so this bounds both sides: well
	// under a tenth of one body per call.
	if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per > uint64(len(body))/10 {
		t.Fatalf("an %d-byte body cost %d allocated bytes per call: it is being buffered", len(body), per)
	}
}

// TestTransportConcurrentMixedCalls drives one HTTPShard over the transport
// from 32 goroutines with every kind of call against a real mutable shard
// server (run under -race in CI): the pool hands each call a connection of
// its own, never more than the goroutines in flight.
func TestTransportConcurrentMixedCalls(t *testing.T) {
	d, err := karl.NewDynamic(karl.Gaussian(1), karl.WithSealSize(64))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	seed, _ := dataset(256, 3, 71, "I")
	if _, err := d.InsertBulk(seed, nil); err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewMutable(d)
	if err != nil {
		t.Fatal(err)
	}
	f := newTransportFixture(t, srv)
	hs := NewHTTPShardClient(f.ts.URL, f.hc)

	const workers, rounds = 32, 12
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := seed[g]
			for i := 0; i < rounds; i++ {
				var err error
				switch (g + i) % 6 {
				case 0:
					_, err = hs.Info(ctx)
				case 1:
					_, err = hs.Bounds(ctx, q, 0.1)
				case 2:
					_, err = hs.ThresholdBounds(ctx, q, 1)
				case 3:
					_, err = hs.Aggregate(ctx, q)
				case 4:
					var ids []uint64
					if ids, err = hs.Insert(ctx, [][]float64{q, q}, nil); err == nil {
						var n int
						if n, err = hs.DeleteMany(ctx, ids); err == nil && n != 2 {
							err = fmt.Errorf("DeleteMany removed %d of 2", n)
						}
					}
				case 5:
					cctx, cancel := context.WithCancel(ctx)
					cancel()
					if _, cerr := hs.Bounds(cctx, q, 0.1); !errors.Is(cerr, context.Canceled) {
						err = fmt.Errorf("cancelled call returned %v", cerr)
					}
				}
				if err != nil {
					t.Errorf("worker %d call %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := f.conns.Load(); n > workers {
		t.Fatalf("%d goroutines opened %d connections", workers, n)
	}
	// With the writers gone, the reply to one more write is the mass.
	if _, err := hs.Insert(ctx, seed[:1], nil); err != nil {
		t.Fatal(err)
	}
	if mass, ok := hs.WriteMass(); !ok || mass.Points != d.Len() || mass.WeightPos != float64(d.Len()) {
		t.Fatalf("WriteMass = %+v, %v after the last write; the engine holds %d unit points", mass, ok, d.Len())
	}
}

// TestTransportWritesRequestHead holds writeRequest to Request.Write as
// oracle: http.ReadRequest over the bytes of each must give the same
// method, URI, Host, length, headers (User-Agent aside: only Request.Write
// sends one) and body. A header holding CR or LF, or a body of unknown
// length, is refused before a byte is written.
func TestTransportWritesRequestHead(t *testing.T) {
	for _, c := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodGet, "/v1/info", nil},
		{http.MethodPost, "/v1/bounds", []byte(`{"q":[0.5,-0.25,1e-7],"threshold":0.75}`)},
		{http.MethodDelete, "/v1/point", []byte(`{"ids":[3,1,4]}`)},
		{http.MethodPost, "/v1/aggregate", []byte{}},
	} {
		newReq := func() *http.Request {
			var rd io.Reader
			if c.body != nil {
				rd = bytes.NewReader(c.body)
			}
			req, err := http.NewRequest(c.method, "http://127.0.0.1:9/"+c.path[1:], rd)
			if err != nil {
				t.Fatal(err)
			}
			if c.body != nil {
				req.Header.Set("Content-Type", "application/json")
			}
			return req
		}
		var want, got bytes.Buffer
		if err := newReq().Write(&want); err != nil {
			t.Fatal(err)
		}
		bw := bufio.NewWriter(&got)
		if err := writeRequest(bw, newReq()); err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		w, g := readRequest(t, want.Bytes()), readRequest(t, got.Bytes())
		w.Header.Del("User-Agent")
		if g.Method != w.Method || g.RequestURI != w.RequestURI || g.Host != w.Host || g.ContentLength != w.ContentLength ||
			fmt.Sprint(g.Header) != fmt.Sprint(w.Header) || !bytes.Equal(g.body, w.body) {
			t.Errorf("%s %s: wrote\n%q\nRequest.Write wrote\n%q", c.method, c.path, got.Bytes(), want.Bytes())
		}
	}

	refuse := func(name string, req *http.Request) {
		t.Helper()
		var sink bytes.Buffer
		bw := bufio.NewWriter(&sink)
		if err := writeRequest(bw, req); err == nil {
			t.Errorf("%s: written, want a refusal", name)
		}
		if bw.Buffered() != 0 || sink.Len() != 0 {
			t.Errorf("%s: %d bytes written before the refusal", name, bw.Buffered()+sink.Len())
		}
	}
	badKey, _ := http.NewRequest(http.MethodGet, "http://127.0.0.1:9/v1/info", nil)
	badKey.Header["X-A\r\nX-B"] = []string{"v"}
	refuse("CR LF in a header key", badKey)
	badValue, _ := http.NewRequest(http.MethodGet, "http://127.0.0.1:9/v1/info", nil)
	badValue.Header.Set("X-A", "v\nX-B: w")
	refuse("LF in a header value", badValue)
	unknown, _ := http.NewRequest(http.MethodPost, "http://127.0.0.1:9/v1/bounds", io.MultiReader(strings.NewReader(`{}`)))
	refuse("a body of unknown length", unknown)

	// Through the transport, a refused request reaches no handler.
	f := newTransportFixture(t, http.HandlerFunc(echoPath))
	req, _ := http.NewRequest(http.MethodPost, f.ts.URL+"/v1/bounds", strings.NewReader(`{}`))
	req.Header.Set("X-A", "v\r\nX-B: w")
	if _, err := f.hc.Do(req); err == nil {
		t.Fatal("a header holding CR LF was sent")
	}
	if n := f.hit("/v1/bounds"); n != 0 {
		t.Fatalf("the refused request reached the handler %d times", n)
	}
}

// parsedRequest is a request read back by http.ReadRequest, body included.
type parsedRequest struct {
	*http.Request
	body []byte
}

func readRequest(t *testing.T, raw []byte) parsedRequest {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(raw))
	req, err := http.ReadRequest(br)
	if err != nil {
		t.Fatalf("ReadRequest(%q): %v", raw, err)
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		t.Fatal(err)
	}
	if br.Buffered() != 0 {
		t.Fatalf("%d bytes after the request in %q", br.Buffered(), raw)
	}
	return parsedRequest{req, body}
}

// cannedPeer is a TCP peer that answers every HTTP/1.1 request with the
// same /v1/bounds reply and allocates nothing per request, so an allocation
// count over a call to it is the client's own. It returns the peer's base
// URL.
func cannedPeer(tb testing.TB) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	const body = `{"value":0.4861235712,"lb":0.4528812345,"ub":0.5193659079}`
	reply := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"+
		"Date: Mon, 02 Jan 2006 15:04:05 GMT\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go answerCanned(c, reply)
		}
	}()
	tb.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return "http://" + ln.Addr().String()
}

var (
	headEnd       = []byte("\r\n\r\n")
	contentLength = []byte("\r\nContent-Length: ")
)

// answerCanned reads requests off c — a head, then Content-Length bytes of
// body — into one fixed buffer and writes reply after each.
func answerCanned(c net.Conn, reply []byte) {
	defer c.Close()
	buf := make([]byte, 64<<10)
	n := 0
	for {
		end := bytes.Index(buf[:n], headEnd)
		if end < 0 {
			m, err := c.Read(buf[n:])
			if err != nil || m == 0 {
				return
			}
			n += m
			continue
		}
		size := 0
		if i := bytes.Index(buf[:end], contentLength); i >= 0 {
			for _, d := range buf[i+len(contentLength) : end] {
				if d < '0' || d > '9' {
					break
				}
				size = size*10 + int(d-'0')
			}
		}
		total := end + len(headEnd) + size
		if total > len(buf) {
			return
		}
		for n < total {
			m, err := c.Read(buf[n:])
			if err != nil {
				return
			}
			n += m
		}
		if _, err := c.Write(reply); err != nil {
			return
		}
		n = copy(buf, buf[total:n])
	}
}

// shardCallAllocs is what one warm HTTPShard.ThresholdBounds call at d = 8
// allocates, request encoding to decoded reply. Through Request.Write it
// was 41.
const shardCallAllocs = 34

// TestShardCallAllocs pins the allocations of one warm shard hop against
// cannedPeer.
func TestShardCallAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector changes allocation counts")
	}
	hs := NewHTTPShard(cannedPeer(t))
	q := []float64{0.12, -0.5, 0.33, 1.7, -0.01, 0.25, 0.9, -1.2}
	ctx := context.Background()
	hop := func() {
		if _, err := hs.ThresholdBounds(ctx, q, 0.47); err != nil {
			t.Fatal(err)
		}
	}
	hop() // dial and size the buffers
	allocs := testing.AllocsPerRun(200, hop)
	t.Logf("%.0f allocations a shard call", allocs)
	if allocs > shardCallAllocs {
		t.Fatalf("a warm shard call made %.0f allocations, want at most %d", allocs, shardCallAllocs)
	}
}

// BenchmarkShardCall times one warm HTTPShard.ThresholdBounds call at d = 8
// against cannedPeer: the client's share of a shard hop, plus loopback.
func BenchmarkShardCall(b *testing.B) {
	hs := NewHTTPShard(cannedPeer(b))
	q := []float64{0.12, -0.5, 0.33, 1.7, -0.01, 0.25, 0.9, -1.2}
	ctx := context.Background()
	if _, err := hs.ThresholdBounds(ctx, q, 0.47); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hs.ThresholdBounds(ctx, q, 0.47); err != nil {
			b.Fatal(err)
		}
	}
}

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
