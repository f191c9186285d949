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

// transportFixture is karl serve's listener behind a member hop, counting
// the connections the server accepts and the requests per path.
type transportFixture struct {
	url   string
	ln    *trackingListener
	hop   *memberHop
	mu    sync.Mutex
	hits  map[string]int
	conns atomic.Int64
}

// trackingListener counts the connections it accepts and can close them
// all, as a server that drops its clients does.
type trackingListener struct {
	net.Listener
	f    *transportFixture
	mu   sync.Mutex
	open []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.f.conns.Add(1)
		l.mu.Lock()
		l.open = append(l.open, c)
		l.mu.Unlock()
	}
	return c, err
}

// closeClientConnections closes every connection the server has accepted.
func (f *transportFixture) closeClientConnections() {
	f.ln.mu.Lock()
	defer f.ln.mu.Unlock()
	for _, c := range f.ln.open {
		c.Close()
	}
	f.ln.open = nil
}

func newTransportFixture(t *testing.T, h http.Handler) *transportFixture {
	t.Helper()
	f := &transportFixture{hits: map[string]int{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.ln, f.url = &trackingListener{Listener: ln, f: f}, "http://"+ln.Addr().String()
	f.hop = newMemberHop(f.url)
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- server.Serve(ctx, f.ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			f.mu.Lock()
			f.hits[r.URL.Path]++
			f.mu.Unlock()
			h.ServeHTTP(w, r)
		}), server.Timeouts{Drain: 5 * time.Second})
	}()
	t.Cleanup(func() {
		stop()
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
	return f
}

func (f *transportFixture) hit(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits[path]
}

// do sends one request through the hop and returns the reply's body, which
// the hop has read to its end.
func (f *transportFixture) do(ctx context.Context, method, path string, body []byte) (string, error) {
	_, req := f.hop.appendRequest(nil, method, path, "application/json", body, body != nil)
	var reply []byte
	status, err := f.hop.do(ctx, req, &reply)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", status, reply)
	}
	return string(reply), err
}

// shard is an HTTPShard over the fixture's hop.
func (f *transportFixture) shard() *HTTPShard {
	return &HTTPShard{base: f.url, hop: f.hop}
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

// TestTransportMemberHopParksConnection: the member hop reads each reply
// into a buffer sized by its declared length, and still to its end, which is
// what parks the connection: 50 warm inserts, each a rows body, and 50
// threshold rounds against one member share the one connection they dialled.
func TestTransportMemberHopParksConnection(t *testing.T) {
	f := newTransportFixture(t, mutableServer(t, newDynEngine(t, karl.Gaussian(1), karl.KDTree)))
	hs := f.shard()
	ctx := context.Background()
	pts, _ := dataset(50*16, 8, 5, "I")
	for i := 0; i < 50; i++ {
		if ids, err := hs.Insert(ctx, pts[16*i:16*(i+1)], nil); err != nil || len(ids) != 16 {
			t.Fatalf("insert %d: %d ids, %v", i, len(ids), err)
		}
		if _, err := hs.ThresholdBounds(ctx, pts[i], 0.5); err != nil {
			t.Fatalf("threshold %d: %v", i, err)
		}
	}
	if n, hits := f.conns.Load(), f.hit("/v1/insert")+f.hit("/v1/bounds"); n != 1 || hits != 100 {
		t.Fatalf("100 calls reached the member as %d requests over %d connections, want 1", hits, n)
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
		f.closeClientConnections()
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
		f.closeClientConnections()
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
// socket from where the caller holds it; the hop never makes a copy of it.
// (The seeding insert of a cluster is tens of megabytes; a transport that
// collected the body first cost 20–35 ms and several percent of RSS there.)
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
	hs := f.shard()

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

// TestTransportWritesRequestHead holds the hop's request to
// Request.Write as oracle: http.ReadRequest over the bytes of each must give
// the same method, URI, Host, length, headers (User-Agent aside: only
// Request.Write sends one) and body — with a body copied behind the head,
// and with a large one sent after it.
func TestTransportWritesRequestHead(t *testing.T) {
	large := bytes.Repeat([]byte("x"), largeBody+1)
	for _, c := range []struct {
		base, method, path string
		body               []byte
	}{
		{"http://127.0.0.1:9", http.MethodGet, "/v1/info", nil},
		{"http://127.0.0.1:9", http.MethodPost, "/v1/bounds", []byte(`{"q":[0.5,-0.25,1e-7],"threshold":0.75}`)},
		{"http://127.0.0.1:9", http.MethodDelete, "/v1/point", []byte(`{"ids":[3,1,4]}`)},
		{"http://127.0.0.1:9", http.MethodPost, "/v1/aggregate", []byte{}},
		{"http://127.0.0.1:9/under/a/prefix", http.MethodPost, "/v1/insert", large},
		{"http://localhost", http.MethodGet, "/v1/readyz", nil},
	} {
		var rd io.Reader
		if c.body != nil {
			rd = bytes.NewReader(c.body)
		}
		oracle, err := http.NewRequest(c.method, c.base+c.path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if c.body != nil {
			oracle.Header.Set("Content-Type", "application/json")
		}
		var want bytes.Buffer
		if err := oracle.Write(&want); err != nil {
			t.Fatal(err)
		}
		buf, req := newMemberHop(c.base).appendRequest([]byte("left in front"), c.method, c.path, "application/json", c.body, c.body != nil)
		if !bytes.HasPrefix(buf, []byte("left in front")) || (len(req.body) > 0) != (len(c.body) > largeBody) {
			t.Errorf("%s %s: %d bytes in the head, %d after it", c.method, c.path, len(req.msg), len(req.body))
		}
		var got bytes.Buffer
		if err := req.write(&got); err != nil {
			t.Fatal(err)
		}
		w, g := readRequest(t, want.Bytes()), readRequest(t, got.Bytes())
		w.Header.Del("User-Agent")
		if g.Method != w.Method || g.RequestURI != w.RequestURI || g.Host != w.Host || g.ContentLength != w.ContentLength ||
			fmt.Sprint(g.Header) != fmt.Sprint(w.Header) || !bytes.Equal(g.body, w.body) {
			t.Errorf("%s %s: wrote\n%.300q\nRequest.Write wrote\n%.300q", c.method, c.path, got.Bytes(), want.Bytes())
		}
	}

	// A base URL the hop cannot speak to fails every call, before a dial.
	for _, base := range []string{"https://127.0.0.1:9", "http://127.0.0.1:9?x=1", "http:///v1", "http://%zz"} {
		if _, err := NewHTTPShard(base).Info(context.Background()); err == nil {
			t.Errorf("%s: a call succeeded", base)
		}
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
// allocates, request encoding to decoded reply, over the member hop. Through
// net/http's client with a hand-written request head it was 34, through
// Request.Write 41.
const shardCallAllocs = 6

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

// scriptedPeer is a TCP peer that answers the n-th request it reads (over
// all its connections, counted from 0) with script(n) and closes that
// connection after it when hangUp(n). It returns the peer's base URL and
// counts of the requests and connections it took.
func scriptedPeer(t *testing.T, script func(n int) (reply string, hangUp bool)) (url string, requests, conns *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	requests, conns = new(atomic.Int64), new(atomic.Int64)
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, req.Body)
					reply, hangUp := script(int(requests.Add(1) - 1))
					if _, err := io.WriteString(c, reply); err != nil || hangUp {
						return
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String(), requests, conns
}

const okInfo = "HTTP/1.1 200 OK\r\nContent-Length: 13\r\n\r\n{\"points\":7}\n"

// TestTransportReplyFraming: the hop reads a reply by any framing a
// member may use — declared length, chunked, up to the close — and parks
// the connection only after a reply read to its end without
// Connection: close.
func TestTransportReplyFraming(t *testing.T) {
	for _, c := range []struct {
		name, reply string
		parks       bool
	}{
		{"sized", okInfo, true},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{\"poi\r\n8\r\nnts\":7}\n\r\n0\r\n\r\n", true},
		{"connection close", "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 13\r\n\r\n{\"points\":7}\n", false},
		{"to the close", "HTTP/1.1 200 OK\r\n\r\n{\"points\":7}\n", false},
		{"HTTP/1.0", "HTTP/1.0 200 OK\r\nContent-Length: 13\r\n\r\n{\"points\":7}\n", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			url, requests, conns := scriptedPeer(t, func(int) (string, bool) { return c.reply, !c.parks })
			hs := NewHTTPShard(url)
			for i := 0; i < 3; i++ {
				if info, err := hs.Info(context.Background()); err != nil || info.Points != 7 {
					t.Fatalf("call %d: %+v, %v", i, info, err)
				}
			}
			want := int64(3)
			if c.parks {
				want = 1
			}
			if n := conns.Load(); n != want || requests.Load() != 3 {
				t.Fatalf("3 calls took %d requests over %d connections, want %d connections", requests.Load(), n, want)
			}
		})
	}
}

// TestTransportBrokenReplies: a reply that breaks off fails its call and
// its connection is dropped; a read whose reply had begun is not sent
// again. A 1xx is handed back as the reply, and its connection dropped. An
// error envelope is read up to 1 MiB, and its connection dropped when it is
// longer.
func TestTransportBrokenReplies(t *testing.T) {
	for _, c := range []struct{ name, reply string }{
		{"short body", "HTTP/1.1 200 OK\r\nContent-Length: 13\r\n\r\n{\"poi"},
		{"cut head", "HTTP/1.1 200 OK\r\nContent-Le"},
		{"cut chunk", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n9\r\n{\"po"},
		{"malformed head", "HTTP/1.1 2x0 OK\r\n\r\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			// The first call parks a connection; the second's reply breaks off.
			url, requests, conns := scriptedPeer(t, func(n int) (string, bool) {
				if n == 1 {
					return c.reply, true
				}
				return okInfo, false
			})
			hs := NewHTTPShard(url)
			ctx := context.Background()
			if _, err := hs.Info(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := hs.Info(ctx); err == nil {
				t.Fatal("a broken reply was taken")
			}
			if n := requests.Load(); n != 2 {
				t.Fatalf("the peer took %d requests, want 2: a read whose reply had begun was sent again", n)
			}
			if _, err := hs.Info(ctx); err != nil {
				t.Fatalf("call after the broken reply: %v", err)
			}
			if n := conns.Load(); n != 2 {
				t.Fatalf("3 calls used %d connections, want 2: the broken one must not be parked", n)
			}
		})
	}

	// A 1xx fails its call, and its connection, which the peer keeps open,
	// is dropped: the third call dials.
	url, _, conns := scriptedPeer(t, func(n int) (string, bool) {
		if n == 1 {
			return "HTTP/1.1 100 Continue\r\n\r\n", false
		}
		return okInfo, false
	})
	hs := NewHTTPShard(url)
	for i, fails := range []bool{false, true, false} {
		if _, err := hs.Info(context.Background()); (err != nil) != fails || fails && !strings.Contains(err.Error(), "HTTP 100") {
			t.Fatalf("call %d after a 1xx: %v", i, err)
		}
	}
	if n := conns.Load(); n != 2 {
		t.Fatalf("3 calls used %d connections, want 2: the connection of a 1xx must not be parked", n)
	}

	envelope := `{"error":"` + strings.Repeat("e", 2<<20) + `"}`
	url, _, conns = scriptedPeer(t, func(n int) (string, bool) {
		if n == 0 {
			return fmt.Sprintf("HTTP/1.1 500 Internal Server Error\r\nContent-Length: %d\r\n\r\n%s", len(envelope), envelope), false
		}
		return okInfo, false
	})
	hs = NewHTTPShard(url)
	var reply []byte
	_, req := hs.hop.appendRequest(nil, http.MethodGet, "/v1/info", "", nil, false)
	if status, err := hs.hop.do(context.Background(), req, &reply); err != nil || status != 500 || len(reply) != errorBody {
		t.Fatalf("a %d-byte error envelope read as status %d, %d bytes, %v; want 500, %d bytes", len(envelope), status, len(reply), err, errorBody)
	}
	if _, err := hs.Info(context.Background()); err != nil || conns.Load() != 2 {
		t.Fatalf("call after a capped envelope: %v over %d connections, want a fresh second one", err, conns.Load())
	}
}

// TestTransportRetiresIdleConnections: a connection parked longer than
// maxIdleAge is closed, not used.
func TestTransportRetiresIdleConnections(t *testing.T) {
	f := newTransportFixture(t, http.HandlerFunc(echoPath))
	ctx := context.Background()
	if _, err := f.do(ctx, http.MethodGet, "/v1/info", nil); err != nil {
		t.Fatal(err)
	}
	f.hop.mu.Lock()
	for _, c := range f.hop.idle {
		c.parked = c.parked.Add(-maxIdleAge - time.Second)
	}
	f.hop.mu.Unlock()
	if _, err := f.do(ctx, http.MethodGet, "/v1/info", nil); err != nil {
		t.Fatal(err)
	}
	if n := f.conns.Load(); n != 2 {
		t.Fatalf("a call after the idle age used %d connections in all, want 2", n)
	}
}
