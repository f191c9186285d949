package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
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
