package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"karl"
)

// The tests below speak to Serve over raw sockets, one behaviour of
// http.Server's each, so that every byte the listener sends is seen.

// rawServe serves h with to on a loopback port until the test ends, and
// returns the address and a stop that shuts Serve down and returns its
// result.
func rawServe(t *testing.T, h http.Handler, to Timeouts) (string, func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, h, to) }()
	var once sync.Once
	var result error
	stop := func() error {
		once.Do(func() { cancel(); result = <-done })
		return result
	}
	t.Cleanup(func() { stop() })
	return ln.Addr().String(), stop
}

// dial opens a raw connection to addr with a reader for its replies.
func dial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c, bufio.NewReader(c)
}

func send(t *testing.T, c net.Conn, raw string) {
	t.Helper()
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
}

// reply reads one response to a request of the given method, body whole.
func reply(t *testing.T, br *bufio.Reader, method string) (*http.Response, string) {
	t.Helper()
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatalf("reading a reply: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading a reply's body: %v", err)
	}
	return resp, string(body)
}

// hungUp reports whether the server has closed c: the next read ends
// without a byte, and sooner than the 5 s it is given.
func hungUp(c net.Conn, br *bufio.Reader) bool {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := br.ReadByte()
	var ne net.Error
	return err != nil && !(errors.As(err, &ne) && ne.Timeout())
}

// lockedBuffer is a log destination the test reads while the server writes.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// echo answers "METHOD PATH BODY".
var echo = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	fmt.Fprintf(w, "%s %s %s", r.Method, r.URL.Path, body)
})

func TestServeKeepAliveAndPipelining(t *testing.T) {
	addr, _ := rawServe(t, echo, Timeouts{})
	c, br := dial(t, addr)
	// Three requests in one write: answered in order on this connection.
	send(t, c, "POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\none"+
		"GET /b HTTP/1.1\r\nHost: x\r\n\r\n"+
		"POST /c HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nthree")
	for _, want := range []string{"POST /a one", "GET /b ", "POST /c three"} {
		resp, body := reply(t, br, "GET")
		if resp.StatusCode != 200 || body != want || resp.Close {
			t.Fatalf("pipelined reply %d %q close=%v, want 200 %q kept open", resp.StatusCode, body, resp.Close, want)
		}
	}
	// And a later one after the pipeline drained.
	send(t, c, "GET /d HTTP/1.1\r\nHost: x\r\n\r\n")
	if _, body := reply(t, br, "GET"); body != "GET /d " {
		t.Fatalf("keep-alive reply %q", body)
	}
}

// TestServeNoHeaderLeaks: the request state a connection reuses carries
// nothing over: a field the first request sent is gone from the second,
// sent after the first reply or pipelined behind it.
func TestServeNoHeaderLeaks(t *testing.T) {
	fields := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "%s %q %d", r.URL.Path, r.Header.Get("X-Seen"), len(r.Header))
	})
	addr, _ := rawServe(t, fields, Timeouts{})
	c, br := dial(t, addr)
	first, second := "GET /a HTTP/1.1\r\nHost: x\r\nX-Seen: 1\r\n\r\n", "GET /b HTTP/1.1\r\nHost: x\r\n\r\n"
	expect := func(want string) {
		t.Helper()
		if _, body := reply(t, br, "GET"); body != want {
			t.Fatalf("reply %q, want %q", body, want)
		}
	}
	send(t, c, first)
	expect(`/a "1" 1`)
	send(t, c, second)
	expect(`/b "" 0`)
	send(t, c, first+second)
	expect(`/a "1" 1`)
	expect(`/b "" 0`)
}

func TestServeClosesWhenAsked(t *testing.T) {
	addr, _ := rawServe(t, echo, Timeouts{})
	for _, req := range []string{
		"GET /a HTTP/1.0\r\n\r\n",
		"GET /a HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
	} {
		c, br := dial(t, addr)
		send(t, c, req)
		resp, body := reply(t, br, "GET")
		if body != "GET /a " || !resp.Close {
			t.Fatalf("%q: reply %q close=%v, want Connection: close", req, body, resp.Close)
		}
		if !hungUp(c, br) {
			t.Fatalf("%q: the connection stayed open after the reply", req)
		}
	}
}

func TestServeChunkedBody(t *testing.T) {
	addr, _ := rawServe(t, echo, Timeouts{})
	c, br := dial(t, addr)
	send(t, c, "POST /a HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n3\r\none\r\n4\r\n-two\r\n0\r\n\r\n")
	if resp, body := reply(t, br, "POST"); resp.StatusCode != 200 || body != "POST /a one-two" {
		t.Fatalf("chunked body: %d %q", resp.StatusCode, body)
	}
}

func TestServeExpectContinue(t *testing.T) {
	addr, _ := rawServe(t, echo, Timeouts{})
	c, br := dial(t, addr)
	send(t, c, "POST /a HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\n")
	line, err := br.ReadString('\n')
	if err != nil || line != "HTTP/1.1 100 Continue\r\n" {
		t.Fatalf("before the body: %q, %v; want 100 Continue", line, err)
	}
	if blank, _ := br.ReadString('\n'); blank != "\r\n" {
		t.Fatalf("100 Continue ends with %q", blank)
	}
	send(t, c, "body")
	if resp, body := reply(t, br, "POST"); resp.StatusCode != 200 || body != "POST /a body" {
		t.Fatalf("after 100 Continue: %d %q", resp.StatusCode, body)
	}
}

func TestServeHead(t *testing.T) {
	addr, _ := rawServe(t, echo, Timeouts{})
	c, br := dial(t, addr)
	send(t, c, "HEAD /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n")
	resp, body := reply(t, br, "HEAD")
	if resp.StatusCode != 200 || body != "" || resp.ContentLength != int64(len("HEAD /a ")) {
		t.Fatalf("HEAD: %d %q length %d", resp.StatusCode, body, resp.ContentLength)
	}
	// Had the body gone out, it would stand where this reply's status is.
	if _, body := reply(t, br, "GET"); body != "GET /b " {
		t.Fatalf("the request after HEAD got %q", body)
	}
}

func TestServeHeaderTooLarge(t *testing.T) {
	addr, _ := rawServe(t, echo, Timeouts{})
	c, br := dial(t, addr)
	go io.WriteString(c, "GET /a HTTP/1.1\r\nHost: x\r\nX-Big: "+strings.Repeat("a", 2<<20)+"\r\n\r\n")
	if resp, _ := reply(t, br, "GET"); resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("a 2 MB header: %d, want 431", resp.StatusCode)
	}
}

func TestServeBadRequest(t *testing.T) {
	addr, _ := rawServe(t, echo, Timeouts{})
	for _, req := range []string{
		"GET\r\n\r\n",
		"GET /a HTTP/1.1\r\n\r\n", // no Host
	} {
		c, br := dial(t, addr)
		send(t, c, req)
		resp, _ := reply(t, br, "GET")
		if resp.StatusCode != http.StatusBadRequest || !hungUp(c, br) {
			t.Fatalf("%q: %d, want 400 and the connection closed", req, resp.StatusCode)
		}
	}
}

// TestServeBodyOverBound: a body over the size bound is refused with 413
// and the same words on Serve and on net/http, whether its length is
// declared (refused unread) or chunked (read to the bound); Serve then
// closes the connection.
func TestServeBodyOverBound(t *testing.T) {
	s, err := New(testEngine(t), WithMaxBodyBytes(64))
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := rawServe(t, s, Timeouts{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := `{"q":[0.5,0.5` + strings.Repeat(" ", 80) + `]}`
	for name, req := range map[string]string{
		"declared": fmt.Sprintf("POST /v1/aggregate HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(body), body),
		"chunked":  fmt.Sprintf("POST /v1/aggregate HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(body), body),
	} {
		c, br := dial(t, addr)
		send(t, c, req)
		resp, got := reply(t, br, "POST")
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !resp.Close || !hungUp(c, br) {
			t.Fatalf("%s body over the bound: %d close=%v, want 413 and the connection closed", name, resp.StatusCode, resp.Close)
		}
		c, br = dial(t, strings.TrimPrefix(ts.URL, "http://"))
		send(t, c, req)
		netResp, want := reply(t, br, "POST")
		c.Close()
		if netResp.StatusCode != resp.StatusCode || got != want || !strings.Contains(got, "request body exceeds 64 bytes") {
			t.Fatalf("%s body over the bound: Serve %d %q, net/http %d %q", name, resp.StatusCode, got, netResp.StatusCode, want)
		}
	}
}

func TestServeDrainsUnreadBody(t *testing.T) {
	ignore := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, r.URL.Path) })
	addr, _ := rawServe(t, ignore, Timeouts{})
	// Under the cap: the rest is read past and the connection serves on.
	c, br := dial(t, addr)
	send(t, c, "POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"+"GET /b HTTP/1.1\r\nHost: x\r\n\r\n")
	for _, want := range []string{"/a", "/b"} {
		if resp, body := reply(t, br, "GET"); body != want || resp.Close {
			t.Fatalf("reply %q close=%v, want %q kept open", body, resp.Close, want)
		}
	}
	// Over it: the connection closes after the reply.
	c, br = dial(t, addr)
	big := 256<<10 + 4096 // past the drain cap
	go func() {
		io.WriteString(c, fmt.Sprintf("POST /c HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", big))
		c.Write(make([]byte, big))
	}()
	if resp, body := reply(t, br, "POST"); body != "/c" || !resp.Close || !hungUp(c, br) {
		t.Fatalf("an unread body past the cap: %q close=%v, want the connection closed", body, resp.Close)
	}
}

func TestServePanicClosesItsConnection(t *testing.T) {
	var logged lockedBuffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/panic" {
			panic("boom")
		}
		io.WriteString(w, "ok")
	})
	addr, _ := rawServe(t, h, Timeouts{})
	c, br := dial(t, addr)
	send(t, c, "GET /panic HTTP/1.1\r\nHost: x\r\n\r\n")
	if !hungUp(c, br) {
		t.Fatal("the panicking request's connection stayed open")
	}
	if !strings.Contains(logged.String(), "panic serving") || !strings.Contains(logged.String(), "boom") {
		t.Fatalf("the panic was not logged: %q", logged.String())
	}
	c, br = dial(t, addr)
	send(t, c, "GET /ok HTTP/1.1\r\nHost: x\r\n\r\n")
	if _, body := reply(t, br, "GET"); body != "ok" {
		t.Fatalf("after a panic the server answered %q", body)
	}
}

func TestServeReadHeaderTimeout(t *testing.T) {
	addr, _ := rawServe(t, echo, Timeouts{ReadHeader: 200 * time.Millisecond})
	c, br := dial(t, addr)
	start := time.Now()
	// A byte every 50 ms: each arrives in time, the head as a whole does not.
	go func() {
		for _, b := range []byte("GET /a HTTP/1.1\r\nHost: x\r\n\r\n") {
			if _, err := c.Write([]byte{b}); err != nil {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	// The head is cut (net/http answers what it read so far 400) and the
	// connection closed long before the last byte would have arrived.
	got, err := io.ReadAll(br)
	if err != nil || bytes.Contains(got, []byte("200 OK")) {
		t.Fatalf("a dribbled head: %q, %v; want the connection closed", got, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("the dribbled head was cut after %v", d)
	}
}

func TestServeIdleTimeout(t *testing.T) {
	addr, _ := rawServe(t, echo, Timeouts{Idle: 200 * time.Millisecond})
	c, br := dial(t, addr)
	send(t, c, "GET /a HTTP/1.1\r\nHost: x\r\n\r\n")
	if resp, _ := reply(t, br, "GET"); resp.Close {
		t.Fatal("a keep-alive reply said close")
	}
	start := time.Now()
	if !hungUp(c, br) {
		t.Fatal("an idle connection stayed open")
	}
	if d := time.Since(start); d < 150*time.Millisecond || d > 2*time.Second {
		t.Fatalf("the idle connection closed after %v, want about 200 ms", d)
	}
}

func TestServeShutdown(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			<-release
		}
		io.WriteString(w, r.URL.Path)
	})
	addr, stop := rawServe(t, h, Timeouts{Drain: 5 * time.Second})
	idle, idleR := dial(t, addr)
	send(t, idle, "GET /a HTTP/1.1\r\nHost: x\r\n\r\n")
	reply(t, idleR, "GET")
	busy, busyR := dial(t, addr)
	send(t, busy, "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered

	stopped := make(chan error, 1)
	go func() { stopped <- stop() }()
	start := time.Now()
	if !hungUp(idle, idleR) || time.Since(start) > time.Second {
		t.Fatal("shutdown left an idle connection open")
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("a new connection was accepted during shutdown")
	}
	select {
	case err := <-stopped:
		t.Fatalf("Serve returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	resp, body := reply(t, busyR, "GET")
	if body != "/slow" || !resp.Close || !hungUp(busy, busyR) {
		t.Fatalf("the in-flight request got %q close=%v, want its reply and then the connection closed", body, resp.Close)
	}
	if err := <-stopped; err != nil {
		t.Fatalf("Serve after the drain: %v", err)
	}
}

func TestServeShutdownDrainBound(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})
	addr, stop := rawServe(t, h, Timeouts{Drain: 100 * time.Millisecond})
	c, br := dial(t, addr)
	send(t, c, "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered
	if err := stop(); err == nil {
		t.Fatal("Serve returned nil with a request still in flight past the drain bound")
	}
	if !hungUp(c, br) {
		t.Fatal("the connection outlived the drain bound")
	}
}

// TestServeParity replays TestWireGolden's script over sockets, once
// through net/http's server and once through Serve, each on fresh servers:
// every reply must carry the same status, Content-Type and body.
func TestServeParity(t *testing.T) {
	type answer struct{ status, contentType, body string }
	run := func(start func(http.Handler) (url string, stop func())) []answer {
		servers, script := wireScript(t)
		urls := map[string]string{}
		for name, h := range servers {
			url, stop := start(h)
			defer stop()
			urls[name] = url
		}
		var out []answer
		for _, x := range script {
			req, err := http.NewRequest(x.Method, urls[x.Server]+x.Path, strings.NewReader(x.Request))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", x.Method, x.Path, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, answer{resp.Status, resp.Header.Get("Content-Type"), string(body)})
		}
		return out
	}
	want := run(func(h http.Handler) (string, func()) {
		ts := httptest.NewServer(h)
		return ts.URL, ts.Close
	})
	got := run(func(h http.Handler) (string, func()) {
		ts := NewTestServer(h)
		return ts.URL, ts.Close
	})
	_, script := wireScript(t)
	for i := range want {
		if got[i] != want[i] {
			x := script[i]
			t.Errorf("%s %s %s %s:\n Serve    %q\n net/http %q", x.Server, x.Method, x.Path, x.Request, got[i], want[i])
		}
	}
}

// TestServeAllocs pins what a warm keep-alive /v1/threshold request at
// d = 123 allocates through Serve: the request's parse, the handler's wire
// codec and the reply, the whole round trip.
func TestServeAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	const d, maxAllocs = 123, 3
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
	// karl serve's default timeouts, so every deadline is set.
	addr, _ := rawServe(t, s, Timeouts{Read: 10 * time.Second, Write: 30 * time.Second, Idle: 2 * time.Minute, ReadHeader: 5 * time.Second, Drain: time.Second})
	c, _ := dial(t, addr)
	body := harnessBody(d, "tau", 0)
	req := []byte(fmt.Sprintf("POST /v1/threshold HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", addr, len(body), body))
	buf := make([]byte, 64<<10)
	var last []byte
	roundTrip := func() {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		n := 0
		for replyLen(buf[:n]) != n {
			m, err := c.Read(buf[n:])
			if err != nil {
				t.Fatal(err)
			}
			n += m
		}
		last = buf[:n]
	}
	roundTrip()
	allocs := testing.AllocsPerRun(200, roundTrip)
	if !bytes.HasPrefix(last, []byte("HTTP/1.1 200 OK\r\n")) || !bytes.HasSuffix(last, []byte("{\"over\":false}\n")) {
		t.Fatalf("reply %q", last)
	}
	if allocs > maxAllocs {
		t.Errorf("%.1f allocations a request, want at most %d", allocs, maxAllocs)
	}
	t.Logf("%.1f allocations a request", allocs)
}

// replyLen is the length of the reply at the start of b once its head has
// arrived, else -1. It allocates nothing.
func replyLen(b []byte) int {
	end := bytes.Index(b, []byte("\r\n\r\n"))
	at := bytes.Index(b, []byte("\r\nContent-Length: "))
	if end < 0 || at < 0 {
		return -1
	}
	n := 0
	for _, ch := range b[at+len("\r\nContent-Length: "):] {
		if ch < '0' || ch > '9' {
			break
		}
		n = 10*n + int(ch-'0')
	}
	return end + 4 + n
}
