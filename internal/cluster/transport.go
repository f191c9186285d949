package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// syncTransport is the http.RoundTripper behind NewHTTPShard: a pool of
// persistent HTTP/1.1 connections, each driven entirely from the goroutine
// that calls RoundTrip. net/http's Transport parks two goroutines on every
// connection and hands each request and response across them; on a
// coordinator whose calls are a few hundred microseconds long those
// hand-offs cost more than the shard's own handler. Here a call is a
// request written to the socket (streamed, never buffered whole), a
// response parsed from a bufio.Reader, and the connection back in the pool
// once the body has been read to its end.
//
// Cancellation maps onto the connection: when the request's context ends
// mid-call the connection's deadline is moved into the past, the blocked
// read or write fails, and the connection is closed — one that stopped
// half-way through a response is never reused. Plain http only and no
// proxies: shards are addressed directly.
type syncTransport struct {
	mu   sync.Mutex
	idle map[string][]*syncConn // by host:port, most recently used last
}

const (
	// maxIdleConns bounds the connections parked per host; a burst beyond
	// it dials and closes.
	maxIdleConns = 64
	// maxIdleAge retires a parked connection before karl-serve's own idle
	// timeout (-idle-timeout, 2 minutes by default) closes it under us.
	maxIdleAge = 90 * time.Second
)

type syncConn struct {
	net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	parked time.Time
}

// replayable reports whether a request may be sent a second time: GETs and
// the shard's two read-only POST endpoints have no side effects. Inserts,
// deletes, splits and promotions never qualify.
func replayable(r *http.Request) bool {
	if r.Method == http.MethodGet {
		return true
	}
	return r.Method == http.MethodPost &&
		(strings.HasSuffix(r.URL.Path, "/v1/bounds") || strings.HasSuffix(r.URL.Path, "/v1/aggregate"))
}

// RoundTrip implements http.RoundTripper.
func (t *syncTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		return nil, fmt.Errorf("cluster: shard transport speaks plain http, not %q", req.URL.Scheme)
	}
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}

	c, reused, err := t.acquire(ctx, addr)
	if err != nil {
		return nil, err
	}
	resp, started, err := t.exchange(ctx, c, addr, req)
	if err != nil && reused && !started && ctx.Err() == nil && replayable(req) {
		// The server closed the connection while it sat in the pool and no
		// byte of a response arrived: the request was not answered, and a
		// read is safe to send once more on a connection known to be fresh.
		if req.GetBody != nil {
			body, berr := req.GetBody()
			if berr != nil {
				return nil, berr
			}
			r2 := *req
			r2.Body = body
			req = &r2
		}
		if c, err = t.dial(ctx, addr); err != nil {
			return nil, err
		}
		resp, _, err = t.exchange(ctx, c, addr, req)
	}
	return resp, err
}

// acquire pops the most recently parked live connection to addr, or dials.
func (t *syncTransport) acquire(ctx context.Context, addr string) (c *syncConn, reused bool, err error) {
	t.mu.Lock()
	for c == nil {
		list := t.idle[addr]
		if len(list) == 0 {
			break
		}
		c, t.idle[addr] = list[len(list)-1], list[:len(list)-1]
		if time.Since(c.parked) > maxIdleAge {
			c.Close()
			c = nil
		}
	}
	t.mu.Unlock()
	if c != nil {
		return c, true, nil
	}
	c, err = t.dial(ctx, addr)
	return c, false, err
}

func (t *syncTransport) dial(ctx context.Context, addr string) (*syncConn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &syncConn{Conn: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}

// park returns a connection whose response has been fully read to the
// pool.
func (t *syncTransport) park(addr string, c *syncConn) {
	c.parked = time.Now()
	t.mu.Lock()
	if len(t.idle[addr]) < maxIdleConns {
		if t.idle == nil {
			t.idle = map[string][]*syncConn{}
		}
		t.idle[addr] = append(t.idle[addr], c)
		c = nil
	}
	t.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// exchange runs one request/response on c. started reports whether any
// byte of a response arrived — the line between "never answered" and
// "answered, then failed". On success the connection is owned by the
// returned body; on failure it is closed here.
func (t *syncTransport) exchange(ctx context.Context, c *syncConn, addr string, req *http.Request) (resp *http.Response, started bool, err error) {
	// The only goroutine this transport ever starts is the one context
	// runs this function on, and only when ctx ends before stop is called.
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) })
	fail := func(err error) (*http.Response, bool, error) {
		stop()
		c.Close()
		if cerr := ctx.Err(); cerr != nil {
			err = cerr // the deadline we set, not the i/o error it produced
		}
		return nil, started, err
	}

	if err := writeRequest(c.bw, req); err != nil {
		return fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return fail(err)
	}
	if _, err := c.br.Peek(1); err != nil {
		if errors.Is(err, io.EOF) {
			err = fmt.Errorf("cluster: %s closed the connection before answering: %w", addr, io.ErrUnexpectedEOF)
		}
		return fail(err)
	}
	started = true
	resp, err = http.ReadResponse(c.br, req)
	if err != nil {
		return fail(err)
	}
	resp.Body = &pooledBody{ReadCloser: resp.Body, t: t, c: c, addr: addr, stop: stop, keep: !resp.Close}
	return resp, true, nil
}

// writeRequest writes req to w as HTTP/1.1 — the request line, Host, the
// caller's headers and Content-Length — and streams the body behind them
// through w: large bodies pass straight to the socket, nothing is collected
// first. It is Request.Write without its fmt calls, transfer writer and
// User-Agent. A body must have a known length, and a header holding CR or LF
// is refused before any byte is written. The body is closed in every case,
// as RoundTrip must.
func writeRequest(w *bufio.Writer, req *http.Request) error {
	if req.Body != nil {
		defer req.Body.Close()
	}
	n := req.ContentLength
	if n < 0 || (n == 0) != (req.Body == nil || req.Body == http.NoBody) {
		return errors.New("cluster: shard transport sends only bodies of known length")
	}
	// url.Parse refuses control characters, so the URL's host needs no check.
	host := req.Host
	if host == "" {
		host = req.URL.Host
	}
	for k, vs := range req.Header {
		bad := strings.ContainsAny(k, "\r\n")
		for _, v := range vs {
			bad = bad || strings.ContainsAny(v, "\r\n")
		}
		if bad {
			return fmt.Errorf("cluster: header %q holds CR or LF", k)
		}
	}
	w.WriteString(req.Method)
	w.WriteByte(' ')
	w.WriteString(req.URL.RequestURI())
	w.WriteString(" HTTP/1.1\r\nHost: ")
	w.WriteString(host)
	w.WriteString("\r\n")
	for k, vs := range req.Header {
		for _, v := range vs {
			w.WriteString(k)
			w.WriteString(": ")
			w.WriteString(v)
			w.WriteString("\r\n")
		}
	}
	// Request.Write's rule: an empty body still gets a length on the methods
	// servers expect one for.
	if n > 0 || req.Method == http.MethodPost || req.Method == http.MethodPut || req.Method == http.MethodPatch {
		w.WriteString("Content-Length: ")
		w.Write(strconv.AppendInt(w.AvailableBuffer(), n, 10))
		w.WriteString("\r\n")
	}
	w.WriteString("\r\n")
	if n == 0 {
		return nil
	}
	// The write errors above are sticky in w: Copy or the caller's Flush
	// reports them.
	m, err := io.Copy(w, req.Body)
	if err == nil && m != n {
		err = fmt.Errorf("cluster: request body is %d bytes, Content-Length is %d", m, n)
	}
	return err
}

// pooledBody hands the connection back when the response body has been
// read to EOF, and closes it when the caller gives up earlier, the server
// asked for Connection: close, or the context ended mid-body.
type pooledBody struct {
	io.ReadCloser
	t    *syncTransport
	c    *syncConn // nil once released
	addr string
	stop func() bool
	keep bool
}

func (b *pooledBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil && b.c != nil {
		// stop reports false once the cancellation callback has started: the
		// connection's deadline is then already (or about to be) poisoned.
		c := b.c
		b.c = nil
		if b.stop() && err == io.EOF && b.keep {
			b.t.park(b.addr, c)
		} else {
			c.Close()
		}
	}
	return n, err
}

func (b *pooledBody) Close() error {
	if b.c == nil {
		return b.ReadCloser.Close()
	}
	// Abandoned mid-body: the inner Close would read the rest of the
	// response to make the connection reusable; dropping it is cheaper.
	b.stop()
	b.c.Close()
	b.c = nil
	return nil
}
