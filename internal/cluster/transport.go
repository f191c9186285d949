package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"karl/internal/server"
)

// memberHop is the client side of NewHTTPShard: HTTP/1.1 to one member over
// a pool of persistent connections, each driven entirely from the goroutine
// that makes the call. A call appends its request line, fields and body to
// one pooled buffer and sends it with one write; the reply's head is read by
// server.ReplyReader, the listener's own head reader, and its body into a
// pooled buffer. There is no http.Request, http.Client or http.ReadResponse
// on the way: on a coordinator whose calls are a few hundred microseconds
// long their allocations and hand-offs cost more than the member's handler.
//
// Cancellation maps onto the connection: when the call's context ends
// mid-call the connection's deadline is moved into the past, the blocked
// read or write fails, and the connection is closed — one that stopped
// half-way through a reply is never reused. Plain http only and no proxies:
// members are addressed directly.
type memberHop struct {
	addr   string // host:port to dial
	host   string // the Host field
	prefix string // the base URL's path, in front of every route
	err    error  // a base URL the hop cannot speak to, reported by every call

	mu   sync.Mutex
	idle []*hopConn // most recently used last
}

const (
	// maxIdleConns bounds the connections parked per member; a burst beyond
	// it dials and closes.
	maxIdleConns = 64
	// maxIdleAge retires a parked connection before karl-serve's own idle
	// timeout (-idle-timeout, 2 minutes by default) closes it under us.
	maxIdleAge = 90 * time.Second
	// errorBody caps the bytes read of a reply that is not a 200.
	errorBody = 1 << 20
)

type hopConn struct {
	net.Conn
	br      *bufio.Reader
	replies *server.ReplyReader
	parked  time.Time
}

func newMemberHop(baseURL string) *memberHop {
	u, err := url.Parse(baseURL)
	switch {
	case err != nil:
		return &memberHop{err: err}
	case u.Scheme != "http":
		return &memberHop{err: fmt.Errorf("member hop speaks plain http, not %q", u.Scheme)}
	case u.Host == "" || u.User != nil || u.RawQuery != "" || u.Fragment != "":
		return &memberHop{err: fmt.Errorf("member hop needs a base URL of scheme, host and path, not %q", baseURL)}
	}
	h := &memberHop{addr: u.Host, host: u.Host, prefix: u.EscapedPath()}
	if u.Port() == "" {
		h.addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return h
}

// hopRequest is one call's request: msg holds the head and, unless it is
// large, the body behind it; a large body is sent after msg from where the
// caller holds it. read marks a call without side effects, which may be
// sent a second time.
type hopRequest struct {
	msg, body []byte
	read      bool
}

// largeBody is the size past which a body is not copied behind its head.
const largeBody = 64 << 10

// appendRequest appends the request for method and route to buf — the
// request line, Host, and for a body its Content-Type and Content-Length,
// then the body itself unless it is large — and returns buf grown, and the
// request within it.
func (h *memberHop) appendRequest(buf []byte, method, route, ctype string, body []byte, hasBody bool) ([]byte, hopRequest) {
	start := len(buf)
	buf = append(buf, method...)
	buf = append(buf, ' ')
	buf = append(buf, h.prefix...)
	buf = append(buf, route...)
	buf = append(buf, " HTTP/1.1\r\nHost: "...)
	buf = append(buf, h.host...)
	if hasBody {
		buf = append(buf, "\r\nContent-Type: "...)
		buf = append(buf, ctype...)
		buf = append(buf, "\r\nContent-Length: "...)
		buf = strconv.AppendInt(buf, int64(len(body)), 10)
	}
	buf = append(buf, "\r\n\r\n"...)
	if len(body) <= largeBody {
		buf = append(buf, body...)
		return buf, hopRequest{msg: buf[start:], read: replayable(method, route)}
	}
	return buf, hopRequest{msg: buf[start:], body: body, read: replayable(method, route)}
}

// replayable reports whether a request may be sent a second time: GETs and
// the member's two read-only POST routes have no side effects. Inserts,
// deletes, splits and promotions never qualify.
func replayable(method, route string) bool {
	return method == http.MethodGet || method == http.MethodPost && (route == "/v1/bounds" || route == "/v1/aggregate")
}

// do sends r and reads the reply: its status, and into *reply its body —
// whole for a 200, up to errorBody bytes for anything else. A read that
// fails on a parked connection before any byte of a reply arrives is sent
// once more on a fresh connection.
func (h *memberHop) do(ctx context.Context, r hopRequest, reply *[]byte) (int, error) {
	if h.err != nil {
		return 0, h.err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	c, reused, err := h.acquire(ctx)
	if err != nil {
		return 0, err
	}
	status, started, err := h.exchange(ctx, c, r, reply)
	if err != nil && reused && !started && ctx.Err() == nil && r.read {
		// The member closed the connection while it sat in the pool and no
		// byte of a reply arrived: the request was not answered, and a read
		// is safe to send once more on a connection known to be fresh.
		if c, err = h.dial(ctx); err != nil {
			return 0, err
		}
		status, _, err = h.exchange(ctx, c, r, reply)
	}
	return status, err
}

// acquire pops the most recently parked live connection, or dials.
func (h *memberHop) acquire(ctx context.Context) (c *hopConn, reused bool, err error) {
	h.mu.Lock()
	for c == nil && len(h.idle) > 0 {
		c, h.idle = h.idle[len(h.idle)-1], h.idle[:len(h.idle)-1]
		if time.Since(c.parked) > maxIdleAge {
			c.Close()
			c = nil
		}
	}
	h.mu.Unlock()
	if c != nil {
		return c, true, nil
	}
	c, err = h.dial(ctx)
	return c, false, err
}

func (h *memberHop) dial(ctx context.Context) (*hopConn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", h.addr)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(nc)
	return &hopConn{Conn: nc, br: br, replies: server.NewReplyReader(br)}, nil
}

// park returns a connection whose reply has been read to its end to the
// pool.
func (h *memberHop) park(c *hopConn) {
	c.parked = time.Now()
	h.mu.Lock()
	if len(h.idle) < maxIdleConns {
		h.idle = append(h.idle, c)
		c = nil
	}
	h.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// exchange runs one request and reply on c, and then parks c or closes it.
// started reports whether any byte of a reply arrived — the line between
// "never answered" and "answered, then failed". c is parked only after a
// reply read whole, with no Connection: close and no cancel.
func (h *memberHop) exchange(ctx context.Context, c *hopConn, r hopRequest, reply *[]byte) (status int, started bool, err error) {
	// The only goroutine the hop ever starts is the one context runs this
	// function on, and only when ctx ends before stop is called.
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) })
	keep := false
	defer func() {
		// stop reports false once the cancellation callback has started:
		// the connection's deadline is then already (or about to be)
		// poisoned.
		if stop() && keep {
			h.park(c)
		} else {
			c.Close()
		}
		if err != nil && ctx.Err() != nil {
			err = ctx.Err() // the deadline we set, not the i/o error it produced
		}
	}()

	if err = r.write(c.Conn); err != nil {
		return 0, false, err
	}
	if _, err = c.br.Peek(1); err != nil {
		if errors.Is(err, io.EOF) {
			err = fmt.Errorf("%s closed the connection before answering: %w", h.addr, io.ErrUnexpectedEOF)
		}
		return 0, false, err
	}
	rep, err := c.replies.Read()
	if err != nil {
		return 0, true, err
	}
	whole, err := readReply(rep.Status, rep.ContentLength, rep.Body, reply)
	// A member sends no 1xx: the hop asks for none. One is handed back as
	// the reply, and its connection, on which a final reply may yet
	// arrive, is dropped, as is one holding bytes past the reply.
	keep = whole && !rep.Close && rep.Status >= 200 && c.br.Buffered() == 0
	return rep.Status, true, err
}

// write sends the request: one write, two for a large body.
func (r hopRequest) write(w io.Writer) error {
	if _, err := w.Write(r.msg); err != nil || len(r.body) == 0 {
		return err
	}
	_, err := w.Write(r.body)
	return err
}

// readReply reads a reply's body into *buf. A 200 is read whole, into a
// buffer sized once by its declared length n (up to sizedReply); any other
// status up to errorBody bytes. whole reports that the body was read to its
// end, which a body cut at errorBody is not.
func readReply(status int, n int64, body io.Reader, buf *[]byte) (whole bool, err error) {
	limit := int64(errorBody)
	if status == http.StatusOK {
		limit = -1
	}
	b := (*buf)[:0]
	if n > 0 && n <= sizedReply && (limit < 0 || n <= limit) && int64(cap(b)) < n {
		b = make([]byte, 0, n)
	}
	defer func() { *buf = b }()
	for {
		if limit >= 0 && int64(len(b)) == limit {
			return false, nil
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		room := b[len(b):cap(b)]
		if limit >= 0 {
			room = room[:min(int64(len(room)), limit-int64(len(b)))]
		}
		m, err := body.Read(room)
		b = b[:len(b)+m]
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
}

// hopBuffers holds the request and reply buffers of calls in flight.
var hopBuffers = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledHop is the largest buffer that goes back to hopBuffers; one that
// grew past it for a bulk insert or a split is dropped.
const maxPooledHop = 64 << 10

func getHopBuffer() *[]byte { return hopBuffers.Get().(*[]byte) }

func putHopBuffer(b *[]byte) {
	if cap(*b) > maxPooledHop {
		*b = nil
	}
	*b = (*b)[:0]
	hopBuffers.Put(b)
}
