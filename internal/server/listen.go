package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Timeouts are Serve's deadlines, each with the meaning of the http.Server
// field of the same name (0 is none); Drain bounds the graceful shutdown.
type Timeouts struct{ Read, Write, Idle, ReadHeader, Drain time.Duration }

// Serve answers HTTP/1.1 on ln with h until ctx ends. A connection is served
// on one goroutine, one request at a time: http.ReadRequest reads the
// request, the handler runs on that goroutine against a ResponseWriter that
// buffers the reply, and the reply goes out whole with its Content-Length.
// Nothing runs beside the handler, so a client that hangs up mid-request is
// noticed at the connection's next read or write; r.Context() is never
// cancelled.
//
// When ctx ends Serve stops accepting, closes idle connections at once and
// every other one after its reply. It returns nil once all are closed, or
// an error after to.Drain, having closed the rest.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, to Timeouts) error {
	l := &listener{h: h, to: to, conns: map[*conn]bool{}}
	defer context.AfterFunc(ctx, func() {
		l.closing.Store(true)
		ln.Close()
		l.mu.Lock()
		defer l.mu.Unlock()
		for c, idle := range l.conns {
			if idle {
				c.Close()
			}
		}
	})()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if l.closing.Load() {
				break
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			log.Printf("karl serve: accept: %v", err) // out of descriptors, say: wait, as net/http does
			time.Sleep(10 * time.Millisecond)
			continue
		}
		c := &conn{Conn: nc, left: math.MaxInt64}
		l.wg.Add(1)
		if !l.setIdle(c, true) {
			c.Close()
		}
		go l.serve(c)
	}
	done := make(chan struct{})
	go func() { l.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(to.Drain):
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for c := range l.conns {
		c.Close()
	}
	return fmt.Errorf("shutdown: requests still in flight after %v", to.Drain)
}

type listener struct {
	h       http.Handler
	to      Timeouts
	closing atomic.Bool
	mu      sync.Mutex
	conns   map[*conn]bool // the open connections: true while one waits for a request
	wg      sync.WaitGroup
}

// setIdle records whether c waits for a request, the only time shutdown
// closes it, and reports false once shutdown has begun.
func (l *listener) setIdle(c *conn, idle bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.conns[c] = idle
	return !l.closing.Load()
}

// conn is one accepted connection. A request head may read left more bytes
// from it; one that reaches the bound is answered 431.
type conn struct {
	net.Conn
	left int64
}

func (c *conn) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, io.EOF
	}
	n, err := c.Conn.Read(p[:min(int64(len(p)), c.left)])
	c.left -= int64(n)
	return n, err
}

// after is the deadline d from t, none when d is 0.
func after(t time.Time, d time.Duration) time.Time {
	if d == 0 {
		return time.Time{}
	}
	return t.Add(d)
}

func (l *listener) serve(c *conn) {
	defer func() {
		c.Close()
		l.mu.Lock()
		delete(l.conns, c)
		l.mu.Unlock()
		l.wg.Done()
	}()
	head, idle := cmp.Or(l.to.ReadHeader, l.to.Read), cmp.Or(l.to.Idle, l.to.Read)
	br, bw := bufio.NewReader(c), bufio.NewWriter(c.Conn)
	w := &response{header: http.Header{}}
	remote := c.RemoteAddr().String()
	t0 := time.Now() // the first head is due from the accept
	c.SetReadDeadline(after(t0, head))
	for first := true; ; first = false {
		if br.Buffered() == 0 { // else the next request is pipelined
			if !first {
				c.SetReadDeadline(after(time.Now(), idle))
				if !l.setIdle(c, true) {
					return
				}
			}
			if _, err := br.Peek(1); err != nil || !l.setIdle(c, false) {
				return
			}
		}
		if !first {
			t0 = time.Now()
			c.SetReadDeadline(after(t0, head))
		}
		c.left = http.DefaultMaxHeaderBytes + 4096 // net/http's bound and slack
		req, err := http.ReadRequest(br)
		tooLarge := c.left <= 0
		c.left = math.MaxInt64
		var ne net.Error
		switch {
		case tooLarge:
			reject(c, bw, http.StatusRequestHeaderFieldsTooLarge)
			return
		case err == io.EOF || errors.As(err, &ne):
			return
		case err != nil || req.ProtoAtLeast(1, 1) && req.Host == "": // ReadRequest moves Host there
			reject(c, bw, http.StatusBadRequest)
			return
		}
		var cont *continueReader
		if strings.EqualFold(req.Header.Get("Expect"), "100-continue") && req.ProtoAtLeast(1, 1) && req.ContentLength != 0 {
			cont = &continueReader{ReadCloser: req.Body, bw: bw}
			req.Body = cont
		}
		c.SetReadDeadline(after(t0, l.to.Read))
		c.SetWriteDeadline(after(time.Now(), l.to.Write))
		req.RemoteAddr = remote
		if !l.run(w, req) {
			return
		}
		unread := cont != nil && !cont.sent || !drained(req.Body)
		// A 413 closes, as net/http's MaxBytesReader makes it do.
		keep := !req.Close && req.ProtoAtLeast(1, 1) && !unread && len(w.header["Connection"]) == 0 &&
			w.status != http.StatusRequestEntityTooLarge && !l.closing.Load()
		if err := w.flush(bw, req.Method == http.MethodHead, keep); err != nil || !keep {
			if unread {
				linger(c)
			}
			return
		}
	}
}

// run calls the handler and reports whether it returned. A panic is logged,
// as net/http logs it, and its connection closes without a reply.
func (l *listener) run(w *response, req *http.Request) (ok bool) {
	defer func() {
		if p := recover(); p != nil && p != http.ErrAbortHandler {
			buf := make([]byte, 64<<10)
			log.Printf("karl serve: panic serving %s: %v\n%s", req.RemoteAddr, p, buf[:runtime.Stack(buf, false)])
		}
	}()
	l.h.ServeHTTP(w, req)
	return true
}

// drained reports whether the rest of a body could be read to its end
// within net/http's cap of 256 KiB.
func drained(body io.Reader) bool {
	if _, err := body.Read(nil); err == io.EOF {
		return true
	}
	_, err := io.CopyN(io.Discard, body, 256<<10+1)
	return err == io.EOF
}

// linger half-closes a connection whose client may still be sending, and
// gives it time to read the reply: a close with input unread resets the
// connection, which can destroy the reply in flight.
func linger(c *conn) {
	if tc, ok := c.Conn.(*net.TCPConn); ok && tc.CloseWrite() == nil {
		time.Sleep(500 * time.Millisecond)
	}
}

// reject answers a request that never reaches the handler, and closes.
func reject(c *conn, bw *bufio.Writer, status int) {
	fmt.Fprintf(bw, "HTTP/1.1 %d %s\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n%[1]d %[2]s", status, http.StatusText(status))
	if bw.Flush() == nil {
		linger(c)
	}
}

// continueReader sends 100 Continue at the handler's first read of a body
// whose client waits for it.
type continueReader struct {
	io.ReadCloser
	bw   *bufio.Writer
	sent bool
}

func (r *continueReader) Read(p []byte) (int, error) {
	if !r.sent {
		r.sent = true
		r.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
		if err := r.bw.Flush(); err != nil {
			return 0, err
		}
	}
	return r.ReadCloser.Read(p)
}

// response is the ResponseWriter Serve hands a handler: it collects the
// reply for flush, and is reused for the connection's next request.
type response struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(status int) { w.status = cmp.Or(w.status, status) }

func (w *response) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// flush sends the reply, without its body for a HEAD request.
func (w *response) flush(bw *bufio.Writer, head, keep bool) error {
	w.WriteHeader(http.StatusOK)
	bw.WriteString("HTTP/1.1 ")
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(w.status), 10))
	bw.WriteByte(' ')
	bw.WriteString(http.StatusText(w.status))
	bw.WriteString("\r\nDate: ")
	bw.Write(time.Now().UTC().AppendFormat(bw.AvailableBuffer(), http.TimeFormat))
	withBody := w.status >= 200 && w.status != http.StatusNoContent && w.status != http.StatusNotModified
	if withBody {
		bw.WriteString("\r\nContent-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(w.body.Len()), 10))
	}
	if bw.WriteString("\r\n"); !keep && len(w.header["Connection"]) == 0 {
		bw.WriteString("Connection: close\r\n")
	}
	w.header.Write(bw)
	bw.WriteString("\r\n")
	if withBody && !head {
		bw.Write(w.body.Bytes())
	}
	clear(w.header)
	w.status = 0
	if w.body.Reset(); w.body.Cap() > maxPooledBuffer {
		w.body = bytes.Buffer{}
	}
	return bw.Flush()
}
