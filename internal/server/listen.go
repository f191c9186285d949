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
	"net"
	"net/http"
	"net/textproto"
	"runtime"
	"slices"
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
// on one goroutine, one request at a time: the listener reads the request
// head itself, as http.ReadRequest would, the handler runs on that
// goroutine against a ResponseWriter that buffers the reply, and the reply
// goes out whole with its Content-Length. Nothing runs beside the handler,
// so a client that hangs up mid-request is noticed at the connection's next
// read or write; r.Context() is never cancelled.
//
// A connection's request state is reused for its next request: a handler
// must not keep r, r.Header or r.Body after it returns.
//
// When ctx ends Serve stops accepting, closes idle connections at once and
// every other one after its reply. It returns nil once all are closed, or
// an error after to.Drain, having closed the rest.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, to Timeouts) error {
	l := &listener{h: h, to: to, conns: map[net.Conn]bool{}}
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
		c, err := ln.Accept()
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
	conns   map[net.Conn]bool // the open connections: true while one waits for a request
	wg      sync.WaitGroup
}

// setIdle records whether c waits for a request, the only time shutdown
// closes it, and reports false once shutdown has begun.
func (l *listener) setIdle(c net.Conn, idle bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.conns[c] = idle
	return !l.closing.Load()
}

// after is the deadline d from t, none when d is 0.
func after(t time.Time, d time.Duration) time.Time {
	if d == 0 {
		return time.Time{}
	}
	return t.Add(d)
}

func (l *listener) serve(c net.Conn) {
	defer func() {
		c.Close()
		l.mu.Lock()
		delete(l.conns, c)
		l.mu.Unlock()
		l.wg.Done()
	}()
	head, idle := cmp.Or(l.to.ReadHeader, l.to.Read), cmp.Or(l.to.Idle, l.to.Read)
	br, bw := bufio.NewReader(c), bufio.NewWriter(c)
	hr, w := newHeadReader(br), &response{header: http.Header{}}
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
		req, err := hr.read()
		if err == nil && req.ProtoAtLeast(1, 1) && req.Host == "" {
			err = badHead("no Host")
		}
		if err != nil {
			var ne net.Error
			switch {
			case err == errHeadTooLarge:
				reject(c, bw, http.StatusRequestHeaderFieldsTooLarge)
			case err == io.EOF || errors.As(err, &ne):
			default:
				reject(c, bw, http.StatusBadRequest)
			}
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
		// A 413 closes: the body past the bound is never read.
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
func linger(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok && tc.CloseWrite() == nil {
		time.Sleep(500 * time.Millisecond)
	}
}

// reject answers a request that never reaches the handler, and closes.
func reject(c net.Conn, bw *bufio.Writer, status int) {
	fmt.Fprintf(bw, "HTTP/1.1 %d %s\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n%[1]d %[2]s", status, http.StatusText(status))
	if bw.Flush() == nil {
		linger(c)
	}
}

// writeFields writes a reply's header fields as http.Header.Write does. A
// reply with one field whose values need no cleaning, as every handler here
// sends, skips its sort.
func writeFields(bw *bufio.Writer, h http.Header) {
	if len(h) == 1 {
		for k, vv := range h {
			if k == "" || !isToken(k) || slices.ContainsFunc(vv, unclean) {
				break
			}
			for _, v := range vv {
				bw.WriteString(k)
				bw.WriteString(": ")
				bw.WriteString(v)
				bw.WriteString("\r\n")
			}
			return
		}
	}
	h.Write(bw)
}

// unclean reports whether http.Header.Write would change v: it turns line
// breaks into spaces and trims white space.
func unclean(v string) bool {
	return strings.ContainsAny(v, "\r\n") || v != textproto.TrimString(v)
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
	// date is the Date field's value, formatted at second sec.
	date []byte
	sec  int64
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
	if now := time.Now(); now.Unix() != w.sec {
		w.date, w.sec = now.UTC().AppendFormat(w.date[:0], http.TimeFormat), now.Unix()
	}
	bw.WriteString("\r\nDate: ")
	bw.Write(w.date)
	withBody := w.status >= 200 && w.status != http.StatusNoContent && w.status != http.StatusNotModified
	if withBody {
		bw.WriteString("\r\nContent-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(w.body.Len()), 10))
	}
	if bw.WriteString("\r\n"); !keep && len(w.header["Connection"]) == 0 {
		bw.WriteString("Connection: close\r\n")
	}
	writeFields(bw, w.header)
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
