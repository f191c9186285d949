package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one client connection: a single TCP connection driven
// synchronously by whichever goroutine calls do, with the bytes that cross
// it counted at the socket. (Not net/http's Transport: its read and write
// loops are goroutines of their own, and their hand-offs across the
// harness's two Ps were a large and erratic share of a 0.2 ms round trip.)
type conn struct {
	host string // host:port
	mu   sync.Mutex
	nc   net.Conn
	br   *bufio.Reader
	sent atomic.Int64
	recv atomic.Int64
}

func newConn(base string) *conn {
	return &conn{host: strings.TrimPrefix(base, "http://")}
}

func (c *conn) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drop()
}

func (c *conn) drop() {
	if c.nc != nil {
		c.nc.Close()
		c.nc, c.br = nil, nil
	}
}

func (c *conn) Read(p []byte) (int, error) {
	n, err := c.nc.Read(p)
	c.recv.Add(int64(n))
	return n, err
}

// reply is every field any front door answers with.
type reply struct {
	Over    *bool     `json:"over"`
	Value   *float64  `json:"value"`
	Values  []float64 `json:"values"`
	IDs     []uint64  `json:"ids"`
	Partial bool      `json:"partial"`
	Covered *float64  `json:"covered"`
	Error   string    `json:"error"`
}

// do sends one request and reads the whole body; the returned duration is
// send → body read. rid, when non-zero, rides along for the traced pass.
func (c *conn) do(method, path string, body []byte, rid int64) (status int, raw []byte, d time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	req := make([]byte, 0, 256+len(body))
	req = append(req, method+" "+path+" HTTP/1.1\r\nHost: "+c.host+"\r\n"...)
	if body != nil {
		req = append(req, "Content-Type: application/json\r\nContent-Length: "+strconv.Itoa(len(body))+"\r\n"...)
	}
	if rid != 0 {
		req = append(req, ridHeader+": "+strconv.FormatInt(rid, 10)+"\r\n"...)
	}
	req = append(append(req, "\r\n"...), body...)

	t0 := time.Now()
	if c.nc == nil {
		if c.nc, err = net.DialTimeout("tcp", c.host, 5*time.Second); err != nil {
			c.nc = nil
			return 0, nil, time.Since(t0), err
		}
		c.br = bufio.NewReader(c)
	}
	// No resend on a broken connection: a write may have been applied.
	// (No connection here idles near the servers' two-minute idle timeout.)
	if status, raw, err = c.roundTrip(req); err != nil {
		c.drop()
	}
	return status, raw, time.Since(t0), err
}

func (c *conn) roundTrip(req []byte) (int, []byte, error) {
	if err := c.nc.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	n, err := c.nc.Write(req)
	c.sent.Add(int64(n))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.Close {
		c.drop()
	}
	return resp.StatusCode, raw, nil
}

// ridHeader carries the client-minted request id in the traced pass.
const ridHeader = "X-Bench-Request-Id"

// call is do plus decoding, for writes, set-up and polling traffic.
func (c *conn) call(method, path string, body []byte, dst any, rid int64) error {
	status, raw, _, err := c.do(method, path, body, rid)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, status, bytes.TrimSpace(raw))
	}
	if dst == nil {
		return nil
	}
	return json.Unmarshal(raw, dst)
}

// parse decodes a query reply and applies the shape checks every answer
// must pass whatever its value: 2xx, well-formed, the field its class
// promises, finite numbers.
func parse(class opClass, status int, raw []byte, want int) (reply, error) {
	var r reply
	if status/100 != 2 {
		return r, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("bad JSON: %v", err)
	}
	switch class {
	case opTKAQ:
		if r.Over == nil {
			return r, fmt.Errorf("no \"over\" in %s", bytes.TrimSpace(raw))
		}
	case opEKAQ:
		if r.Value == nil || math.IsNaN(*r.Value) || math.IsInf(*r.Value, 0) {
			return r, fmt.Errorf("no finite \"value\" in %s", bytes.TrimSpace(raw))
		}
	case opBatch:
		if len(r.Values) != want {
			return r, fmt.Errorf("batch of %d answered %d values", want, len(r.Values))
		}
	}
	return r, nil
}
