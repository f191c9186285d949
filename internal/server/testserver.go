package server

import (
	"context"
	"log"
	"net"
	"net/http"
	"time"
)

// TestServer is a handler served by Serve on a loopback port, for tests in
// any package that would otherwise use httptest.Server: each then runs the
// listener karl serve runs.
type TestServer struct {
	URL  string // http://127.0.0.1:port
	stop context.CancelFunc
	done chan struct{}
}

// NewTestServer serves h until Close; like httptest.NewServer it panics
// when no loopback port can be had.
func NewTestServer(h http.Handler) *TestServer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &TestServer{URL: "http://" + ln.Addr().String(), stop: stop, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if err := Serve(ctx, ln, h, Timeouts{Drain: 5 * time.Second}); err != nil {
			log.Printf("test server %s: %v", s.URL, err)
		}
	}()
	return s
}

// Close shuts the server down as a signal shuts karl serve down and returns
// once it is; a second Close does nothing more.
func (s *TestServer) Close() {
	s.stop()
	<-s.done
}
