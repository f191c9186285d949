package server

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// headSeeds are the heads the TestServe tests send, and the corners of
// http.ReadRequest a head reader gets wrong most easily.
var headSeeds = []string{
	"POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\none" +
		"GET /b HTTP/1.1\r\nHost: x\r\n\r\n" +
		"POST /c HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nthree",
	"GET /a HTTP/1.0\r\n\r\n",
	"GET /a HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
	"POST /a HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n3\r\none\r\n4\r\n-two\r\n0\r\n\r\n",
	"POST /a HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\nbody",
	"HEAD /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n",
	"GET\r\n\r\n",
	"GET /a HTTP/1.1\r\n\r\n",
	"POST /v1/aggregate HTTP/1.1\r\nHost: x\r\nContent-Length: 94\r\n\r\n{\"q\":[0.5,0.5" + strings.Repeat(" ", 80) + "]}",
	"POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello" + "GET /b HTTP/1.1\r\nHost: x\r\n\r\n",
	"GET /panic HTTP/1.1\r\nHost: x\r\n\r\n",
	"POST /v1/threshold HTTP/1.1\r\nHost: 127.0.0.1:1\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"q\":[0.5]}",
	"GET /a HTTP/1.1\r\nHost: x\r\nX-Seen: 1\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n",
	// Content-Length fields that differ, and ones that agree.
	"POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nbody",
	"POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nContent-Length:  4 \r\n\r\nbody",
	// Content-Length beside Transfer-Encoding.
	"POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\n\r\n",
	// obs-fold.
	"GET /a HTTP/1.1\r\nHost: x\r\nX-Folded: one\r\n  two\r\n\tthree \r\n\r\n",
	// A field name that is not a token, and one with a space before its colon.
	"GET /a HTTP/1.1\r\nHost: x\r\nX(bad): 1\r\n\r\n",
	"GET /a HTTP/1.1\r\nHost: x\r\nX-Spaced : 1\r\n\r\n",
	// The absolute form, whose host wins over the Host field.
	"GET http://example.com/a?b=c HTTP/1.1\r\nHost: x\r\n\r\n",
	// An escaped slash.
	"GET /a%2Fb/c HTTP/1.1\r\nHost: x\r\n\r\n",
	// A 10 KB field, longer than the reader's buffer.
	"GET /a HTTP/1.1\r\nHost: x\r\nX-Long: " + strings.Repeat("v", 10<<10) + "\r\n\r\n",
	// A chunked body with a trailer, and a request pipelined after it.
	"POST /a HTTP/1.1\r\nHost: x\r\nTrailer: X-Sum\r\nTransfer-Encoding: chunked\r\n\r\n3\r\none\r\n0\r\nX-Sum: 3\r\n\r\n" +
		"GET /b HTTP/1.1\r\nHost: x\r\n\r\n",
}

// FuzzRequestHead holds the head reader to http.ReadRequest over up to
// three pipelined requests: both accept or both refuse each, and an
// accepted one reads the same method, URI, URL, Host, header fields,
// length, Close, body bytes, and leaves the same bytes for the next.
//
// Deliberate divergences:
//   - the trailer of a chunked body is read past and not kept, so
//     r.Trailer is not compared;
//   - a head past maxHeadBytes is refused (Serve answers 431), where
//     http.ReadRequest has no bound of its own;
//   - errors are compared only as accepted or refused, not by their words.
func FuzzRequestHead(f *testing.F) {
	for _, s := range headSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > maxHeadBytes {
			return
		}
		wantIn, gotIn := bytes.NewReader(in), bytes.NewReader(in)
		wantBR, gotBR := bufio.NewReader(wantIn), bufio.NewReader(gotIn)
		hr := newHeadReader(gotBR)
		for i := 0; i < 3; i++ {
			want, wantErr := http.ReadRequest(wantBR)
			got, gotErr := hr.read()
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("request %d: ReadRequest %v, head reader %v", i, wantErr, gotErr)
			}
			if wantErr != nil {
				return
			}
			type view struct {
				Method, RequestURI, Proto string
				Major, Minor              int
				Host                      string
				Header                    http.Header
				ContentLength             int64
				TransferEncoding          []string
				Close                     bool
			}
			see := func(r *http.Request) view {
				return view{r.Method, r.RequestURI, r.Proto, r.ProtoMajor, r.ProtoMinor, r.Host,
					r.Header, r.ContentLength, r.TransferEncoding, r.Close}
			}
			if w, g := see(want), see(got); !reflect.DeepEqual(w, g) {
				t.Fatalf("request %d:\n ReadRequest %+v\n head reader %+v", i, w, g)
			}
			if !reflect.DeepEqual(*want.URL, *got.URL) {
				t.Fatalf("request %d: URL %#v, want %#v", i, *got.URL, *want.URL)
			}
			wantBody, wantErr := io.ReadAll(want.Body)
			gotBody, gotErr := io.ReadAll(got.Body)
			if !bytes.Equal(wantBody, gotBody) || (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("request %d: body %q, %v; want %q, %v", i, gotBody, gotErr, wantBody, wantErr)
			}
			if wantErr != nil {
				return
			}
			if w, g := wantBR.Buffered()+wantIn.Len(), gotBR.Buffered()+gotIn.Len(); w != g {
				t.Fatalf("request %d: %d bytes left after it, want %d", i, g, w)
			}
		}
	})
}
