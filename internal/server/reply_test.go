package server

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

// replySeeds are reply streams FuzzReplyHead starts from, one of each
// framing and each refusal the reply reader shares with http.ReadResponse.
var replySeeds = []string{
	// Serve's own reply, and a second pipelined behind it.
	"HTTP/1.1 200 OK\r\nDate: Mon, 02 Jan 2006 15:04:05 GMT\r\nContent-Length: 11\r\nContent-Type: application/json\r\n\r\n{\"value\":1}" +
		"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
	// Chunked, with a trailer, then a sized reply.
	"HTTP/1.1 200 OK\r\nTrailer: X-Sum\r\nTransfer-Encoding: chunked\r\n\r\n3\r\none\r\n0\r\nX-Sum: 3\r\n\r\n" +
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi",
	// A chunked reply cut inside a chunk, and a forbidden trailer name.
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n9\r\none",
	"HTTP/1.1 200 OK\r\nTrailer: Content-Length\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
	// Read to the close: no length on HTTP/1.1, and HTTP/1.0.
	"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\neverything up to the close",
	"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nhi",
	"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nhiHTTP/1.0 204 No Content\r\n\r\n",
	// 204 and 304 carry no body whatever their fields say.
	"HTTP/1.1 204 No Content\r\nContent-Length: 5\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 304 Not Modified\r\nTransfer-Encoding: chunked\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nx",
	// Duplicate Content-Length fields that agree, and ones that differ.
	"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nContent-Length:  4 \r\n\r\nbody",
	"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nbody!",
	"HTTP/1.1 200 OK\r\nContent-Length: +4\r\n\r\nbody",
	// Content-Length beside Transfer-Encoding, and an encoding not chunked.
	"HTTP/1.1 200 OK\r\nContent-Length: 9\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
	// An obs-folded field, and a fold where the first field belongs.
	"HTTP/1.1 200 OK\r\nX-Folded: one\r\n  two\r\n\tthree \r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200 OK\r\n X-Folded: one\r\nContent-Length: 0\r\n\r\n",
	// 1xx replies, each a head of its own, before the final one.
	"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
	// Malformed status lines.
	"HTTP/1.1 2000 OK\r\n\r\n",
	"HTTP/1.1 -12 Odd\r\n\r\n",
	"HTTP/1.1\r\n\r\n",
	"HTTP/9 200 OK\r\n\r\n",
	"HTTP/1.1 200 OK\r\nX(bad): 1\r\n\r\n",
	// A head cut short.
	"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
	// A 10 KB field, longer than the reader's buffer.
	"HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("v", 10<<10) + "\r\nContent-Length: 0\r\n\r\n",
	// An oversize head, past maxHeadBytes.
	"HTTP/1.1 200 OK\r\n" + strings.Repeat("X-Many: "+strings.Repeat("v", 1000)+"\r\n", maxHeadBytes/1000+2) + "\r\n",
}

// FuzzReplyHead holds the reply reader to http.ReadResponse over up to two
// pipelined replies: both accept or both refuse each, and an accepted one
// reads the same status, length, Close and body bytes, and leaves the same
// bytes for the next.
//
// Deliberate divergences:
//   - a head past maxHeadBytes is refused, where http.ReadResponse has no
//     bound of its own;
//   - header fields are not compared: net/http drops a Connection: close
//     and adds Cache-Control for a Pragma, which the hop never reads;
//   - errors are compared only as accepted or refused, not by their words.
func FuzzReplyHead(f *testing.F) {
	for _, s := range replySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		wantIn, gotIn := bytes.NewReader(in), bytes.NewReader(in)
		wantBR, gotBR := bufio.NewReader(wantIn), bufio.NewReader(gotIn)
		rr := NewReplyReader(gotBR)
		for i := 0; i < 2; i++ {
			want, wantErr := http.ReadResponse(wantBR, nil)
			got, gotErr := rr.Read()
			if gotErr == errHeadTooLarge {
				return
			}
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("reply %d: ReadResponse %v, reply reader %v", i, wantErr, gotErr)
			}
			if wantErr != nil {
				return
			}
			if want.StatusCode != got.Status || want.ContentLength != got.ContentLength || want.Close != got.Close {
				t.Fatalf("reply %d: status %d, length %d, close %v; want %d, %d, %v",
					i, got.Status, got.ContentLength, got.Close, want.StatusCode, want.ContentLength, want.Close)
			}
			wantBody, wantErr := io.ReadAll(want.Body)
			gotBody, gotErr := io.ReadAll(got.Body)
			if !bytes.Equal(wantBody, gotBody) || (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("reply %d: body %q, %v; want %q, %v", i, gotBody, gotErr, wantBody, wantErr)
			}
			if wantErr != nil {
				return
			}
			if w, g := wantBR.Buffered()+wantIn.Len(), gotBR.Buffered()+gotIn.Len(); w != g {
				t.Fatalf("reply %d: %d bytes left after it, want %d", i, g, w)
			}
		}
	})
}

// TestReplyReaderRefusesOversizeHead: a reply head past maxHeadBytes is
// refused, where http.ReadResponse would read on.
func TestReplyReaderRefusesOversizeHead(t *testing.T) {
	in := replySeeds[len(replySeeds)-1]
	if _, err := NewReplyReader(bufio.NewReader(strings.NewReader(in))).Read(); err != errHeadTooLarge {
		t.Fatalf("a %d-byte head read as %v, want errHeadTooLarge", len(in), err)
	}
}
