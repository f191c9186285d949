package server

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httputil"
	"strconv"
)

// ReplyReader reads the replies on one client connection as
// http.ReadResponse reads replies to requests that are not HEAD, with the
// request head reader's line and field reading: its bound, its refusals and
// its reuse of the previous head's strings. Its state lives as long as the
// connection.
type ReplyReader struct {
	h     headReader
	reply Reply
}

// Reply is one reply head and its framed body. It and everything it holds
// are valid until the next Read.
type Reply struct {
	Status int
	// ContentLength is the body's length: the declared one, 0 when the
	// status allows no body, -1 for a chunked body or one that runs to the
	// connection's close.
	ContentLength int64
	// Close reports that the connection carries nothing after this reply:
	// the server said so, the reply is HTTP/1.0 without keep-alive, or its
	// body runs to the close.
	Close bool
	// Body reads the body by its framing and ends with io.EOF once it is
	// whole.
	Body io.Reader
}

// NewReplyReader reads replies from br.
func NewReplyReader(br *bufio.Reader) *ReplyReader {
	return &ReplyReader{h: headReader{br: br, header: http.Header{}}}
}

// Read reads the next reply head and readies its body. The error is
// io.ErrUnexpectedEOF when the input ends before or inside the head,
// errHeadTooLarge past maxHeadBytes, a badHead for a head
// http.ReadResponse refuses, else what reading failed with.
func (r *ReplyReader) Read() (*Reply, error) {
	h := &r.h
	h.begin()
	line, err := h.line()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	proto, status, ok := bytes.Cut(line, []byte(" "))
	if !ok {
		return nil, badHead("status line")
	}
	code, _, _ := bytes.Cut(bytes.TrimLeft(status, " "), []byte(" "))
	n, err := strconv.Atoi(string(code))
	if len(code) != 3 || err != nil || n < 0 {
		return nil, badHead("status code")
	}
	major, minor, ok := http.ParseHTTPVersion(string(proto))
	if !ok {
		return nil, badHead("version")
	}
	if err := h.readFields(); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	rep := &r.reply
	*rep = Reply{Status: n, Close: closes(major, minor, h.header), Body: http.NoBody}
	return rep, h.frame(rep, major, minor)
}

// frame applies a reply's framing fields as net/http's readTransfer does
// for a reply to a request that is not HEAD, and readies rep.Body.
func (h *headReader) frame(rep *Reply, major, minor int) error {
	hd := h.header
	chunked, err := isChunked(major, minor, hd)
	if err != nil {
		return err
	}
	n, err := contentLength(hd)
	if err != nil {
		return err
	}
	if chunked {
		delete(hd, "Content-Length")
		if err := checkTrailer(hd); err != nil {
			return err
		}
	}
	bodied := rep.Status/100 != 1 && rep.Status != http.StatusNoContent && rep.Status != http.StatusNotModified
	switch {
	case !bodied:
		return nil
	case chunked:
		rep.ContentLength = -1
		h.body = framedBody{br: h.br, chunks: httputil.NewChunkedReader(h.br)}
	case n == 0:
		return nil
	case n > 0:
		rep.ContentLength = n
		h.body = framedBody{br: h.br, left: n}
	default:
		rep.ContentLength, rep.Close = -1, true
		h.body = framedBody{br: h.br, left: -1}
	}
	rep.Body = &h.body
	return nil
}
