package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httputil"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
)

// maxHeadBytes bounds a request head: net/http's bound and its slack.
const maxHeadBytes = http.DefaultMaxHeaderBytes + 4096

var (
	// errHeadTooLarge is a head longer than maxHeadBytes; Serve answers 431.
	errHeadTooLarge = errors.New("request head too large")
	// errTrailerEOF is a chunked body cut inside its trailer.
	errTrailerEOF = errors.New("http: unexpected EOF reading trailer")
)

// badHead is a malformed head; Serve answers a request's 400.
type badHead string

func (e badHead) Error() string { return "malformed HTTP head: " + string(e) }

// headReader reads the requests of one connection as http.ReadRequest
// would, into state that lives as long as the connection: one Request, URL,
// Header map and body, reset for each request. A common header name is
// canonical without allocating, and a string equal to the previous
// request's (method, URI, a field's name or value) is that string again, so
// a keep-alive request whose head repeats the last one's allocates nothing
// here but what changed.
type headReader struct {
	br     *bufio.Reader
	req    http.Request
	url    url.URL
	header http.Header
	body   framedBody
	// fields are this request's header fields in order, prev the previous
	// request's; vals backs the Header's value slices.
	fields, prev []field
	vals         []string
	long         []byte // a line longer than br's buffer
	n            int    // bytes of the head read so far
}

type field struct{ key, value string }

func newHeadReader(br *bufio.Reader) *headReader {
	return &headReader{br: br, header: http.Header{}}
}

// read reads the next request head and readies its body. The request and
// everything it holds are valid until the next call. The error is io.EOF
// when the input ends before the head's first byte, errHeadTooLarge past
// maxHeadBytes, a badHead for a head http.ReadRequest refuses, else what
// reading failed with (io.ErrUnexpectedEOF for an input cut inside a head).
func (h *headReader) read() (*http.Request, error) {
	h.begin()
	line, err := h.line()
	if err != nil {
		return nil, err
	}
	r, prev := &h.req, h.req
	*r = http.Request{URL: &h.url, Header: h.header, Body: http.NoBody}
	method, rest, ok1 := bytes.Cut(line, []byte(" "))
	uri, proto, ok2 := bytes.Cut(rest, []byte(" "))
	switch {
	case !ok1 || !ok2:
		return nil, badHead("request line")
	case len(method) == 0 || !isToken(method):
		return nil, badHead("method")
	}
	r.Method, r.Proto = same(method, prev.Method), same(proto, prev.Proto)
	if r.ProtoMajor, r.ProtoMinor, ok1 = http.ParseHTTPVersion(r.Proto); !ok1 {
		return nil, badHead("version")
	}
	r.RequestURI = same(uri, prev.RequestURI)
	if err := h.parseURL(r); err != nil {
		return nil, err
	}
	if err := h.readFields(); err != nil {
		return nil, err
	}
	return r, h.transfer(r)
}

// begin readies h for the next head.
func (h *headReader) begin() {
	h.n = 0
	h.prev, h.fields = h.fields, h.prev[:0]
	if cap(h.long) > 64<<10 || cap(h.vals) > 256 || cap(h.prev) > 256 {
		// An outsized head does not stay with the connection.
		h.long, h.vals, h.prev, h.fields = nil, nil, nil, nil
	}
}

// parseURL parses r.RequestURI into h.url as http.ReadRequest does: a plain
// absolute path in place, anything else with url.ParseRequestURI.
func (h *headReader) parseURL(r *http.Request) error {
	if uri := r.RequestURI; plainPath(uri) {
		h.url = url.URL{Path: uri}
		return nil
	}
	raw := r.RequestURI
	authority := r.Method == "CONNECT" && !strings.HasPrefix(raw, "/")
	if authority {
		raw = "http://" + raw
	}
	u, err := url.ParseRequestURI(raw)
	if err != nil {
		return badHead("URI")
	}
	if h.url = *u; authority {
		h.url.Scheme = ""
	}
	return nil
}

// plainPath reports whether url.ParseRequestURI would take uri whole as the
// path, with no RawPath: an absolute path of bytes that need no escaping.
func plainPath(uri string) bool {
	if len(uri) == 0 || uri[0] != '/' {
		return false
	}
	for i := 1; i < len(uri); i++ {
		switch c := uri[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case strings.IndexByte("-_.~$&+,/:;=@", c) >= 0:
		default:
			return false
		}
	}
	return true
}

// readFields reads the header fields up to the blank line into h.header,
// as textproto.Reader.ReadMIMEHeader does, folded lines included.
func (h *headReader) readFields() error {
	clear(h.header)
	h.vals = h.vals[:0]
	if b, err := h.br.Peek(1); err == nil && (b[0] == ' ' || b[0] == '\t') {
		return badHead("leading space")
	}
	for {
		line, err := h.line()
		if err != nil {
			return err
		}
		if len(line) == 0 {
			return nil
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return badHead("field without a colon")
		}
		key, ok := h.key(k)
		if !ok {
			return badHead("field name")
		}
		if v = trimOWS(v); !validValue(v) {
			return badHead("field value")
		}
		value := h.prevValue(key, v)
		// obs-fold: a line that starts with a space or tab continues this
		// one, joined to it by one space.
		for {
			if b, err := h.br.Peek(1); err != nil || b[0] != ' ' && b[0] != '\t' {
				break
			}
			more, err := h.line()
			if err != nil {
				return err
			}
			if more = trimOWS(more); !validValue(more) {
				return badHead("field value")
			}
			value = strings.TrimLeft(value+" "+string(more), " \t")
		}
		h.fields = append(h.fields, field{key, value})
		h.add(key, value)
	}
}

// add appends value to the field key, whose values share h.vals while
// they are contiguous.
func (h *headReader) add(key, value string) {
	vv := h.header[key]
	if vv == nil {
		if len(h.vals) == cap(h.vals) {
			h.vals = make([]string, 0, max(8, 2*cap(h.vals))) // earlier slices keep the old array
		}
		h.vals = append(h.vals, value)
		h.header[key] = h.vals[len(h.vals)-1 : len(h.vals) : len(h.vals)]
		return
	}
	h.header[key] = append(vv, value)
}

// key canonicalizes a field name in place as textproto does, and returns
// it as a string: one the previous request used or a common name's, else a
// new one. A name with a space is kept as it came; ok is false for an
// empty name or one with a byte outside the token set.
func (h *headReader) key(k []byte) (string, bool) {
	for _, f := range h.prev {
		if f.key == string(k) {
			return f.key, true
		}
	}
	if len(k) == 0 {
		return "", false
	}
	canon := true
	for _, c := range k {
		if c == ' ' {
			canon = false
		} else if !isTokenByte(c) {
			return "", false
		}
	}
	if canon {
		upper := true
		for i, c := range k {
			if upper && 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			} else if !upper && 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			k[i], upper = c, c == '-'
		}
		if s, ok := commonKeys[string(k)]; ok {
			return s, true
		}
	}
	return string(k), true
}

// prevValue is v as a string: the previous request's value of the same
// field when they are equal.
func (h *headReader) prevValue(key string, v []byte) string {
	for _, f := range h.prev {
		if f.key == key && f.value == string(v) {
			return f.value
		}
	}
	return string(v)
}

// same is b as a string, prev itself when they are equal.
func same(b []byte, prev string) string {
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// line reads the next line of the head without its line end. It is valid
// until the next read from br.
func (h *headReader) line() ([]byte, error) {
	line, err := h.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		h.long = append(h.long[:0], line...)
		for err == bufio.ErrBufferFull && h.n+len(h.long) <= maxHeadBytes {
			line, err = h.br.ReadSlice('\n')
			h.long = append(h.long, line...)
		}
		line = h.long
	}
	h.n += len(line)
	switch {
	case h.n > maxHeadBytes:
		return nil, errHeadTooLarge
	case err == io.EOF && len(line) == 0 && h.n > 0:
		return nil, io.ErrUnexpectedEOF
	case err != nil && len(line) == 0:
		return nil, err
	case err != nil:
		// A line cut by an error is a line, as bufio.Reader.ReadLine has
		// it, and the error comes again at the next read: a head cut by a
		// deadline is answered 400 as net/http answers it.
		return line, nil
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// transfer applies the head's framing fields to r as net/http's
// readTransfer does, and readies r.Body.
func (h *headReader) transfer(r *http.Request) error {
	hd := r.Header
	if len(hd["Host"]) > 1 {
		return badHead("too many Host fields")
	}
	if r.Host = r.URL.Host; r.Host == "" {
		if v := hd["Host"]; len(v) > 0 {
			r.Host = v[0]
		}
	}
	if p := hd["Pragma"]; len(p) > 0 && p[0] == "no-cache" && hd["Cache-Control"] == nil {
		hd["Cache-Control"] = []string{"no-cache"}
	}
	r.Close = closes(r.ProtoMajor, r.ProtoMinor, hd)

	chunked, err := isChunked(r.ProtoMajor, r.ProtoMinor, hd)
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
		r.TransferEncoding, r.ContentLength = chunkedEncoding, -1
		h.body = framedBody{br: h.br, chunks: httputil.NewChunkedReader(h.br)}
		r.Body = &h.body
	} else if r.ContentLength = max(n, 0); n > 0 {
		h.body = framedBody{br: h.br, left: n}
		r.Body = &h.body
	}
	if r.Method == "PRI" && len(hd) == 0 && r.URL.Path == "*" && r.Proto == "HTTP/2.0" {
		r.ContentLength, r.Close = -1, true // net/http's h2c preface
	}
	delete(hd, "Host") // r.Host has it
	return nil
}

var chunkedEncoding = []string{"chunked"}

// closes reports whether a message of this version and these fields ends
// its connection, as net/http's shouldClose has it.
func closes(major, minor int, hd http.Header) bool {
	conn := hd["Connection"]
	switch {
	case major < 1:
		return true
	case major == 1 && minor == 0:
		return hasToken(conn, "close") || !hasToken(conn, "keep-alive")
	default:
		return hasToken(conn, "close")
	}
}

// isChunked removes the Transfer-Encoding field and reports whether it
// names the chunked encoding, as net/http's parseTransferEncoding does: it
// refuses any other encoding, and HTTP/1.0 ignores the field (net/http reads
// a version of 0.0 as 1.1).
func isChunked(major, minor int, hd http.Header) (bool, error) {
	te, ok := hd["Transfer-Encoding"]
	if !ok {
		return false, nil
	}
	delete(hd, "Transfer-Encoding")
	if major == 1 && minor == 0 || major == 0 && minor > 0 {
		return false, nil
	}
	if len(te) != 1 || !asciiEqualFold(te[0], "chunked") {
		return false, badHead("transfer encoding")
	}
	return true, nil
}

// contentLength reads the Content-Length fields as net/http's fixLength
// does: fields that agree are folded into one, and the length is -1 when
// there is none.
func contentLength(hd http.Header) (int64, error) {
	cl := hd["Content-Length"]
	if len(cl) == 0 {
		return -1, nil
	}
	first := textproto.TrimString(cl[0])
	for _, v := range cl[1:] {
		if textproto.TrimString(v) != first {
			return 0, badHead("differing Content-Length fields")
		}
	}
	if len(cl) > 1 {
		cl[0] = first
		hd["Content-Length"] = cl[:1:1]
	}
	n, err := strconv.ParseUint(first, 10, 63)
	if err != nil {
		return 0, badHead("Content-Length")
	}
	return int64(n), nil
}

// checkTrailer removes the Trailer field of a chunked request, refusing the
// names net/http refuses there. The trailer itself is read past with the
// body and not kept.
func checkTrailer(hd http.Header) error {
	vv, ok := hd["Trailer"]
	if !ok {
		return nil
	}
	delete(hd, "Trailer")
	for _, v := range vv {
		for _, k := range strings.Split(v, ",") {
			k = textproto.TrimString(k)
			for _, bad := range []string{"Transfer-Encoding", "Trailer", "Content-Length"} {
				if asciiEqualFold(k, bad) {
					return badHead("trailer field " + k)
				}
			}
		}
	}
	return nil
}

// framedBody is a message's body: its declared length, its chunks and then
// their trailer, or everything up to the connection's close, read from the
// connection.
type framedBody struct {
	br     *bufio.Reader
	left   int64     // bytes of a sized body not yet read; -1 up to the close
	chunks io.Reader // a chunked body's reader, nil for any other
	err    error     // what ended the body: io.EOF once it is whole
}

func (b *framedBody) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	var n int
	var err error
	if b.chunks != nil {
		if n, err = b.chunks.Read(p); err == io.EOF {
			if e := readTrailer(b.br); e != nil {
				err = e
			}
		}
	} else if b.left < 0 {
		n, err = b.br.Read(p)
	} else {
		n, err = b.br.Read(p[:min(int64(len(p)), b.left)])
		if b.left -= int64(n); b.left == 0 {
			err = io.EOF
		} else if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	b.err = err
	return n, err
}

func (b *framedBody) Close() error { return nil }

// readTrailer reads past the trailer after a chunked body's last chunk, as
// net/http does: one that does not end within br's buffer is refused.
func readTrailer(br *bufio.Reader) error {
	buf, err := br.Peek(2)
	switch {
	case bytes.Equal(buf, []byte("\r\n")):
		br.Discard(2)
		return nil
	case len(buf) < 2:
		return errTrailerEOF
	case err != nil:
		return err
	}
	for size := 4; ; size++ {
		buf, err := br.Peek(size)
		if bytes.HasSuffix(buf, []byte("\r\n\r\n")) {
			break
		}
		if err != nil {
			return errors.New("http: suspiciously long trailer after chunked body")
		}
	}
	if _, err := textproto.NewReader(br).ReadMIMEHeader(); err != nil {
		if err == io.EOF {
			return errTrailerEOF
		}
		return err
	}
	return nil
}

// commonKeys interns the header names requests commonly carry.
var commonKeys = map[string]string{}

func init() {
	for _, k := range []string{
		"Accept", "Accept-Encoding", "Accept-Language", "Authorization",
		"Cache-Control", "Connection", "Content-Encoding", "Content-Length",
		"Content-Type", "Cookie", "Expect", "Host", "If-Modified-Since",
		"If-None-Match", "Origin", "Pragma", "Referer", "Te", "Trailer",
		"Transfer-Encoding", "Upgrade", "User-Agent", "X-Forwarded-For",
	} {
		commonKeys[k] = k
	}
}

// hasToken reports whether one of the comma-separated elements of values
// is token, ASCII case aside.
func hasToken(values []string, token string) bool {
	for _, v := range values {
		for len(v) > 0 {
			var elem string
			elem, v, _ = strings.Cut(v, ",")
			if asciiEqualFold(strings.Trim(elem, " \t"), token) {
				return true
			}
		}
	}
	return false
}

// asciiEqualFold is strings.EqualFold over ASCII letters only, for an
// ASCII t: a rune that folds to an ASCII letter through Unicode (the Kelvin
// sign, the long s) is longer than a byte, so s would be longer than t.
func asciiEqualFold(s, t string) bool { return len(s) == len(t) && strings.EqualFold(s, t) }

// trimOWS drops the spaces and tabs around b.
func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

func isToken[T string | []byte](b T) bool {
	for i := 0; i < len(b); i++ {
		if !isTokenByte(b[i]) {
			return false
		}
	}
	return true
}

// isTokenByte reports whether c is an RFC 7230 tchar.
func isTokenByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

// validValue reports whether every byte of a field value is one RFC 7230
// allows: visible ASCII, space, tab or obs-text.
func validValue(v []byte) bool {
	for _, c := range v {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}
