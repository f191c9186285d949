package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"

	"karl/internal/blockio"
)

// The rows body: a bulk insert as a block stream of one rows block
// (internal/blockio), the floats bit for bit under the block's checksum.
// POST /v1/insert takes it under RowsContentType, decoded into the
// InsertRequest a JSON body would give and refused with a JSON body's
// statuses; the coordinator's member hop sends nothing else.

// RowsContentType is the Content-Type of a rows body.
const RowsContentType = "application/octet-stream"

// rowsBlock moves the rows block of req: the row width (an encoder takes
// the first row's), the points row-major, and the weights, none for unit
// weights.
func rowsBlock(c *blockio.Codec, req *InsertRequest) error {
	var dims int
	if !c.Decoding() && len(req.Points) > 0 {
		dims = len(req.Points[0])
	}
	c.Begin(blockio.TagRows)
	blockio.Int(c, &dims)
	blockio.Rows(c, dims, &req.Points)
	blockio.Slice(c, &req.Weights)
	return c.End()
}

// AppendRows appends the rows body of points and weights (nil: unit) to b,
// growing b once. Rows of different lengths fail it.
func AppendRows(b []byte, points [][]float64, weights []float64) ([]byte, error) {
	floats := len(weights)
	if len(points) > 0 {
		floats += len(points) * len(points[0])
	}
	// 64 bytes hold the stream header, the tag, three counts and two checksums.
	buf := bytes.NewBuffer(slices.Grow(b, 8*floats+64))
	c := blockio.NewEncoder(buf)
	rowsBlock(c, &InsertRequest{Points: points, Weights: weights})
	_, err := c.Finish()
	return buf.Bytes(), err
}

// isRows reports whether a request's Content-Type names a rows body.
func isRows(h http.Header) bool {
	ct, _, _ := strings.Cut(h.Get("Content-Type"), ";")
	return strings.EqualFold(strings.TrimSpace(ct), RowsContentType)
}

// readRows decodes a rows body into req. Besides what the stream checks
// itself, it refuses what no JSON body can carry: bytes after the end
// block, and a coordinate or weight that is not finite — here, before a
// coordinator routes part of the batch.
func readRows(body []byte, req *InsertRequest) error {
	c := blockio.NewDecoder(bytes.NewReader(body))
	rowsBlock(c, req)
	if _, err := c.Finish(); err != nil {
		return fmt.Errorf("bad request: %v", err)
	}
	if c.Unread() > 0 {
		return errors.New("bad request: unexpected data after the rows stream")
	}
	for i, p := range req.Points {
		for j, v := range p {
			if v-v != 0 {
				return fmt.Errorf("points[%d][%d] must be finite, got %v", i, j, v)
			}
		}
	}
	for i, w := range req.Weights {
		if w-w != 0 {
			return fmt.Errorf("weights[%d] must be finite, got %v", i, w)
		}
	}
	return nil
}
