package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strconv"
)

// The wire codec: a one-pass reader and an append-based writer for the hot
// request and reply shapes, used by the front door and, from the other side,
// by the coordinator's shard hop.
//
// The reader accepts and decides nothing else. It takes only a body that
// means the same under encoding/json with DisallowUnknownFields: one object
// of known lower-case keys, each at most once and without escapes, numbers
// of the strict JSON grammar that strconv parses without error, and nothing
// but whitespace after the closing brace. It declines every other body —
// null, an unknown or repeated key, "Q", 1e999, trailing bytes — and the
// caller replays the same bytes through encoding/json, which stays the one
// place a refusal gets its status and its words (decodeJSON).
//
// The writer's bytes are those of encoding/json: a float in strconv's
// shortest 'f' form, or 'e' form below 1e-6 and from 1e21 with a two-digit
// exponent's leading zero dropped. It does not check finiteness; the
// handlers do, before the status line.

// wireField ties a JSON key to the struct field it is read into and written
// from: a *float64, **float64, *int, *uint64, *bool, *string, or a pointer
// to a slice ([]float64, [][]float64, []uint64, []bool, []string).
type wireField struct {
	key       string
	ptr       any
	omitempty bool
}

// wireFields is the codec's whole schema: the fields of every type it reads
// or writes, in json.Marshal's order; n is 0 for any other type.
func wireFields(v any) (f [6]wireField, n int) {
	switch v := v.(type) {
	case *QueryRequest:
		return [6]wireField{{"q", &v.Q, false}, {"tau", &v.Tau, false}, {"eps", &v.Eps, false},
			{"eps_norm", &v.EpsNorm, false}, {"threshold", &v.Threshold, true}}, 5
	case *BatchRequest:
		return [6]wireField{{"kind", &v.Kind, false}, {"queries", &v.Queries, false}, {"tau", &v.Tau, false},
			{"eps", &v.Eps, false}, {"eps_norm", &v.EpsNorm, false}, {"workers", &v.Workers, false}}, 6
	case *InsertRequest:
		return [6]wireField{{"p", &v.P, true}, {"w", &v.W, true}, {"points", &v.Points, true}, {"weights", &v.Weights, true}}, 4
	case *DeleteRequest:
		return [6]wireField{{"id", &v.ID, true}, {"ids", &v.IDs, true}}, 2
	case *ValueResponse:
		return [6]wireField{{"value", &v.Value, false}}, 1
	case *BoolResponse:
		return [6]wireField{{"over", &v.Over, false}}, 1
	case *BoundsResponse:
		return [6]wireField{{"value", &v.Value, false}, {"lb", &v.LB, false}, {"ub", &v.UB, false}}, 3
	case *CoveredValueResponse:
		return [6]wireField{{"value", &v.Value, false}, {"lb", &v.LB, false}, {"ub", &v.UB, false},
			{"partial", &v.Partial, true}, {"covered", &v.Covered, false}, {"failed", &v.Failed, true}}, 6
	case *CoveredBoolResponse:
		return [6]wireField{{"over", &v.Over, false},
			{"partial", &v.Partial, true}, {"covered", &v.Covered, false}, {"failed", &v.Failed, true}}, 4
	case *BatchResponse:
		return [6]wireField{{"values", &v.Values, true}, {"over", &v.Over, true}}, 2
	}
	return f, 0
}

// wireReader is a cursor over one body.
type wireReader struct {
	b []byte
	i int
	// nums backs every vector the body holds, so a matrix is one array.
	// Vectors are handed out capped; should one outgrow nums, the later ones
	// move to a new array and the earlier ones stay valid where they are.
	nums []float64
}

// room bounds how many elements b can hold — one a mark (a number but the
// first follows a comma, a row opens with '['), one in width bytes (`1,`,
// `[],`) — so a slice of them is allocated once, and a body of nothing but
// marks cannot claim more than a body of elements would.
func room(b []byte, mark byte, width int) int {
	return min(bytes.Count(b, []byte{mark})+1, len(b)/width+1)
}

func (r *wireReader) ws() {
	for r.i < len(r.b) && (r.b[r.i] == ' ' || r.b[r.i] == '\n' || r.b[r.i] == '\t' || r.b[r.i] == '\r') {
		r.i++
	}
}

// next consumes the next byte after whitespace; 0 at the end of the body.
func (r *wireReader) next() byte {
	r.ws()
	if r.i == len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

// token consumes an integer, -?(0|[1-9][0-9]*), and returns its bytes for
// the strconv function encoding/json uses for the field's type (no integer
// is the empty token, which none takes; -1 for an id it refuses). What
// follows one is the caller's to check: that declines 01, 1.5 and 1e2.
func (r *wireReader) token() []byte {
	r.ws()
	b, start := r.b, r.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i++; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	default:
		return nil
	}
	r.i = i
	return b[start:i]
}

// number consumes one number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns what ParseFloat
// makes of its bytes, in the pass that checks them: gather takes up to 19
// significant digits and eiselLemire converts them; what that cannot decide
// goes to ParseFloat. ok is false where there is no number, the cursor
// unmoved, or ParseFloat errs (1e999). What follows one is the caller's to
// check, which is how 01, 1_0 and 0x1p-2 are declined.
func (r *wireReader) number() (float64, bool) {
	r.ws()
	b, start := r.b, r.i
	i := start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64
	exp10, left, exact := 0, 0, true
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, man, exp10, exact = gather(b, i, 0, true)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		frac := i + 1
		if i, man, left, exact = gather(b, frac, man, exact); i == frac {
			return 0, false
		}
		exp10 -= i - frac - left
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		sign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				sign = -1
			}
			i++
		}
		e, digits := 0, i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 { // capped where strconv caps it, so the two agree on any exponent
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == digits {
			return 0, false
		}
		exp10 += sign * e
	}
	r.i = i
	if f, ok := eiselLemire(man, exp10, neg); ok && exact {
		return f, true
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, err == nil
}

// str consumes a string of printable ASCII without escapes and returns its
// contents.
func (r *wireReader) str() ([]byte, bool) {
	if r.next() != '"' {
		return nil, false
	}
	for start := r.i; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			return r.b[start : r.i-1], true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// seq reads an array or an object, `open element, element ... close`,
// calling element at the start of each.
func (r *wireReader) seq(open, closing byte, element func() bool) bool {
	if r.next() != open {
		return false
	}
	if r.ws(); r.i < len(r.b) && r.b[r.i] == closing {
		r.i++
		return true
	}
	for {
		if !element() {
			return false
		}
		if c := r.next(); c == closing {
			return true
		} else if c != ',' {
			return false
		}
	}
}

// vector reads an array of numbers onto nums; an empty one is empty, not
// nil, as encoding/json has it.
func (r *wireReader) vector() ([]float64, bool) {
	if r.nums == nil {
		r.nums = make([]float64, 0, room(r.b, ',', 2))
	}
	start := len(r.nums)
	ok := r.seq('[', ']', func() bool {
		v, ok := r.number()
		r.nums = append(r.nums, v)
		return ok
	})
	return r.nums[start:len(r.nums):len(r.nums)], ok
}

// value reads the value of one field.
func (r *wireReader) value(ptr any) (ok bool) {
	var err error
	switch p := ptr.(type) {
	case *float64:
		*p, ok = r.number()
		return ok
	case **float64:
		v, ok := r.number()
		if ok {
			*p = &v
		}
		return ok
	case *int:
		var v int64
		v, err = strconv.ParseInt(string(r.token()), 10, strconv.IntSize)
		*p = int(v)
	case *uint64:
		*p, err = strconv.ParseUint(string(r.token()), 10, 64)
	case *string:
		var s []byte
		s, ok = r.str()
		*p = string(s)
		return ok
	case *[]float64:
		*p, ok = r.vector()
		return ok
	case *[][]float64:
		*p = make([][]float64, 0, room(r.b[r.i:], '[', 3))
		return r.seq('[', ']', func() bool {
			row, ok := r.vector()
			*p = append(*p, row)
			return ok
		})
	case *[]uint64:
		*p = make([]uint64, 0, room(r.b, ',', 2))
		return r.seq('[', ']', func() bool {
			id, err := strconv.ParseUint(string(r.token()), 10, 64)
			*p = append(*p, id)
			return err == nil
		})
	default:
		return false
	}
	return err == nil
}

// ReadJSON reads body into dst, one of the types of wireFields, when the
// body is one the reader takes. Otherwise it reports false with dst zero,
// and the caller falls back on encoding/json. Nothing in dst points into
// body.
func ReadJSON(body []byte, dst any) bool {
	fields, n := wireFields(dst)
	if n == 0 {
		return false
	}
	r := wireReader{b: body}
	var seen uint
	ok := r.seq('{', '}', func() bool {
		key, ok := r.str()
		if !ok || r.next() != ':' {
			return false
		}
		for i, f := range fields[:n] {
			if f.key == string(key) {
				first := seen&(1<<i) == 0
				seen |= 1 << i
				return first && r.value(f.ptr)
			}
		}
		return false
	})
	if r.ws(); ok && r.i == len(r.b) {
		return true
	}
	reflect.ValueOf(dst).Elem().SetZero()
	return false
}

// appendFloat appends f as encoding/json prints a float64.
func appendFloat(b []byte, f float64) []byte {
	if f != 0 && (f < 1e-6 && f > -1e-6 || f >= 1e21 || f <= -1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1] // e-09 is written e-9
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// appendList appends a JSON array of n elements, null for a nil slice.
func appendList(b []byte, n int, isNil bool, element func(b []byte, i int) []byte) []byte {
	if isNil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = element(b, i)
	}
	return append(b, ']')
}

func appendVector(b []byte, v []float64) []byte {
	b = slices.Grow(b, 25*len(v)+2) // a shortest float64 is at most 24 bytes
	return appendList(b, len(v), v == nil, func(b []byte, i int) []byte { return appendFloat(b, v[i]) })
}

// AppendJSON appends v, a pointer to one of the types of wireFields, as
// json.Marshal writes it; it reports false for any other v.
func AppendJSON(b []byte, v any) ([]byte, bool) {
	fields, n := wireFields(v)
	if n == 0 {
		return b, false
	}
	b = append(b, '{')
	for _, f := range fields[:n] {
		mark := len(b)
		if b[mark-1] != '{' {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), f.key...), '"', ':')
		var empty bool
		switch p := f.ptr.(type) {
		case *float64:
			b = appendFloat(b, *p)
		case **float64:
			if empty = *p == nil; empty {
				b = append(b, "null"...)
			} else {
				b = appendFloat(b, **p)
			}
		case *int:
			b = strconv.AppendInt(b, int64(*p), 10)
		case *uint64:
			empty = *p == 0
			b = strconv.AppendUint(b, *p, 10)
		case *bool:
			empty = !*p
			b = strconv.AppendBool(b, *p)
		case *[]float64:
			empty = len(*p) == 0
			b = appendVector(b, *p)
		case *[][]float64:
			empty = len(*p) == 0
			b = appendList(b, len(*p), *p == nil, func(b []byte, i int) []byte { return appendVector(b, (*p)[i]) })
		case *[]uint64:
			empty = len(*p) == 0
			b = appendList(b, len(*p), *p == nil, func(b []byte, i int) []byte { return strconv.AppendUint(b, (*p)[i], 10) })
		case *[]bool:
			empty = len(*p) == 0
			b = appendList(b, len(*p), *p == nil, func(b []byte, i int) []byte { return strconv.AppendBool(b, (*p)[i]) })
		case *[]string:
			// Member names reach the wire in degraded answers only and can
			// hold anything: they keep encoding/json's escaper.
			empty = len(*p) == 0
			names, _ := json.Marshal(*p) // strings cannot fail
			b = append(b, names...)
		case *string:
			s, _ := json.Marshal(*p)
			b = append(b, s...)
		}
		if empty && f.omitempty {
			b = b[:mark]
		}
	}
	return append(b, '}'), true
}
