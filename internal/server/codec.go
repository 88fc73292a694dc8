package server

// codec.go — the JSON codec of the bulk request path. A strict byte
// scanner decodes the canonical /v1/batch body and the id form of the
// /v1/matrix body straight into pooled slices; append encoders write the
// hot responses (query, batch, matrix, path) into a pooled buffer, and
// format floats themselves (appendFloat, ftoa.go) with output identical to
// json.Marshal's. Neither side replaces encoding/json: the scanner declines
// every body it does not fully accept, and that exact body then goes
// through the reference decode (decodeJSON), which also produces every
// error message. An encoder declines any value whose bytes could differ
// from json.Marshal's (a non-finite float, a string needing escapes, a
// matrix with per-cell errors), and writeJSON marshals it instead. The
// input picks the path; there is no switch.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"

	"seoracle/internal/core"
)

// maxPooledBytes bounds the capacity a pooled buffer may keep: a buffer
// grown past it by one giant request is dropped instead of pinning that
// memory for the life of the process.
const maxPooledBytes = 1 << 20

// slicePool recycles request-scoped slices. Nothing the query cache may
// hold goes through it: cached values are shared across requests.
type slicePool[T any] struct {
	p        sync.Pool
	elemSize int // bytes per element, for the maxPooledBytes cap
}

func (sp *slicePool[T]) get() *[]T {
	if s, ok := sp.p.Get().(*[]T); ok {
		return s
	}
	return new([]T)
}

func (sp *slicePool[T]) put(s *[]T) {
	if cap(*s)*sp.elemSize > maxPooledBytes {
		return
	}
	*s = (*s)[:0]
	sp.p.Put(s)
}

var (
	respBufs = slicePool[byte]{elemSize: 1}     // encoded response bodies
	pairBufs = slicePool[[2]int32]{elemSize: 8} // scanned /v1/batch pairs
	distBufs = slicePool[float64]{elemSize: 8}  // /v1/batch and id /v1/matrix distances
	idBufs   = slicePool[int32]{elemSize: 4}    // scanned /v1/matrix sources and targets
	bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

func putBody(b *bytes.Buffer) {
	if b.Cap() > maxPooledBytes {
		return
	}
	b.Reset()
	bodyBufs.Put(b)
}

// readBody reads a whole request body into a pooled buffer, returning it
// (release it with putBody) or the error status it already wrote. A body
// over the configured cap fails with a counted 413 (folded into
// oversize_rejections with the other size caps) instead of a shapeless 400.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, int) {
	maxBody := s.opt.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	if n := r.ContentLength; n > 0 && n <= maxBody {
		buf.Grow(int(n) + bytes.MinRead) // one read to EOF, no regrowth
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		putBody(buf)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.oversizeRejections.Add(1)
			return nil, s.writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", mbe.Limit)
		}
		return nil, s.writeError(w, http.StatusBadRequest, "bad JSON body: %v", err)
	}
	return buf, 0
}

// decodeJSON is the reference decode: encoding/json over the exact body
// bytes, holding the body to one JSON value (trailing non-whitespace is a
// 400, not a silently dropped second request). It returns 0 on success or
// the error status it already wrote.
func (s *Server) decodeJSON(w http.ResponseWriter, body []byte, dst any) int {
	dec := json.NewDecoder(bytes.NewReader(body))
	err := dec.Decode(dst)
	if err == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		// Decode stops after the first value; Unmarshal validates the
		// whole body and names the first trailing byte.
		err = json.Unmarshal(body, new(json.RawMessage))
	}
	if err != nil {
		return s.writeError(w, http.StatusBadRequest, "bad JSON body: %v", err)
	}
	return 0
}

// --- scanner ----------------------------------------------------------------

// scanner is a cursor over one request body. Its methods consume one token
// (after optional JSON whitespace) and report whether it was there.
type scanner struct {
	b []byte
	i int
}

//sealint:hotpath
func (sc *scanner) skipSpace() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

//sealint:hotpath
func (sc *scanner) punct(c byte) bool {
	sc.skipSpace()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// key consumes the member name lit (quotes included) and its colon, or
// nothing.
//
//sealint:hotpath
func (sc *scanner) key(lit string) bool {
	sc.skipSpace()
	if len(sc.b)-sc.i < len(lit) {
		return false
	}
	for j := 0; j < len(lit); j++ {
		if sc.b[sc.i+j] != lit[j] {
			return false
		}
	}
	at := sc.i
	sc.i += len(lit)
	if sc.punct(':') {
		return true
	}
	sc.i = at // leave the cursor for the next candidate key
	return false
}

// int32 consumes an integer in JSON's canonical form (no leading zeros,
// fraction or exponent) within int32 range.
//
//sealint:hotpath
func (sc *scanner) int32() (int32, bool) {
	sc.skipSpace()
	i := sc.i
	neg := i < len(sc.b) && sc.b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for i < len(sc.b) && sc.b[i] >= '0' && sc.b[i] <= '9' {
		if i-start == 10 {
			return 0, false // beyond int32 whatever the digits
		}
		n = n*10 + int64(sc.b[i]-'0')
		i++
	}
	if i == start || (sc.b[start] == '0' && i-start > 1) {
		return 0, false
	}
	if neg {
		n = -n
	}
	if n < math.MinInt32 || n > math.MaxInt32 {
		return 0, false
	}
	sc.i = i
	return int32(n), true
}

// plainString consumes a string of printable ASCII without escapes and
// returns its contents, which alias the body.
//
//sealint:hotpath
func (sc *scanner) plainString() ([]byte, bool) {
	if !sc.punct('"') {
		return nil, false
	}
	for j := sc.i; j < len(sc.b); j++ {
		switch c := sc.b[j]; {
		case c == '"':
			s := sc.b[sc.i:j]
			sc.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// ids consumes an array of int32s, appending them to dst; it declines past
// MaxMatrixCells elements.
//
//sealint:hotpath
func (sc *scanner) ids(dst []int32) ([]int32, bool) {
	if !sc.punct('[') {
		return dst, false
	}
	if sc.punct(']') {
		return dst, true
	}
	for len(dst) < MaxMatrixCells {
		v, ok := sc.int32()
		if !ok {
			return dst, false
		}
		//sealint:ignore amortized growth of a pooled slice that keeps its capacity across requests
		dst = append(dst, v)
		if sc.punct(']') {
			return dst, true
		}
		if !sc.punct(',') {
			return dst, false
		}
	}
	return dst, false
}

// pairs consumes an array of [s,t] int32 pairs, appending them to dst; it
// declines past MaxBatchPairs pairs.
//
//sealint:hotpath
func (sc *scanner) pairs(dst [][2]int32) ([][2]int32, bool) {
	if !sc.punct('[') {
		return dst, false
	}
	if sc.punct(']') {
		return dst, true
	}
	for len(dst) < MaxBatchPairs {
		if !sc.punct('[') {
			return dst, false
		}
		a, ok := sc.int32()
		if !ok || !sc.punct(',') {
			return dst, false
		}
		b, ok := sc.int32()
		if !ok || !sc.punct(']') {
			return dst, false
		}
		//sealint:ignore amortized growth of a pooled slice that keeps its capacity across requests
		dst = append(dst, [2]int32{a, b})
		if sc.punct(']') {
			return dst, true
		}
		if !sc.punct(',') {
			return dst, false
		}
	}
	return dst, false
}

// end reports whether only whitespace is left.
//
//sealint:hotpath
func (sc *scanner) end() bool {
	sc.skipSpace()
	return sc.i == len(sc.b)
}

// batchScan is a /v1/batch body as scanBatch decodes it.
type batchScan struct {
	Pairs [][2]int32
	Index []byte // aliases the body
}

// scanBatch decodes the canonical /v1/batch body: one object with a
// "pairs" array of [s,t] pairs and an optional plain "index", each at most
// once, and nothing after it. Pairs append to req.Pairs. It returns false
// for any other body, including one with more than MaxBatchPairs pairs, so
// that the reference decode answers it.
//
//sealint:hotpath
func scanBatch(body []byte, req *batchScan) bool {
	sc := scanner{b: body}
	if !sc.punct('{') {
		return false
	}
	if sc.punct('}') {
		return sc.end()
	}
	var havePairs, haveIndex bool
	for {
		ok := false
		switch {
		case !havePairs && sc.key(`"pairs"`):
			havePairs = true
			req.Pairs, ok = sc.pairs(req.Pairs)
		case !haveIndex && sc.key(`"index"`):
			haveIndex = true
			req.Index, ok = sc.plainString()
		}
		if !ok {
			return false
		}
		if sc.punct('}') {
			return sc.end()
		}
		if !sc.punct(',') {
			return false
		}
	}
}

// matrixScan is the id form of a /v1/matrix body as scanMatrix decodes it.
type matrixScan struct {
	Sources, Targets []int32
	Index            []byte // aliases the body
}

// scanMatrix decodes the id form of a /v1/matrix body: one object with
// optional "sources", "targets" and plain "index" members, each at most
// once, and nothing after it. Ids append to req.Sources and req.Targets.
// It returns false for any other body — coordinate matrices included, and
// any id list longer than MaxMatrixCells — so that the reference decode
// answers it.
//
//sealint:hotpath
func scanMatrix(body []byte, req *matrixScan) bool {
	sc := scanner{b: body}
	if !sc.punct('{') {
		return false
	}
	if sc.punct('}') {
		return sc.end()
	}
	var haveSources, haveTargets, haveIndex bool
	for {
		ok := false
		switch {
		case !haveSources && sc.key(`"sources"`):
			haveSources = true
			req.Sources, ok = sc.ids(req.Sources)
		case !haveTargets && sc.key(`"targets"`):
			haveTargets = true
			req.Targets, ok = sc.ids(req.Targets)
		case !haveIndex && sc.key(`"index"`):
			haveIndex = true
			req.Index, ok = sc.plainString()
		}
		if !ok {
			return false
		}
		if sc.punct('}') {
			return sc.end()
		}
		if !sc.punct(',') {
			return false
		}
	}
}

// --- encoders ---------------------------------------------------------------

// appendResponse appends the JSON encoding of v and a newline to b — the
// bytes json.Marshal plus "\n" would produce — when v is one of the hot
// response types. ok is false when it is not, or when the encoding could
// differ from json.Marshal's; writeJSON then marshals v itself.
//
//sealint:hotpath
func appendResponse(b []byte, v any) ([]byte, bool) {
	switch v := v.(type) {
	case queryResponse:
		return appendQuery(b, v)
	case batchResponse:
		return appendBatch(b, v)
	case matrixResponse:
		return appendMatrix(b, v)
	case pathResponse:
		return appendPath(b, v)
	}
	return b, false
}

//sealint:hotpath
func appendQuery(b []byte, v queryResponse) ([]byte, bool) {
	b = appendRaw(b, `{"distance":`)
	b, ok := appendFloat(b, v.Distance)
	if !ok {
		return b, false
	}
	if b, ok = appendKind(b, v.Kind); !ok {
		return b, false
	}
	if b, ok = appendIndex(b, v.Index); !ok {
		return b, false
	}
	return appendRaw(b, "}\n"), true
}

//sealint:hotpath
func appendBatch(b []byte, v batchResponse) ([]byte, bool) {
	b = appendRaw(b, `{"distances":`)
	b, ok := appendFloats(b, v.Distances)
	if !ok {
		return b, false
	}
	b = appendRaw(b, `,"count":`)
	b = strconv.AppendInt(b, int64(v.Count), 10)
	if b, ok = appendIndex(b, v.Index); !ok {
		return b, false
	}
	return appendRaw(b, "}\n"), true
}

//sealint:hotpath
func appendMatrix(b []byte, v matrixResponse) ([]byte, bool) {
	if len(v.Errors) > 0 {
		return b, false
	}
	b = appendRaw(b, `{"distances":`)
	b, ok := appendFloats(b, v.Distances)
	if !ok {
		return b, false
	}
	b = appendRaw(b, `,"rows":`)
	b = strconv.AppendInt(b, int64(v.Rows), 10)
	b = appendRaw(b, `,"cols":`)
	b = strconv.AppendInt(b, int64(v.Cols), 10)
	if b, ok = appendKind(b, v.Kind); !ok {
		return b, false
	}
	if b, ok = appendIndex(b, v.Index); !ok {
		return b, false
	}
	return appendRaw(b, "}\n"), true
}

//sealint:hotpath
func appendPath(b []byte, v pathResponse) ([]byte, bool) {
	b = appendRaw(b, `{"type":`)
	b, ok := appendPlain(b, v.Type)
	if !ok {
		return b, false
	}
	b = appendRaw(b, `,"geometry":{"type":`)
	if b, ok = appendPlain(b, v.Geometry.Type); !ok {
		return b, false
	}
	b = appendRaw(b, `,"coordinates":`)
	if v.Geometry.Coordinates == nil {
		b = appendRaw(b, "null")
	} else {
		b = appendRaw(b, "[")
		for i, c := range v.Geometry.Coordinates {
			if i > 0 {
				b = appendRaw(b, ",")
			}
			if b, ok = appendFloats(b, c[:]); !ok {
				return b, false
			}
		}
		b = appendRaw(b, "]")
	}
	b = appendRaw(b, `},"properties":{"distance":`)
	if b, ok = appendFloat(b, v.Properties.Distance); !ok {
		return b, false
	}
	b = appendRaw(b, `,"vertices":`)
	b = strconv.AppendInt(b, int64(v.Properties.Vertices), 10)
	if b, ok = appendKind(b, v.Properties.Kind); !ok {
		return b, false
	}
	if b, ok = appendIndex(b, v.Properties.Index); !ok {
		return b, false
	}
	return appendRaw(b, "}}\n"), true
}

// appendRaw appends s, a string or a byte slice, to b.
//
//sealint:hotpath
func appendRaw[S string | []byte](b []byte, s S) []byte {
	//sealint:ignore amortized growth of a pooled buffer that keeps its capacity across requests
	return append(b, s...)
}

// appendFloats encodes fs as a JSON array, nil as null.
//
//sealint:hotpath
func appendFloats(b []byte, fs []float64) ([]byte, bool) {
	if fs == nil {
		return appendRaw(b, "null"), true
	}
	b = appendRaw(b, "[")
	for i, f := range fs {
		if i > 0 {
			b = appendRaw(b, ",")
		}
		var ok bool
		if b, ok = appendFloat(b, f); !ok {
			return b, false
		}
	}
	return appendRaw(b, "]"), true
}

// appendPlain encodes s as a JSON string when no byte of it needs an
// escape under encoding/json's HTML-safe rules (printable ASCII other than
// `"`, `\`, `<`, `>` and `&`); any other string declines.
//
//sealint:hotpath
func appendPlain(b []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return b, false
		}
	}
	b = appendRaw(b, `"`)
	b = appendRaw(b, s)
	return appendRaw(b, `"`), true
}

// appendKind encodes the "kind" member as core.Kind's MarshalJSON does.
//
//sealint:hotpath
func appendKind(b []byte, k core.Kind) ([]byte, bool) {
	return appendPlain(appendRaw(b, `,"kind":`), k.String())
}

// appendIndex encodes the omitempty "index" member.
//
//sealint:hotpath
func appendIndex(b []byte, name string) ([]byte, bool) {
	if name == "" {
		return b, true
	}
	return appendPlain(appendRaw(b, `,"index":`), name)
}
