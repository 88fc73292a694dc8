package main

import (
	"bufio"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share req; set-up spans have req -1. Times are nanoseconds since
// the tracer started.
type span struct {
	name       string
	start, end int64
	parent     int32 // index of the enclosing span, -1 for a root
	req        int32
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes call the same code.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	reqSpan []int32 // request id -> its transport.http span, -1 if none
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// reserve makes room for n more spans and for transport.http spans of
// request ids below reqs. A pass calls it before its measured windows, so
// recording a span there never grows a slice and the pass's heap figures
// hold none of the tracer's own allocations.
func (t *tracer) reserve(n, reqs int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = slices.Grow(t.spans, n)
	for len(t.reqSpan) < reqs {
		t.reqSpan = append(t.reqSpan, -1)
	}
}

func (t *tracer) begin(name string, parent, req int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: now, end: now, parent: parent, req: req})
	if name == "transport.http" && req >= 0 {
		for int(req) >= len(t.reqSpan) {
			t.reqSpan = append(t.reqSpan, -1)
		}
		t.reqSpan[req] = id
	}
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// httpSpan returns the open transport.http span of a request, the parent
// of the server span the traced handler records for it.
func (t *tracer) httpSpan(req int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if req < 0 || int(req) >= len(t.reqSpan) {
		return -1
	}
	return t.reqSpan[req]
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func (t *tracer) selfTimes() []int64 {
	kids := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return t.spans[cs[a]].start < t.spans[cs[b]].start })
		covered, reach := int64(0), s.start
		for _, c := range cs {
			lo, hi := max(t.spans[c].start, reach), min(t.spans[c].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// write stores the spans as JSON lines, one object per span with its id,
// name, start and end (ns since the tracer started), parent, request id and
// self time.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := t.selfTimes()
	var line []byte
	for i, s := range t.spans {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, s.name)
		for _, kv := range [...]struct {
			key string
			v   int64
		}{{"start_ns", s.start}, {"end_ns", s.end}, {"parent", int64(s.parent)}, {"req", int64(s.req)}, {"self_ns", self[i]}} {
			line = append(line, `,"`...)
			line = append(line, kv.key...)
			line = append(line, `":`...)
			line = strconv.AppendInt(line, kv.v, 10)
		}
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reqIDHeader carries a traced request's id to the traced handler.
const reqIDHeader = "X-Perfbench-Req"

// tracedHandler records a server.handler span around the served handler,
// nested in the client's transport.http span of the same request.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	v, err := strconv.Atoi(r.Header.Get(reqIDHeader))
	if err != nil { // an untraced warm-up request
		h.next.ServeHTTP(w, r)
		return
	}
	req := int32(v)
	sp := h.tr.begin("server.handler", h.tr.httpSpan(req), req)
	h.next.ServeHTTP(w, r)
	h.tr.end(sp)
}

// recorder is a reusable in-process ResponseWriter: after its first use it
// allocates nothing, so a pass's allocations are the handler's own.
type recorder struct {
	header http.Header
	code   int
	body   []byte
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	r.body = append(r.body, b...)
	return len(b), nil
}

func (r *recorder) reset() {
	r.code = 0
	r.body = r.body[:0]
}
