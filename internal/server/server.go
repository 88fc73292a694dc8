// Package server is the HTTP serving layer over a DistanceIndex: one
// container — either a single index (any kind: se, a2a, dynamic) or a
// sharded multi container serving many member indexes from one process —
// answering concurrent JSON queries with per-endpoint latency and QPS
// counters, per-index routing counters, and an optional bounded LRU query
// cache with single-flight miss coalescing.
//
// The cache holds only answers that cost geometry work beyond table
// probes: coordinate /v1/query and /v1/matrix, /v1/path, k-nearest and
// /v1/isochrone. Id distances (/v1/query with s, t) and id matrices are
// never cached: the index answers them with a few hash probes, which is
// cheaper than a cache lookup, so it is their cache. /v1/batch is never
// cached either.
//
// Endpoints:
//
//	GET/POST /v1/query      one distance: ids (s, t) or planar coords (sx, sy, tx, ty)
//	GET/POST /v1/path       the surface path behind a query, as a GeoJSON LineString
//	POST     /v1/batch      bulk id pairs through QueryBatch
//	GET/POST /v1/nearest    nearest indexed endpoint to planar coords (x, y); k=N for the k nearest
//	POST     /v1/matrix     many-to-many distance matrix (ids or coords, row-major)
//	GET/POST /v1/isochrone  endpoints within surface distance d of source s, as GeoJSON
//	GET      /healthz       liveness + index kind (+ member names for multi)
//	GET      /readyz        readiness: 503 while draining or degraded below quorum
//	GET      /statsz        IndexStats + per-endpoint, per-index, cache and ops counters
//	POST     /admin/reload  atomically reload the index from its source (when a loader is configured)
//
// Multi-container routing: an explicit index name (?index= or the JSON
// "index" field) always wins. Without one, every pair request goes to the
// multi root, whose route picks the owning member, a boundary-portal stitch
// or the coarse level, or fails with a structured error (a 422 naming both
// members for a straddling pair with no route); the server adds only a 503
// for a coordinate only a quarantined tile contains. Unnamed id-addressed
// requests address the global id space on a hierarchical container and are
// rejected as ambiguous on a legacy one (member ids are local). Unnamed
// /v1/nearest scans every member.
//
// Robustness: the serving path is built to stay predictable under overload
// and partial failure. A bounded in-flight limit sheds excess load with
// counted 429s before any work is queued; a per-request deadline propagates
// a context into the bulk query paths so expired work stops computing (503,
// counted); a panic in any handler is recovered to a counted 500 without
// killing the process. A server loaded in degraded mode serves the healthy
// members of a partially corrupt multi container and answers requests
// addressing a quarantined member with 503. The index behind the handlers
// is an atomically swapped epoch, so a SIGHUP / POST /admin/reload replaces
// it mid-traffic without torn reads: every request snapshots one epoch and
// the query cache is invalidated by generation.
//
// The indexes are never mutated by a request, so the handlers share them
// without locking; a DynamicOracle is served read-only.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seoracle/internal/core"
	"seoracle/internal/terrain"
)

// MaxBatchPairs bounds one /v1/batch request, so a single client cannot
// commit unbounded memory on the server.
const MaxBatchPairs = 1 << 20

// DefaultMaxBodyBytes caps a request body when Options.MaxBodyBytes is
// unset: large enough for a MaxBatchPairs batch, small enough that one
// client cannot buffer the process into the ground.
const DefaultMaxBodyBytes = 64 << 20

// Options configures a Server beyond its index.
type Options struct {
	// CacheSize bounds the LRU query cache (entries); 0 disables caching.
	// The cache holds coordinate distances and matrices, paths, k-nearest
	// lists and isochrones. Id distances, id matrices and batches are
	// answered by the index directly whatever CacheSize is.
	CacheSize int
	// MaxInFlight bounds concurrently served requests (observability and
	// admin endpoints are exempt); excess requests are shed with a counted
	// 429 + Retry-After. 0 means unlimited.
	MaxInFlight int
	// Deadline is the per-request budget; its context reaches the bulk
	// query paths, which stop computing once it expires (counted 503).
	// 0 means no deadline.
	Deadline time.Duration
	// MaxBodyBytes caps a request body; beyond it the read fails with a
	// counted 413. 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Quarantined lists the members a degraded load could not decode;
	// requests addressing them answer 503 and /readyz reports them.
	Quarantined []core.Quarantined
	// Loader, when set, re-loads the index from its source for SIGHUP /
	// POST /admin/reload hot reloads. It runs outside any request lock and
	// its result is swapped in atomically.
	Loader func() (core.DistanceIndex, []core.Quarantined, error)
}

// target is one routable index: the sole index of a single-container
// server, the root of a multi container, or one of its members.
type target struct {
	name    string // "" for the served root
	idx     core.DistanceIndex
	pt      core.PointIndex     // non-nil when the index answers arbitrary points
	nf      core.NearestFinder  // non-nil when the index can scan for nearest endpoints
	nk      core.NearestKFinder // non-nil when it answers k-nearest queries
	pi      core.PathIndex      // non-nil when the index reports id-addressed paths
	pp      core.PointPathIndex // non-nil when it reports coordinate-addressed paths
	mi      core.MatrixIndex    // non-nil when it answers row-parallel matrices
	ri      core.Reachability   // non-nil when it answers reachability queries
	kind    core.Kind           // cached at attach: Stats() can be O(index) per call
	queries atomic.Int64        // requests routed to this index
}

func newTarget(name string, idx core.DistanceIndex) *target {
	t := &target{name: name, idx: idx, kind: idx.Stats().Kind}
	if pt, ok := idx.(core.PointIndex); ok {
		t.pt = pt
	}
	if nf, ok := idx.(core.NearestFinder); ok {
		t.nf = nf
	}
	if nk, ok := idx.(core.NearestKFinder); ok {
		t.nk = nk
	}
	if pi, ok := idx.(core.PathIndex); ok {
		t.pi = pi
	}
	if pp, ok := idx.(core.PointPathIndex); ok {
		t.pp = pp
	}
	if mi, ok := idx.(core.MatrixIndex); ok {
		t.mi = mi
	}
	if ri, ok := idx.(core.Reachability); ok {
		t.ri = ri
	}
	return t
}

// epoch is one immutable generation of the served index: the routing tables
// a request resolves against, plus the quarantine list of the load that
// produced it. A hot reload builds a fresh epoch and swaps the pointer; a
// request snapshots exactly one epoch at entry and never observes a mix of
// old and new state.
type epoch struct {
	root        *target            // the served index: a single index, or the multi root
	sharded     *core.ShardedIndex // non-nil when serving a multi container
	targets     []*target          // routable indexes, manifest order
	byName      map[string]*target
	quarantined []core.Quarantined
	gen         uint64
	genPrefix   string // cache-key prefix "g<gen>|": a swap strands the old generation's entries
}

func newEpoch(idx core.DistanceIndex, quarantined []core.Quarantined, gen uint64) *epoch {
	ep := &epoch{
		root:        newTarget("", idx),
		byName:      map[string]*target{},
		quarantined: quarantined,
		gen:         gen,
		genPrefix:   "g" + strconv.FormatUint(gen, 10) + "|",
	}
	if sh, ok := idx.(*core.ShardedIndex); ok {
		ep.sharded = sh
		for _, m := range sh.Members() {
			tgt := newTarget(m.Name, m.Index)
			ep.targets = append(ep.targets, tgt)
			ep.byName[m.Name] = tgt
		}
	} else {
		ep.targets = []*target{ep.root}
	}
	return ep
}

func (ep *epoch) memberNames() []string {
	if ep.sharded == nil {
		return nil
	}
	return ep.sharded.MemberNames()
}

func (ep *epoch) quarantinedNames() []string {
	names := make([]string, len(ep.quarantined))
	for i, q := range ep.quarantined {
		names[i] = q.Name
	}
	return names
}

// Server serves one index container over HTTP.
type Server struct {
	ep  atomic.Pointer[epoch]
	opt Options

	reloadMu sync.Mutex // serializes Swap generation bumps, not requests

	cache                 *queryCache // nil when disabled
	encodeFailures        atomic.Int64
	coordRejections       atomic.Int64 // non-finite coordinates rejected before routing
	oversizeRejections    atomic.Int64 // requests over a size cap (batch pairs, matrix cells, k, body bytes)
	crossMemberRejections atomic.Int64 // 422s: cross-member queries the container has no route for
	encodeLogOnce         sync.Once

	inFlight         atomic.Int64 // requests currently inside the limiter
	shed             atomic.Int64 // 429s from the in-flight limit
	panics           atomic.Int64 // recovered handler panics (500s)
	deadlineExceeded atomic.Int64 // 503s from an expired request context
	reloads          atomic.Int64 // successful epoch swaps
	draining         atomic.Bool  // SIGTERM received: /readyz fails, in-flight work finishes

	start   time.Time
	mux     *http.ServeMux
	metrics map[string]*endpointMetrics
}

// endpointMetrics is one endpoint's counter set. All fields are atomic: the
// handlers update them concurrently and /statsz reads them without locks.
type endpointMetrics struct {
	requests  atomic.Int64
	errors    atomic.Int64
	latencyNs atomic.Int64
	maxNs     atomic.Int64
}

func (m *endpointMetrics) observe(d time.Duration, failed bool) {
	m.requests.Add(1)
	if failed {
		m.errors.Add(1)
	}
	ns := d.Nanoseconds()
	m.latencyNs.Add(ns)
	for {
		cur := m.maxNs.Load()
		if ns <= cur || m.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// New builds a Server around idx with default options (no query cache, no
// limits).
func New(idx core.DistanceIndex) *Server { return NewWithOptions(idx, Options{}) }

// NewWithOptions builds a Server around idx. The optional point/nearest
// capabilities are discovered per index by interface assertion, so every
// kind — and any future registered kind — serves through the same code
// path. A *core.ShardedIndex fans out into one routable target per member.
func NewWithOptions(idx core.DistanceIndex, opt Options) *Server {
	s := &Server{
		opt:     opt,
		start:   time.Now(),
		mux:     http.NewServeMux(),
		metrics: map[string]*endpointMetrics{},
		cache:   newQueryCache(opt.CacheSize),
	}
	s.ep.Store(newEpoch(idx, opt.Quarantined, 0))
	s.route("/v1/query", s.handleQuery, http.MethodGet, http.MethodPost)
	s.route("/v1/path", s.handlePath, http.MethodGet, http.MethodPost)
	s.route("/v1/batch", s.handleBatch, http.MethodPost)
	s.route("/v1/nearest", s.handleNearest, http.MethodGet, http.MethodPost)
	s.route("/v1/matrix", s.handleMatrix, http.MethodPost)
	s.route("/v1/isochrone", s.handleIsochrone, http.MethodGet, http.MethodPost)
	s.route("/healthz", s.handleHealthz, http.MethodGet)
	s.route("/readyz", s.handleReadyz, http.MethodGet)
	s.route("/statsz", s.handleStatsz, http.MethodGet)
	s.route("/admin/reload", s.handleAdminReload, http.MethodPost)
	return s
}

// epoch returns the current index generation. Each request calls this once
// and carries the snapshot; a concurrent swap never mixes generations
// within one request.
func (s *Server) epoch() *epoch { return s.ep.Load() }

// Handler returns the HTTP handler serving all endpoints, wrapped in the
// robustness middleware: panic recovery outermost (it must also cover the
// limiter), then admission control + the per-request deadline.
func (s *Server) Handler() http.Handler {
	return s.recoverPanics(s.limitAndDeadline(s.mux))
}

// --- middleware -------------------------------------------------------------

// exemptPaths lists the endpoints that bypass admission control and the
// request deadline: observability must stay reachable exactly when the
// serving path is saturated, and an operator's reload must not be shed by
// the overload it is trying to fix.
var exemptPaths = map[string]bool{
	"/healthz":      true,
	"/readyz":       true,
	"/statsz":       true,
	"/admin/reload": true,
}

// admit reserves an in-flight slot with a CAS loop, so the limit is exact:
// at most max requests ever run concurrently, however many race for the
// last slot.
func (s *Server) admit(max int64) bool {
	for {
		cur := s.inFlight.Load()
		if cur >= max {
			return false
		}
		if s.inFlight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// limitAndDeadline is the admission-control + deadline middleware. Shed
// requests answer 429 with Retry-After before any handler work happens;
// admitted requests carry a deadline context the bulk query paths honor.
func (s *Server) limitAndDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exemptPaths[r.URL.Path] {
			next.ServeHTTP(w, r)
			return
		}
		if max := s.opt.MaxInFlight; max > 0 {
			if !s.admit(int64(max)) {
				s.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				s.writeError(w, http.StatusTooManyRequests,
					"server at capacity (%d requests in flight); retry shortly", max)
				return
			}
		} else {
			s.inFlight.Add(1) // still tracked: /statsz reports the gauge either way
		}
		defer s.inFlight.Add(-1)
		if d := s.opt.Deadline; d > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// statusCapture records whether a response has started, so the panic
// recovery knows if a 500 can still be written.
type statusCapture struct {
	http.ResponseWriter
	wrote bool
}

func (sc *statusCapture) WriteHeader(code int) {
	sc.wrote = true
	sc.ResponseWriter.WriteHeader(code)
}

func (sc *statusCapture) Write(b []byte) (int, error) {
	sc.wrote = true
	return sc.ResponseWriter.Write(b)
}

// recoverPanics converts a handler panic into a counted, logged 500 —
// one poisoned request must not take down the thousands sharing the
// process. When the response already started streaming, the connection is
// left to die instead (the client sees a truncated body, which is the
// honest signal at that point).
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sc := &statusCapture{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				log.Printf("server: panic serving %s %s (counted in /statsz ops.panics): %v\n%s",
					r.Method, r.URL.Path, v, debug.Stack())
				if !sc.wrote {
					s.writeError(sc, http.StatusInternalServerError, "internal error")
				}
			}
		}()
		next.ServeHTTP(sc, r)
	})
}

// --- lifecycle --------------------------------------------------------------

// Swap atomically replaces the served index: requests in flight finish on
// the epoch they snapshotted, new requests see only the new one, and the
// query cache is invalidated by generation (old keys become unreachable and
// age out of the LRU).
func (s *Server) Swap(idx core.DistanceIndex, quarantined []core.Quarantined) uint64 {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	gen := s.ep.Load().gen + 1
	s.ep.Store(newEpoch(idx, quarantined, gen))
	s.reloads.Add(1)
	return gen
}

// Reload re-loads the index through the configured Options.Loader and swaps
// it in. It returns the new generation, or an error (the old epoch keeps
// serving untouched — a failed reload never degrades a healthy server).
func (s *Server) Reload() (uint64, error) {
	if s.opt.Loader == nil {
		return 0, errors.New("server: no loader configured; reload unsupported")
	}
	idx, quarantined, err := s.opt.Loader()
	if err != nil {
		return 0, fmt.Errorf("server: reload failed, keeping the current index: %w", err)
	}
	return s.Swap(idx, quarantined), nil
}

// SetDraining flips the drain flag: /readyz answers 503 so load balancers
// stop routing here, while in-flight and still-arriving requests are served
// normally until the listener shuts down.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Generation reports the current epoch's generation (0 at startup, +1 per
// swap).
func (s *Server) Generation() uint64 { return s.epoch().gen }

// QuarantinedMembers reports the current epoch's quarantine list.
func (s *Server) QuarantinedMembers() []core.Quarantined { return s.epoch().quarantined }

// route registers an instrumented handler. Handlers return the status code
// they wrote so the wrapper can count errors without re-parsing responses.
func (s *Server) route(path string, h func(w http.ResponseWriter, r *http.Request) int, methods ...string) {
	m := &endpointMetrics{}
	s.metrics[path] = m
	allowed := map[string]bool{}
	for _, meth := range methods {
		allowed[meth] = true
	}
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		var status int
		if !allowed[r.Method] {
			status = s.writeError(w, http.StatusMethodNotAllowed, "method %s not allowed on %s", r.Method, path)
		} else {
			status = h(w, r)
		}
		m.observe(time.Since(t0), status >= 400)
	})
}

// --- routing ----------------------------------------------------------------

// bboxContains is closed containment for quarantine attribution: a
// coordinate on a quarantined tile's boundary answers 503, not a wrong
// member.
func bboxContains(b core.BBox2D, x, y float64) bool {
	return x >= b.MinX && x <= b.MaxX && y >= b.MinY && y <= b.MaxY
}

// resolve picks the index a request addresses within one epoch: an explicit
// name always wins; otherwise the request goes to the root — the single
// index, or the multi root, whose route (the owning member, portals, the
// coarse level, or a structured error) decides the status. pts are the
// planar endpoints of a coordinate request: one only a quarantined tile
// contains answers 503, since the data exists but this process cannot serve
// it until the container is repaired; so does a name addressing a
// quarantined member. Unnamed id requests need a global id space on a multi
// (member ids are local otherwise). On failure it returns a nil target with
// the status and message to write.
func (s *Server) resolve(ep *epoch, name string, pts ...[2]float64) (*target, int, string) {
	if name != "" {
		if tgt, ok := ep.byName[name]; ok {
			return tgt, 0, ""
		}
		for _, q := range ep.quarantined {
			if q.Name == name {
				return nil, http.StatusServiceUnavailable,
					fmt.Sprintf("index %q is quarantined (degraded load: %v)", name, q.Err)
			}
		}
		if ep.sharded == nil {
			return nil, http.StatusNotFound,
				fmt.Sprintf("no index named %q: this server holds one unnamed %s index", name, ep.root.kind)
		}
		return nil, http.StatusNotFound,
			fmt.Sprintf("no index named %q (members: %s)", name, strings.Join(ep.memberNames(), ", "))
	}
	if ep.sharded == nil {
		return ep.root, 0, ""
	}
	if len(pts) == 0 && !ep.sharded.SupportsGlobal() {
		return nil, http.StatusBadRequest, fmt.Sprintf(
			"multi index: ids are member-local, address one with index= (members: %s)",
			strings.Join(ep.memberNames(), ", "))
	}
	for _, p := range pts {
		if status, msg := ep.quarantinedAt(p[0], p[1]); status != 0 {
			return nil, status, msg
		}
	}
	return ep.root, 0, ""
}

// quarantinedAt answers 503 for a point a quarantined tile contains and no
// healthy member does: the honest answer is "unavailable", not the nearest
// survivor's. It returns status 0 otherwise.
func (ep *epoch) quarantinedAt(x, y float64) (int, string) {
	for _, q := range ep.quarantined {
		if bboxContains(q.BBox, x, y) {
			if _, contained := ep.sharded.Locate(x, y); contained {
				return 0, ""
			}
			return http.StatusServiceUnavailable, fmt.Sprintf(
				"the tile owning (%g,%g) (%q) is quarantined (degraded load: %v)", x, y, q.Name, q.Err)
		}
	}
	return 0, ""
}

// cachedValue answers a response value (a coordinate distance, a path
// response, ...) through the LRU + single-flight cache when enabled. Keys
// are scoped to the epoch's generation, so a reload invalidates every
// cached answer at once. Cached values are shared across requests and must
// be immutable.
//
// Only requests that do geometry work beyond table probes come through
// here. Id distances and id matrices never do: the index answers them with
// a few hash probes, which cost less than a cache lookup.
func (s *Server) cachedValue(ep *epoch, key string, fn func() (any, error)) (any, error) {
	if s.cache == nil {
		return fn()
	}
	v, _, err := s.cache.do(ep.genPrefix+key, fn)
	return v, err
}

// Cache keys are prefixed by the endpoint family ("" distance, "p" path)
// and the address shape ("i" ids, "c" coords), so a path response can never
// be served where a float is expected. Id distances are not cached, so the
// only id-addressed pair key is a path's.
func pathIDKey(name string, s, t int32) string {
	return "pi|" + name + "|" + strconv.FormatInt(int64(s), 10) + "|" + strconv.FormatInt(int64(t), 10)
}

func xyKey(family, name string, sx, sy, tx, ty float64) string {
	var b strings.Builder
	b.WriteString(family)
	b.WriteString("c|")
	b.WriteString(name)
	for _, v := range [4]float64{sx, sy, tx, ty} {
		b.WriteByte('|')
		b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
	}
	return b.String()
}

// --- request/response shapes ------------------------------------------------

// queryRequest is /v1/query's body (POST) or query-string (GET): either both
// ids or all four planar coordinates, plus an optional member index name.
type queryRequest struct {
	Index string   `json:"index,omitempty"`
	S     *int32   `json:"s,omitempty"`
	T     *int32   `json:"t,omitempty"`
	SX    *float64 `json:"sx,omitempty"`
	SY    *float64 `json:"sy,omitempty"`
	TX    *float64 `json:"tx,omitempty"`
	TY    *float64 `json:"ty,omitempty"`
}

type queryResponse struct {
	Distance float64   `json:"distance"`
	Kind     core.Kind `json:"kind"`
	Index    string    `json:"index,omitempty"` // member name on a multi server
}

type batchRequest struct {
	Index string     `json:"index,omitempty"`
	Pairs [][2]int32 `json:"pairs"`
}

type batchResponse struct {
	Distances []float64 `json:"distances"`
	Count     int       `json:"count"`
	Index     string    `json:"index,omitempty"`
}

type nearestResponse struct {
	ID       int32   `json:"id"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Z        float64 `json:"z"`
	Distance float64 `json:"distance"` // planar distance from the query point
	Index    string  `json:"index,omitempty"`
}

// pathResponse is /v1/path's body: a GeoJSON Feature whose geometry is the
// surface path as a LineString of [x, y, z] positions, with the distance
// (the polyline's summed length) and vertex count in the properties.
type pathResponse struct {
	Type       string         `json:"type"` // "Feature"
	Geometry   pathGeometry   `json:"geometry"`
	Properties pathProperties `json:"properties"`
}

type pathGeometry struct {
	Type        string       `json:"type"` // "LineString"
	Coordinates [][3]float64 `json:"coordinates"`
}

type pathProperties struct {
	Distance float64   `json:"distance"`
	Vertices int       `json:"vertices"`
	Kind     core.Kind `json:"kind"`
	Index    string    `json:"index,omitempty"`
}

func newPathResponse(tgt *target, path []terrain.SurfacePoint, d float64) pathResponse {
	coords := make([][3]float64, len(path))
	for i, p := range path {
		coords[i] = [3]float64{p.P.X, p.P.Y, p.P.Z}
	}
	return pathResponse{
		Type:     "Feature",
		Geometry: pathGeometry{Type: "LineString", Coordinates: coords},
		Properties: pathProperties{
			Distance: d,
			Vertices: len(path),
			Kind:     tgt.kind,
			Index:    tgt.name,
		},
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- handlers ---------------------------------------------------------------

// parsePairRequest reads the shared /v1/query and /v1/path request shape
// (ids or planar coordinates, plus an optional member name) from the query
// string or the JSON body, and runs the counted non-finite coordinate
// rejection BEFORE any routing decision. A non-zero status means the error
// response was already written.
func (s *Server) parsePairRequest(w http.ResponseWriter, r *http.Request) (queryRequest, int) {
	var req queryRequest
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		req.Index = q.Get("index")
		var err error
		if req.S, err = formInt32(q.Get("s"), req.S); err != nil {
			return req, s.writeError(w, http.StatusBadRequest, "bad s: %v", err)
		}
		if req.T, err = formInt32(q.Get("t"), req.T); err != nil {
			return req, s.writeError(w, http.StatusBadRequest, "bad t: %v", err)
		}
		for _, f := range []struct {
			name string
			dst  **float64
		}{{"sx", &req.SX}, {"sy", &req.SY}, {"tx", &req.TX}, {"ty", &req.TY}} {
			if *f.dst, err = formFloat(q.Get(f.name), *f.dst); err != nil {
				return req, s.writeError(w, http.StatusBadRequest, "bad %s: %v", f.name, err)
			}
		}
	} else if status := s.readJSON(w, r, &req); status != 0 {
		return req, status
	} else if req.Index == "" {
		req.Index = r.URL.Query().Get("index") // POSTs may name the member in the URL too
	}
	if status := s.checkCoords(w, req.SX, req.SY, req.TX, req.TY); status != 0 {
		return req, status
	}
	return req, 0
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) int {
	req, status := s.parsePairRequest(w, r)
	if status != 0 {
		return status
	}
	ep := s.epoch()
	switch {
	case req.S != nil && req.T != nil:
		tgt, status, msg := s.resolve(ep, req.Index)
		if tgt == nil {
			return s.writeError(w, status, "%s", msg)
		}
		tgt.queries.Add(1)
		// The index is the cache for id pairs: its probe costs less than an
		// LRU lookup, so the answer comes straight from it.
		d, err := tgt.idx.Query(*req.S, *req.T)
		if err != nil {
			return s.writeError(w, s.queryFailStatus(err, http.StatusBadRequest), "query: %v", err)
		}
		return s.writeJSON(w, http.StatusOK, queryResponse{Distance: d, Kind: tgt.kind, Index: tgt.name})
	case req.SX != nil && req.SY != nil && req.TX != nil && req.TY != nil:
		tgt, status, msg := s.resolve(ep, req.Index, [2]float64{*req.SX, *req.SY}, [2]float64{*req.TX, *req.TY})
		if tgt == nil {
			return s.writeError(w, status, "%s", msg)
		}
		if tgt.pt == nil {
			return s.writeError(w, http.StatusBadRequest,
				"index kind %s answers id queries only; coordinate queries need an a2a index", tgt.kind)
		}
		tgt.queries.Add(1)
		v, err := s.cachedValue(ep, xyKey("", tgt.name, *req.SX, *req.SY, *req.TX, *req.TY), func() (any, error) {
			return tgt.pt.QueryXY(*req.SX, *req.SY, *req.TX, *req.TY)
		})
		if err != nil {
			return s.writeError(w, s.queryFailStatus(err, http.StatusBadRequest), "query: %v", err)
		}
		return s.writeJSON(w, http.StatusOK, queryResponse{Distance: v.(float64), Kind: tgt.kind, Index: tgt.name})
	}
	return s.writeError(w, http.StatusBadRequest,
		"need endpoint ids (s, t) or planar coordinates (sx, sy, tx, ty)")
}

// handlePath serves the surface path behind a distance query as a GeoJSON
// LineString Feature. Routing and member addressing work exactly as on
// /v1/query. Both address forms go through the query cache (a path costs
// microseconds of geodesic work); the cached value is the fully built
// response, so a repeated path query costs one LRU probe.
func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) int {
	req, status := s.parsePairRequest(w, r)
	if status != 0 {
		return status
	}
	ep := s.epoch()
	ctx := r.Context()
	switch {
	case req.S != nil && req.T != nil:
		tgt, status, msg := s.resolve(ep, req.Index)
		if tgt == nil {
			return s.writeError(w, status, "%s", msg)
		}
		if tgt.pi == nil {
			return s.writeError(w, http.StatusNotImplemented, "index kind %s cannot report paths", tgt.kind)
		}
		tgt.queries.Add(1)
		v, err := s.cachedValue(ep, pathIDKey(tgt.name, *req.S, *req.T), func() (any, error) {
			path, d, err := core.QueryPathCtx(ctx, tgt.pi, *req.S, *req.T)
			if err != nil {
				return nil, err
			}
			return newPathResponse(tgt, path, d), nil
		})
		if err != nil {
			return s.writeError(w, s.pathErrorStatus(err), "path: %v", err)
		}
		return s.writeJSON(w, http.StatusOK, v)
	case req.SX != nil && req.SY != nil && req.TX != nil && req.TY != nil:
		tgt, status, msg := s.resolve(ep, req.Index, [2]float64{*req.SX, *req.SY}, [2]float64{*req.TX, *req.TY})
		if tgt == nil {
			return s.writeError(w, status, "%s", msg)
		}
		if tgt.pp == nil {
			return s.writeError(w, http.StatusNotImplemented,
				"index kind %s reports id paths only; coordinate paths need an a2a index", tgt.kind)
		}
		tgt.queries.Add(1)
		v, err := s.cachedValue(ep, xyKey("p", tgt.name, *req.SX, *req.SY, *req.TX, *req.TY), func() (any, error) {
			path, d, err := core.QueryPathXYCtx(ctx, tgt.pp, *req.SX, *req.SY, *req.TX, *req.TY)
			if err != nil {
				return nil, err
			}
			return newPathResponse(tgt, path, d), nil
		})
		if err != nil {
			return s.writeError(w, s.pathErrorStatus(err), "path: %v", err)
		}
		return s.writeJSON(w, http.StatusOK, v)
	}
	return s.writeError(w, http.StatusBadRequest,
		"need endpoint ids (s, t) or planar coordinates (sx, sy, tx, ty)")
}

// pathErrorStatus maps a QueryPath failure to its HTTP status: an index
// that structurally cannot report paths (no embedded mesh) is 501, an
// expired request deadline a counted 503, a bad request (out-of-range id,
// off-terrain point) 400.
func (s *Server) pathErrorStatus(err error) int {
	if errors.Is(err, core.ErrNoPathGeometry) {
		return http.StatusNotImplemented
	}
	return s.queryFailStatus(err, http.StatusBadRequest)
}

// queryFailStatus maps a query-path error to its HTTP status: a context
// cancellation / deadline expiry is a counted 503 (the request was valid;
// the server ran out of budget); a cross-member query the container has no
// route for is a counted 422 carrying both member names (the request was
// well-formed but this container cannot answer it); a lazy member whose
// body failed to decode on first touch is 503, like a quarantined member.
// Anything else keeps the caller's fallback.
func (s *Server) queryFailStatus(err error, fallback int) int {
	if core.IsContextErr(err) {
		s.deadlineExceeded.Add(1)
		return http.StatusServiceUnavailable
	}
	var cme *core.CrossMemberError
	if errors.As(err, &cme) {
		s.crossMemberRejections.Add(1)
		return http.StatusUnprocessableEntity
	}
	if errors.Is(err, core.ErrMemberFault) {
		return http.StatusServiceUnavailable
	}
	return fallback
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	body, status := s.readBody(w, r)
	if status != 0 {
		return status
	}
	defer putBody(body)
	pp := pairBufs.get()
	defer pairBufs.put(pp)
	var req batchRequest
	scan := batchScan{Pairs: *pp}
	accepted := scanBatch(body.Bytes(), &scan)
	*pp = scan.Pairs
	if accepted {
		req.Pairs, req.Index = scan.Pairs, string(scan.Index)
	} else if status := s.decodeJSON(w, body.Bytes(), &req); status != 0 {
		return status
	}
	if req.Index == "" {
		req.Index = r.URL.Query().Get("index")
	}
	if len(req.Pairs) == 0 {
		return s.writeError(w, http.StatusBadRequest, "empty pair list")
	}
	if len(req.Pairs) > MaxBatchPairs {
		s.oversizeRejections.Add(1)
		return s.writeError(w, http.StatusRequestEntityTooLarge,
			"batch of %d pairs exceeds the %d limit", len(req.Pairs), MaxBatchPairs)
	}
	ep := s.epoch()
	tgt, status, msg := s.resolve(ep, req.Index)
	if tgt == nil {
		return s.writeError(w, status, "%s", msg)
	}
	tgt.queries.Add(1)
	// QueryBatchCtx wraps a failing pair's error with its batch-wide index
	// ("batch pair N: ..."), so the client can tell which pair was bad, and
	// stops computing once the request deadline expires.
	dp := distBufs.get()
	defer distBufs.put(dp)
	dst, err := core.QueryBatchCtx(r.Context(), tgt.idx, req.Pairs, *dp)
	*dp = dst
	if err != nil {
		return s.writeError(w, s.queryFailStatus(err, http.StatusBadRequest), "batch: %v", err)
	}
	return s.writeJSON(w, http.StatusOK, batchResponse{Distances: dst, Count: len(dst), Index: tgt.name})
}

func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request) int {
	var req struct {
		Index string   `json:"index,omitempty"`
		X     *float64 `json:"x"`
		Y     *float64 `json:"y"`
		K     *int32   `json:"k,omitempty"`
	}
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		req.Index = q.Get("index")
		var err error
		if req.X, err = formFloat(q.Get("x"), req.X); err != nil {
			return s.writeError(w, http.StatusBadRequest, "bad x: %v", err)
		}
		if req.Y, err = formFloat(q.Get("y"), req.Y); err != nil {
			return s.writeError(w, http.StatusBadRequest, "bad y: %v", err)
		}
		if req.K, err = formInt32(q.Get("k"), req.K); err != nil {
			return s.writeError(w, http.StatusBadRequest, "bad k: %v", err)
		}
	} else if status := s.readJSON(w, r, &req); status != 0 {
		return status
	} else if req.Index == "" {
		req.Index = r.URL.Query().Get("index")
	}
	if status := s.checkCoords(w, req.X, req.Y); status != 0 {
		return status
	}
	if req.X == nil || req.Y == nil {
		return s.writeError(w, http.StatusBadRequest, "need planar coordinates (x, y)")
	}
	ep := s.epoch()
	if req.K != nil {
		// An explicit k switches to the k-nearest response shape (k=1 is the
		// same answer as the legacy form, as a one-element list).
		if *req.K < 1 {
			return s.writeError(w, http.StatusBadRequest, "k must be >= 1, got %d", *req.K)
		}
		return s.handleNearestK(w, r, ep, req.Index, *req.X, *req.Y, int(*req.K))
	}
	var (
		name   string
		id     int32
		at     terrain.SurfacePoint
		planar float64
		err    error
	)
	if ep.sharded != nil && req.Index == "" {
		// Unnamed nearest on a multi server is GLOBAL: the answer must match
		// what one un-sharded index would return, and a boundary-adjacent
		// query's true nearest can sit in the tile next door — so every
		// member is scanned, not just the bbox-routed one.
		var m core.ShardMember
		m, id, at, planar, err = ep.sharded.NearestAcross(*req.X, *req.Y)
		if err != nil {
			return s.writeError(w, http.StatusNotImplemented, "nearest: %v", err)
		}
		name = m.Name
		ep.byName[name].queries.Add(1)
	} else {
		tgt, status, msg := s.resolve(ep, req.Index)
		if tgt == nil {
			return s.writeError(w, status, "%s", msg)
		}
		if tgt.nf == nil {
			return s.writeError(w, http.StatusNotImplemented, "index kind %s cannot answer nearest-endpoint queries", tgt.kind)
		}
		tgt.queries.Add(1)
		id, at, planar, err = tgt.nf.Nearest(*req.X, *req.Y)
		if err != nil {
			return s.writeError(w, s.queryFailStatus(err, http.StatusBadRequest), "nearest: %v", err)
		}
		name = tgt.name
	}
	if math.IsInf(planar, 0) || math.IsNaN(planar) {
		// Finite-but-huge coordinates can overflow the squared distance;
		// JSON cannot carry the result, so reject rather than emit an
		// unencodable body.
		return s.writeError(w, http.StatusBadRequest, "coordinates (%g,%g) out of range", *req.X, *req.Y)
	}
	return s.writeJSON(w, http.StatusOK, nearestResponse{
		ID: id, X: at.P.X, Y: at.P.Y, Z: at.P.Z, Distance: planar, Index: name,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) int {
	ep := s.epoch()
	body := map[string]interface{}{
		"status":         "ok",
		"kind":           ep.root.kind,
		"uptime_seconds": time.Since(s.start).Seconds(),
	}
	if ep.sharded != nil {
		body["indexes"] = ep.memberNames()
	}
	if len(ep.quarantined) > 0 {
		body["degraded"] = true
		body["quarantined"] = ep.quarantinedNames()
	}
	return s.writeJSON(w, http.StatusOK, body)
}

// handleReadyz is readiness, split from /healthz liveness: a draining
// server and a degraded server below quorum (healthy members not a strict
// majority of the manifest) answer 503 so load balancers route around the
// process, while /healthz keeps reporting the process alive. A degraded
// server AT quorum stays ready — serving most of the terrain beats serving
// none of it.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) int {
	ep := s.epoch()
	healthy := len(ep.targets)
	total := healthy + len(ep.quarantined)
	draining := s.draining.Load()
	quorum := healthy*2 > total
	body := map[string]interface{}{
		"ready":           quorum && !draining,
		"draining":        draining,
		"healthy_members": healthy,
		"total_members":   total,
		"generation":      ep.gen,
	}
	if len(ep.quarantined) > 0 {
		body["quarantined"] = ep.quarantinedNames()
	}
	status := http.StatusOK
	if draining || !quorum {
		status = http.StatusServiceUnavailable
	}
	return s.writeJSON(w, status, body)
}

// handleAdminReload swaps in a freshly loaded index (POST /admin/reload,
// the same path a SIGHUP takes). Without a configured loader it answers
// 501; a failed load answers 500 and leaves the serving epoch untouched.
func (s *Server) handleAdminReload(w http.ResponseWriter, _ *http.Request) int {
	gen, err := s.Reload()
	if err != nil {
		status := http.StatusInternalServerError
		if s.opt.Loader == nil {
			status = http.StatusNotImplemented
		}
		return s.writeError(w, status, "reload: %v", err)
	}
	ep := s.epoch()
	body := map[string]interface{}{
		"status":     "reloaded",
		"generation": gen,
		"kind":       ep.root.kind,
	}
	if len(ep.quarantined) > 0 {
		body["quarantined"] = ep.quarantinedNames()
	}
	log.Printf("server: reloaded index (generation %d, %d quarantined)", gen, len(ep.quarantined))
	return s.writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) int {
	ep := s.epoch()
	uptime := time.Since(s.start).Seconds()
	eps := map[string]interface{}{}
	for path, m := range s.metrics {
		req := m.requests.Load()
		avg := int64(0)
		if req > 0 {
			avg = m.latencyNs.Load() / req
		}
		eps[path] = map[string]interface{}{
			"requests":   req,
			"errors":     m.errors.Load(),
			"avg_ns":     avg,
			"max_ns":     m.maxNs.Load(),
			"qps":        float64(req) / uptime,
			"latency_ns": m.latencyNs.Load(),
		}
	}
	rootStats := ep.root.idx.Stats()
	body := map[string]interface{}{
		"index":     rootStats,
		"endpoints": eps,
		// The resident split: memory_bytes is decoded heap state,
		// mapped_bytes the slice served in place from a mapped container
		// (flat layout). Per-member splits sit under indexes.<name>.stats.
		"memory": map[string]interface{}{
			"heap_bytes":   rootStats.MemoryBytes,
			"mapped_bytes": rootStats.MappedBytes,
		},
		"cache":                   s.cache.snapshot(),
		"encode_failures":         s.encodeFailures.Load(),
		"coord_rejections":        s.coordRejections.Load(),
		"oversize_rejections":     s.oversizeRejections.Load(),
		"cross_member_rejections": s.crossMemberRejections.Load(),
		"uptime_seconds":          uptime,
		"ops": map[string]interface{}{
			"uptime_seconds":    uptime,
			"goroutines":        runtime.NumGoroutine(),
			"in_flight":         s.inFlight.Load(),
			"max_in_flight":     s.opt.MaxInFlight,
			"shed":              s.shed.Load(),
			"panics":            s.panics.Load(),
			"deadline_exceeded": s.deadlineExceeded.Load(),
			"deadline_ms":       s.opt.Deadline.Milliseconds(),
			"generation":        ep.gen,
			"reloads":           s.reloads.Load(),
			"draining":          s.draining.Load(),
			"quarantined":       ep.quarantinedNames(),
		},
	}
	if ep.sharded != nil {
		members := map[string]interface{}{}
		for _, tgt := range ep.targets {
			members[tgt.name] = map[string]interface{}{
				"stats":   tgt.idx.Stats(),
				"queries": tgt.queries.Load(),
			}
		}
		body["indexes"] = members
		if ts, ok := ep.sharded.TileStats(); ok {
			hitRate := 0.0
			if routed := ts.PortalQueries + ts.CoarseQueries; routed > 0 {
				hitRate = float64(ts.PortalQueries) / float64(routed)
			}
			body["tiles"] = map[string]interface{}{
				"members":         ts.Members,
				"levels":          ts.Levels,
				"portals":         ts.Portals,
				"resident":        ts.Resident,
				"resident_bytes":  ts.ResidentBytes,
				"budget_bytes":    ts.BudgetBytes,
				"faults":          ts.Faults,
				"evictions":       ts.Evictions,
				"portal_queries":  ts.PortalQueries,
				"coarse_queries":  ts.CoarseQueries,
				"portal_hit_rate": hitRate,
			}
		}
	}
	return s.writeJSON(w, http.StatusOK, body)
}

// --- helpers ----------------------------------------------------------------

func formInt32(v string, cur *int32) (*int32, error) {
	if v == "" {
		return cur, nil
	}
	n, err := strconv.ParseInt(v, 10, 32)
	if err != nil {
		return nil, err
	}
	n32 := int32(n)
	return &n32, nil
}

func formFloat(v string, cur *float64) (*float64, error) {
	if v == "" {
		return cur, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return nil, err
	}
	return &f, nil
}

// checkCoords rejects NaN/±Inf coordinates with a counted 400 BEFORE any
// routing decision, on every coordinate-bearing endpoint (/v1/query,
// /v1/nearest, /v1/path; /v1/batch is id-addressed and carries none).
// Non-finite inputs used to flow into locators and engines and only
// surface as encode-failure 500s; the rejection count is exported as
// coord_rejections in /statsz. A non-zero return means the error response
// was already written.
func (s *Server) checkCoords(w http.ResponseWriter, vals ...*float64) int {
	for _, v := range vals {
		if v != nil && (math.IsNaN(*v) || math.IsInf(*v, 0)) {
			s.coordRejections.Add(1)
			return s.writeError(w, http.StatusBadRequest, "coordinate must be finite, got %g", *v)
		}
	}
	return 0
}

// readJSON reads a request body and decodes it with the reference decode,
// returning 0 on success or the error status it already wrote.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst interface{}) int {
	body, status := s.readBody(w, r)
	if status != 0 {
		return status
	}
	defer putBody(body)
	return s.decodeJSON(w, body.Bytes(), dst)
}

// writeJSON encodes v BEFORE writing the status line, so an unencodable
// value (a NaN/Inf float that slipped into a response struct) becomes a
// counted, logged 500 with a JSON error body — not a silent 200 with a
// truncated body, which is what encoding straight into the ResponseWriter
// used to produce. The hot response types go through the append encoders
// into a pooled buffer; everything they decline, json.Marshal encodes.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) int {
	bp := respBufs.get()
	defer respBufs.put(bp)
	data, ok := appendResponse(*bp, v)
	*bp = data
	if !ok {
		var err error
		if data, err = json.Marshal(v); err != nil {
			s.encodeFailures.Add(1)
			s.encodeLogOnce.Do(func() {
				log.Printf("server: response encoding failed (counted in /statsz encode_failures): %v", err)
			})
			// errorResponse always marshals, so this recursion terminates.
			return s.writeJSON(w, http.StatusInternalServerError,
				errorResponse{Error: fmt.Sprintf("response not encodable: %v", err)})
		}
		data = append(data, '\n')
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data) // a client gone mid-write is its problem, not an encode failure
	return status
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...interface{}) int {
	return s.writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}
