package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seoracle/internal/core"
	"seoracle/internal/terrain"
)

// shardedWorld builds a 2-member sharded SE index over the shared test
// terrain.
func shardedWorld(t *testing.T) (*core.ShardedIndex, *terrain.Mesh) {
	t.Helper()
	m, pois, eng := testWorld(t)
	sh, err := core.BuildShardedSE(eng, m, pois, 2, core.Options{Epsilon: 0.25, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	if sh.NumMembers() < 2 {
		t.Fatalf("test world sharded into %d members, want 2", sh.NumMembers())
	}
	return sh, m
}

// TestMultiRouting: one process serves every member of a sharded container
// — by explicit index name, and by locating coordinates in a member bbox.
func TestMultiRouting(t *testing.T) {
	sh, _ := shardedWorld(t)
	ts := httptest.NewServer(New(sh).Handler())
	defer ts.Close()

	// Healthz reports the multi kind and the member names.
	var h struct {
		Kind    string   `json:"kind"`
		Indexes []string `json:"indexes"`
	}
	if code := get(t, ts, "/healthz", &h); code != 200 || h.Kind != "multi" {
		t.Fatalf("healthz = %d %+v", code, h)
	}
	if len(h.Indexes) != sh.NumMembers() {
		t.Fatalf("healthz lists %v, want %d members", h.Indexes, sh.NumMembers())
	}

	// Id queries route by explicit member name and answer member-locally.
	for _, m := range sh.Members() {
		want, err := m.Index.Query(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		var qr struct {
			Distance float64 `json:"distance"`
			Kind     string  `json:"kind"`
			Index    string  `json:"index"`
		}
		if code := get(t, ts, "/v1/query?index="+m.Name+"&s=0&t=1", &qr); code != 200 {
			t.Fatalf("query index=%s = %d", m.Name, code)
		}
		if qr.Distance != want || qr.Index != m.Name || qr.Kind != "se" {
			t.Fatalf("index=%s got %+v, want %g", m.Name, qr, want)
		}
	}

	var er struct {
		Error string `json:"error"`
	}
	// Id queries without a name are ambiguous on a multi server, and the
	// error names the members.
	if code := get(t, ts, "/v1/query?s=0&t=1", &er); code != 400 ||
		!strings.Contains(er.Error, sh.Members()[0].Name) {
		t.Fatalf("unnamed id query = %d %q", code, er.Error)
	}
	// Unknown names are 404s that list what exists.
	if code := get(t, ts, "/v1/query?index=nope&s=0&t=1", &er); code != 404 ||
		!strings.Contains(er.Error, "nope") {
		t.Fatalf("unknown index = %d %q", code, er.Error)
	}

	// Nearest routes by bbox: querying at a member's own POI returns that
	// member's name and a local id resolving to the same point.
	for _, m := range sh.Members() {
		p := m.Index.(*core.Oracle).Points()[0]
		var nr struct {
			ID       int32   `json:"id"`
			Index    string  `json:"index"`
			Distance float64 `json:"distance"`
		}
		url := fmt.Sprintf("/v1/nearest?x=%g&y=%g", p.P.X, p.P.Y)
		if code := get(t, ts, url, &nr); code != 200 {
			t.Fatalf("nearest (%s) = %d", m.Name, code)
		}
		if nr.Index != m.Name || nr.Distance != 0 {
			t.Fatalf("nearest at %s POI 0: %+v", m.Name, nr)
		}
	}
	// Routing is total: coordinates outside every bbox fall to the
	// planar-closest member instead of stranding (a single un-sharded index
	// would have answered them).
	var far struct {
		ID    int32  `json:"id"`
		Index string `json:"index"`
	}
	if code := get(t, ts, "/v1/nearest?x=-1e8&y=-1e8", &far); code != 200 || far.Index == "" {
		t.Fatalf("off-bbox nearest = %d %+v, want 200 routed to the closest member", code, far)
	}

	// Batch routes by name too, and per-index routing counters show up in
	// /statsz alongside the aggregate multi stats.
	first := sh.Members()[0].Name
	var br struct {
		Count int    `json:"count"`
		Index string `json:"index"`
	}
	if code := post(t, ts, "/v1/batch?index="+first,
		map[string]interface{}{"pairs": [][2]int32{{0, 1}}}, &br); code != 200 || br.Index != first {
		t.Fatalf("named batch = %d %+v", code, br)
	}
	var st struct {
		Index struct {
			Kind    string `json:"kind"`
			Members int    `json:"members"`
		} `json:"index"`
		Indexes map[string]struct {
			Queries int64 `json:"queries"`
			Stats   struct {
				Kind string `json:"kind"`
			} `json:"stats"`
		} `json:"indexes"`
	}
	if code := get(t, ts, "/statsz", &st); code != 200 {
		t.Fatalf("statsz = %d", code)
	}
	if st.Index.Kind != "multi" || st.Index.Members != sh.NumMembers() {
		t.Fatalf("statsz aggregate %+v", st.Index)
	}
	if len(st.Indexes) != sh.NumMembers() || st.Indexes[first].Queries < 2 {
		t.Fatalf("statsz per-index %+v", st.Indexes)
	}
}

// TestMultiServedFromContainerFile: the serving path loads a sharded
// container from disk (both stream and mmap) and routes as if freshly
// built.
func TestMultiServedFromContainerFile(t *testing.T) {
	sh, _ := shardedWorld(t)
	path := t.TempDir() + "/multi.sedx"
	writeIndexFile(t, path, sh)
	for _, useMmap := range []bool{false, true} {
		idx, _, err := LoadIndexOpts(path, useMmap, core.LoadOptions{})
		if err != nil {
			t.Fatalf("mmap=%v: %v", useMmap, err)
		}
		sh2, ok := idx.(*core.ShardedIndex)
		if !ok || sh2.NumMembers() != sh.NumMembers() {
			t.Fatalf("mmap=%v: loaded %T", useMmap, idx)
		}
		ts := httptest.NewServer(New(sh2).Handler())
		name := sh.Members()[1].Name
		want, _ := sh.Members()[1].Index.Query(0, 1)
		var qr struct {
			Distance float64 `json:"distance"`
		}
		if code := get(t, ts, "/v1/query?index="+name+"&s=0&t=1", &qr); code != 200 || qr.Distance != want {
			t.Fatalf("mmap=%v: served %d %+v, want %g", useMmap, code, qr, want)
		}
		ts.Close()
	}
}

func writeIndexFile(t *testing.T, path string, idx core.DistanceIndex) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.EncodeTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// stubIndex is a scriptable DistanceIndex for cache and encode-failure
// tests: every Query returns d after delay, counting invocations.
type stubIndex struct {
	d     float64
	delay time.Duration
	calls atomic.Int64
}

func (s *stubIndex) Query(a, b int32) (float64, error) { return s.answer(a < 0 || b < 0) }

// answer counts one index computation, sleeps delay, and returns d, or an
// error when bad.
func (s *stubIndex) answer(bad bool) (float64, error) {
	s.calls.Add(1)
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	if bad {
		return 0, fmt.Errorf("stub: negative id or coordinate")
	}
	return s.d, nil
}

func (s *stubIndex) QueryBatch(pairs [][2]int32, dst []float64) ([]float64, error) {
	return core.BatchViaQuery(s.Query, pairs, dst)
}
func (s *stubIndex) MemoryBytes() int64       { return 0 }
func (s *stubIndex) Stats() core.IndexStats   { return core.IndexStats{Kind: core.KindSE, Points: 8} }
func (s *stubIndex) EncodeTo(io.Writer) error { return core.ErrNotEncodable }

// stubPointIndex is a stubIndex that also answers coordinate queries, so
// coordinate /v1/query, the form the cache holds, reaches a scriptable
// index. QueryXY shares the stub's delay and call counter and fails for a
// negative sx or tx.
type stubPointIndex struct{ stubIndex }

func (s *stubPointIndex) QueryXY(sx, _, tx, _ float64) (float64, error) {
	return s.answer(sx < 0 || tx < 0)
}
func (s *stubPointIndex) QueryPoints(_, _ terrain.SurfacePoint) (float64, error) {
	return s.answer(false)
}
func (s *stubPointIndex) Project(x, _ float64) (terrain.SurfacePoint, bool) {
	return terrain.SurfacePoint{}, x >= 0
}

// cacheCounters is the /statsz "cache" block.
type cacheCounters struct {
	Capacity int   `json:"capacity"`
	Entries  int   `json:"entries"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
}

func cacheSnapshot(t *testing.T, ts *httptest.Server) cacheCounters {
	t.Helper()
	var st struct {
		Cache cacheCounters `json:"cache"`
	}
	if code := get(t, ts, "/statsz", &st); code != 200 {
		t.Fatalf("statsz = %d", code)
	}
	return st.Cache
}

// TestQueryCacheHitsAndEviction: repeated coordinate queries hit the LRU,
// /statsz surfaces hit/miss counters, errors are not cached, and the entry
// count never exceeds capacity.
func TestQueryCacheHitsAndEviction(t *testing.T) {
	stub := &stubPointIndex{stubIndex{d: 7.5}}
	ts := httptest.NewServer(NewWithOptions(stub, Options{CacheSize: 4}).Handler())
	defer ts.Close()

	var qr struct {
		Distance float64 `json:"distance"`
	}
	for i := 0; i < 3; i++ {
		if code := get(t, ts, "/v1/query?sx=1&sy=2&tx=3&ty=4", &qr); code != 200 || qr.Distance != 7.5 {
			t.Fatalf("query %d = %d %+v", i, code, qr)
		}
	}
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("index computed %d times for 3 identical queries, want 1", got)
	}
	// Errors are not cached: each bad query recomputes.
	get(t, ts, "/v1/query?sx=-1&sy=2&tx=3&ty=4", nil)
	get(t, ts, "/v1/query?sx=-1&sy=2&tx=3&ty=4", nil)
	if got := stub.calls.Load(); got != 3 {
		t.Fatalf("error queries cached: %d calls, want 3", got)
	}
	// Fill past capacity with distinct keys; entries stay bounded.
	for i := 100; i < 110; i++ {
		get(t, ts, fmt.Sprintf("/v1/query?sx=%d&sy=0&tx=%d&ty=0", i, i+1), nil)
	}
	st := cacheSnapshot(t, ts)
	if st.Capacity != 4 || st.Entries > 4 {
		t.Fatalf("cache exceeded capacity: %+v", st)
	}
	if st.Hits != 2 || st.Misses != 13 {
		t.Fatalf("cache counters %+v, want 2 hits / 13 misses", st)
	}
}

// TestProbeEndpointsBypassCache: id distances and id matrices are answered
// by the index on every request, with the cache on, and never touch the
// cache counters.
func TestProbeEndpointsBypassCache(t *testing.T) {
	stub := &stubIndex{d: 2.5}
	ts := httptest.NewServer(NewWithOptions(stub, Options{CacheSize: 16}).Handler())
	defer ts.Close()

	const n = 5
	for i := 0; i < n; i++ {
		if code := get(t, ts, "/v1/query?s=1&t=2", nil); code != 200 {
			t.Fatalf("id query %d = %d", i, code)
		}
	}
	if got := stub.calls.Load(); got != n {
		t.Fatalf("%d identical id queries made %d index calls, want %d", n, got, n)
	}
	// The stub has no MatrixIndex, so each 1x2 matrix is a per-cell sweep:
	// two index calls per request.
	body := map[string]interface{}{"sources": []int32{1}, "targets": []int32{2, 3}}
	for i := 0; i < n; i++ {
		if code := post(t, ts, "/v1/matrix", body, nil); code != 200 {
			t.Fatalf("id matrix %d = %d", i, code)
		}
	}
	if got := stub.calls.Load(); got != 3*n {
		t.Fatalf("%d identical id matrices made %d index calls in all, want %d", n, got, 3*n)
	}
	if st := cacheSnapshot(t, ts); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("id queries and matrices touched the cache: %+v", st)
	}
}

// TestQueryCacheSingleFlight: concurrent identical misses share ONE index
// computation.
func TestQueryCacheSingleFlight(t *testing.T) {
	stub := &stubPointIndex{stubIndex{d: 3.25, delay: 50 * time.Millisecond}}
	ts := httptest.NewServer(NewWithOptions(stub, Options{CacheSize: 16}).Handler())
	defer ts.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/v1/query?sx=5&sy=0&tx=6&ty=0")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("%d concurrent identical queries computed %d times, want 1 (single-flight)", clients, got)
	}
}

// TestWriteJSONEncodeFailure: a non-finite value in a response must produce
// a counted 500 with a JSON error body — the regression for the dropped
// json.Encoder error that used to emit a silent 200 with a truncated body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	stub := &stubIndex{d: math.NaN()}
	ts := httptest.NewServer(New(stub).Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/query?s=1&t=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("NaN response = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(body), "not encodable") {
		t.Fatalf("body %q carries no encode error", body)
	}
	var st struct {
		EncodeFailures int64 `json:"encode_failures"`
		Endpoints      map[string]struct {
			Errors int64 `json:"errors"`
		} `json:"endpoints"`
	}
	if code := get(t, ts, "/statsz", &st); code != 200 {
		t.Fatalf("statsz = %d", code)
	}
	if st.EncodeFailures != 1 {
		t.Fatalf("encode_failures = %d, want 1", st.EncodeFailures)
	}
	if st.Endpoints["/v1/query"].Errors != 1 {
		t.Fatalf("/v1/query errors = %d, want 1", st.Endpoints["/v1/query"].Errors)
	}
}

// TestBatchErrorNamesPair: /v1/batch failures surface which pair was bad.
func TestBatchErrorNamesPair(t *testing.T) {
	ts := httptest.NewServer(New(seOracle(t)).Handler())
	defer ts.Close()
	var er struct {
		Error string `json:"error"`
	}
	code := post(t, ts, "/v1/batch", map[string]interface{}{"pairs": [][2]int32{{0, 1}, {0, 30000}}}, &er)
	if code != 400 || !strings.Contains(er.Error, "pair 1") {
		t.Fatalf("bad batch = %d %q, want the error to name pair 1", code, er.Error)
	}
}

// TestNearestSkipsTombstonesOverHTTP: /v1/nearest against a
// container-loaded dynamic index never returns a tombstoned POI.
func TestNearestSkipsTombstonesOverHTTP(t *testing.T) {
	m, pois, eng := testWorld(t)
	d, err := core.NewDynamicOracle(eng, m, pois, core.Options{Epsilon: 0.25, Seed: 82})
	if err != nil {
		t.Fatal(err)
	}
	x, y := pois[2].P.X, pois[2].P.Y
	if err := d.Delete(2); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/dyn.sedx"
	writeIndexFile(t, path, d)
	idx, _, err := LoadIndexOpts(path, false, core.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(idx).Handler())
	defer ts.Close()

	var nr struct {
		ID int32 `json:"id"`
	}
	url := fmt.Sprintf("/v1/nearest?x=%g&y=%g", x, y)
	if code := get(t, ts, url, &nr); code != 200 {
		t.Fatalf("nearest = %d", code)
	}
	if nr.ID == 2 {
		t.Fatal("/v1/nearest returned the tombstoned POI 2 after an encode/load round trip")
	}
}
