package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seoracle/internal/core"
	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// testWorld builds a small terrain + POI set once per test.
func testWorld(t testing.TB) (*terrain.Mesh, []terrain.SurfacePoint, *geodesic.Exact) {
	t.Helper()
	m, err := gen.Fractal(gen.FractalSpec{NX: 9, NY: 9, CellDX: 10, Amp: 20, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	pois, err := gen.UniformPOIs(m, 16, 72)
	if err != nil {
		t.Fatal(err)
	}
	return m, gen.Dedup(pois, 1e-9), geodesic.NewExact(m)
}

func seOracle(t testing.TB) *core.Oracle {
	t.Helper()
	m, pois, eng := testWorld(t)
	_ = m
	o, err := core.Build(eng, pois, core.Options{Epsilon: 0.2, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// get fetches a URL and decodes the JSON response into out, returning the
// status code.
func get(t *testing.T, ts *httptest.Server, path string, out interface{}) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding body: %v", path, err)
		}
	}
	return resp.StatusCode
}

func post(t *testing.T, ts *httptest.Server, path string, body interface{}, out interface{}) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding body: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(New(seOracle(t)).Handler())
	defer ts.Close()
	var h struct {
		Status string  `json:"status"`
		Kind   string  `json:"kind"`
		Uptime float64 `json:"uptime_seconds"`
	}
	if code := get(t, ts, "/healthz", &h); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if h.Status != "ok" || h.Kind != "se" {
		t.Fatalf("healthz body %+v", h)
	}
	// Methods are enforced.
	if code := post(t, ts, "/healthz", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", code)
	}
}

func TestQueryByID(t *testing.T) {
	o := seOracle(t)
	ts := httptest.NewServer(New(o).Handler())
	defer ts.Close()

	want, err := o.Query(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Distance float64 `json:"distance"`
		Kind     string  `json:"kind"`
	}
	if code := get(t, ts, "/v1/query?s=1&t=5", &qr); code != 200 {
		t.Fatalf("query = %d", code)
	}
	if qr.Distance != want || qr.Kind != "se" {
		t.Fatalf("got %+v, want distance %g kind se", qr, want)
	}
	// POST JSON form.
	qr.Distance = -1
	if code := post(t, ts, "/v1/query", map[string]int32{"s": 1, "t": 5}, &qr); code != 200 {
		t.Fatalf("POST query = %d", code)
	}
	if qr.Distance != want {
		t.Fatalf("POST got %g, want %g", qr.Distance, want)
	}

	var er struct {
		Error string `json:"error"`
	}
	if code := get(t, ts, "/v1/query?s=1&t=99999", &er); code != 400 || er.Error == "" {
		t.Errorf("out-of-range id: %d %q", code, er.Error)
	}
	if code := get(t, ts, "/v1/query?s=1", &er); code != 400 {
		t.Errorf("missing t: %d", code)
	}
	if code := get(t, ts, "/v1/query?s=banana&t=2", &er); code != 400 {
		t.Errorf("non-numeric id: %d", code)
	}
	// Coordinate queries are refused on an id-only index, with a hint.
	if code := get(t, ts, "/v1/query?sx=1&sy=2&tx=3&ty=4", &er); code != 400 || !strings.Contains(er.Error, "a2a") {
		t.Errorf("coords on se index: %d %q", code, er.Error)
	}
}

func TestQueryByCoordsOnA2A(t *testing.T) {
	m, _, eng := testWorld(t)
	so, err := core.BuildSiteOracle(eng, m, core.SiteOptions{Options: core.Options{Epsilon: 0.3, Seed: 74}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(so).Handler())
	defer ts.Close()

	a := m.FacePoint(0, 0.4, 0.3, 0.3)
	b := m.FacePoint(int32(m.NumFaces()-1), 0.3, 0.4, 0.3)
	want, err := so.QueryXY(a.P.X, a.P.Y, b.P.X, b.P.Y)
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Distance float64 `json:"distance"`
		Kind     string  `json:"kind"`
	}
	url := fmt.Sprintf("/v1/query?sx=%g&sy=%g&tx=%g&ty=%g", a.P.X, a.P.Y, b.P.X, b.P.Y)
	if code := get(t, ts, url, &qr); code != 200 {
		t.Fatalf("coord query = %d", code)
	}
	if qr.Distance != want || qr.Kind != "a2a" {
		t.Fatalf("got %+v, want %g/a2a", qr, want)
	}
	var er struct {
		Error string `json:"error"`
	}
	if code := get(t, ts, "/v1/query?sx=-1e9&sy=-1e9&tx=1&ty=1", &er); code != 400 || !strings.Contains(er.Error, "outside") {
		t.Errorf("off-terrain point: %d %q", code, er.Error)
	}
	// /statsz surfaces the a2a regime counters.
	var st struct {
		Index struct {
			Kind  string `json:"kind"`
			Sites int    `json:"sites"`
		} `json:"index"`
	}
	if code := get(t, ts, "/statsz", &st); code != 200 {
		t.Fatalf("statsz = %d", code)
	}
	if st.Index.Kind != "a2a" || st.Index.Sites != so.NumSites() {
		t.Fatalf("statsz index %+v", st.Index)
	}
}

func TestBatch(t *testing.T) {
	o := seOracle(t)
	ts := httptest.NewServer(New(o).Handler())
	defer ts.Close()

	pairs := [][2]int32{{0, 1}, {2, 3}, {4, 4}}
	var br struct {
		Distances []float64 `json:"distances"`
		Count     int       `json:"count"`
	}
	if code := post(t, ts, "/v1/batch", map[string]interface{}{"pairs": pairs}, &br); code != 200 {
		t.Fatalf("batch = %d", code)
	}
	if br.Count != len(pairs) {
		t.Fatalf("count %d", br.Count)
	}
	want, err := o.QueryBatch(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if br.Distances[i] != want[i] {
			t.Errorf("pair %d: %g want %g", i, br.Distances[i], want[i])
		}
	}
	if code := post(t, ts, "/v1/batch", map[string]interface{}{"pairs": [][2]int32{}}, nil); code != 400 {
		t.Errorf("empty batch = %d", code)
	}
	if code := post(t, ts, "/v1/batch", map[string]interface{}{"pairs": [][2]int32{{0, 12345}}}, nil); code != 400 {
		t.Errorf("bad id batch = %d", code)
	}
	if code := get(t, ts, "/v1/batch", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET batch = %d", code)
	}
}

func TestNearest(t *testing.T) {
	o := seOracle(t)
	ts := httptest.NewServer(New(o).Handler())
	defer ts.Close()

	pts := o.Points()
	var nr struct {
		ID       int32   `json:"id"`
		Distance float64 `json:"distance"`
	}
	url := fmt.Sprintf("/v1/nearest?x=%g&y=%g", pts[3].P.X, pts[3].P.Y)
	if code := get(t, ts, url, &nr); code != 200 {
		t.Fatalf("nearest = %d", code)
	}
	if nr.ID != 3 || nr.Distance != 0 {
		t.Fatalf("nearest %+v, want id 3 at distance 0", nr)
	}
	if code := get(t, ts, "/v1/nearest", nil); code != 400 {
		t.Errorf("nearest without coords = %d", code)
	}
	// Non-finite coordinates must be rejected up front — otherwise they
	// propagate into a NaN distance that json.Encode cannot emit, and the
	// client would see a 200 with an empty body.
	for _, q := range []string{"/v1/nearest?x=NaN&y=0", "/v1/nearest?x=0&y=Inf", "/v1/nearest?x=1e200&y=1e200"} {
		var er struct {
			Error string `json:"error"`
		}
		if code := get(t, ts, q, &er); code != 400 || er.Error == "" {
			t.Errorf("%s = %d (%q), want 400 with an error body", q, code, er.Error)
		}
	}
	if code := post(t, ts, "/v1/nearest", map[string]interface{}{"x": 1e200, "y": 1e200}, nil); code != 400 {
		t.Errorf("POST overflow coords = %d, want 400", code)
	}
	if code := get(t, ts, "/v1/query?sx=NaN&sy=0&tx=1&ty=1", nil); code != 400 {
		t.Errorf("query with NaN coord = %d, want 400", code)
	}
}

// TestStatszCountsRequests: the per-endpoint metrics count requests and
// errors separately.
func TestStatszCountsRequests(t *testing.T) {
	ts := httptest.NewServer(New(seOracle(t)).Handler())
	defer ts.Close()

	get(t, ts, "/v1/query?s=0&t=1", nil)
	get(t, ts, "/v1/query?s=0&t=99999", nil) // error
	var st struct {
		Endpoints map[string]struct {
			Requests int64 `json:"requests"`
			Errors   int64 `json:"errors"`
		} `json:"endpoints"`
	}
	if code := get(t, ts, "/statsz", &st); code != 200 {
		t.Fatalf("statsz = %d", code)
	}
	q := st.Endpoints["/v1/query"]
	if q.Requests != 2 || q.Errors != 1 {
		t.Fatalf("/v1/query metrics %+v, want 2 requests / 1 error", q)
	}
}

// TestLoadIndexFile: both loading paths (stream and mmap) restore a served
// index from a container file; the a2a kind answers coordinate queries with
// no SSAD at load time.
func TestLoadIndexFile(t *testing.T) {
	m, _, eng := testWorld(t)
	so, err := core.BuildSiteOracle(eng, m, core.SiteOptions{Options: core.Options{Epsilon: 0.3, Seed: 75}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.sedx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := so.EncodeTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, useMmap := range []bool{false, true} {
		idx, err := LoadIndexFile(path, useMmap)
		if err != nil {
			t.Fatalf("mmap=%v: %v", useMmap, err)
		}
		if idx.Stats().Kind != core.KindA2A {
			t.Fatalf("mmap=%v: kind %s", useMmap, idx.Stats().Kind)
		}
		pt := idx.(core.PointIndex)
		a := m.FacePoint(0, 0.4, 0.3, 0.3)
		b := m.FacePoint(int32(m.NumFaces()-1), 0.3, 0.4, 0.3)
		want, err := so.QueryPoints(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pt.QueryPoints(a, b)
		if err != nil || got != want {
			t.Fatalf("mmap=%v: %g/%v want %g", useMmap, got, err, want)
		}
	}
	if _, err := LoadIndexFile(filepath.Join(t.TempDir(), "absent"), false); err == nil {
		t.Error("loading a missing file succeeded")
	}
}
