package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"seoracle/internal/core"
)

// codec_test.go — the JSON codec against its reference: the scanner must
// decode exactly what encoding/json decodes whenever it accepts a body, the
// append encoders must produce json.Marshal's bytes, and every JSON-body
// endpoint holds a body to one value.

// refDecode runs the server's reference decode over body; ok is false when
// it rejects the body.
func refDecode(body []byte, dst any) bool {
	return New(&stubIndex{}).decodeJSON(httptest.NewRecorder(), body, dst) == 0
}

// batchSeeds and matrixSeeds seed the fuzz targets and the decline table:
// canonical bodies, every shape the scanner must decline, and near misses.
var batchSeeds = []string{
	`{"pairs":[[0,1],[2,3]]}`,
	` { "index" : "tile-0-1" , "pairs" : [ [ -0 , 2147483647 ] , [-2147483648,0] ] } `,
	`{"pairs":[]}`,
	`{}`,
	`{"pairs":[[0,1]]}garbage`,
	`{"pairs":[[0,1]]}{"pairs":[[2,3]]}`,
	`{"pairs":[[0,1]],"pairs":[[2,3]]}`,
	`{"Pairs":[[0,1]]}`,
	`{"pairs":[[0,1]],"extra":1}`,
	`{"index""pairs":[[0,1]]}`,
	`{"pairs":[[0,1.0]]}`,
	`{"pairs":[[0,1e2]]}`,
	`{"pairs":[[01,2]]}`,
	`{"pairs":[[0,2147483648]]}`,
	`{"pairs":[[0,-2147483649]]}`,
	`{"pairs":[[0,12345678901]]}`,
	`{"pairs":null}`,
	`{"pairs":[[0,1,2]]}`,
	`{"pairs":[[0]]}`,
	`{"pairs":[[0,1],]}`,
	`{"index":"a\"b","pairs":[[0,1]]}`,
	`{"index":"t\u0069le","pairs":[[0,1]]}`,
	"{\"index\":\"té\",\"pairs\":[[0,1]]}",
	`{"index":null,"pairs":[[0,1]]}`,
	`{"pairs":[[0,1]]`,
	``,
	`[]`,
}

var matrixSeeds = []string{
	`{"sources":[0,1,2],"targets":[3,4]}`,
	` { "index" : "tile-1-0" , "targets" : [ 5 ] , "sources" : [ -0 ] } `,
	`{"sources":[],"targets":[]}`,
	`{}`,
	`{"source_coords":[[0,0]],"target_coords":[[1,1]]}`,
	`{"sources":[0],"targets":[1]}x`,
	`{"sources":[0],"sources":[1],"targets":[1]}`,
	`{"Sources":[0],"targets":[1]}`,
	`{"sources":[0.5],"targets":[1]}`,
	`{"sources":[00],"targets":[1]}`,
	`{"sources":[4294967296],"targets":[1]}`,
	`{"sources":null,"targets":[1]}`,
	`{"index":"\\","sources":[0],"targets":[1]}`,
	`{"sources":[0],"targets":[1],}`,
}

func FuzzBatchBody(f *testing.F) {
	for _, s := range batchSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var scan batchScan
		if !scanBatch(body, &scan) {
			return
		}
		var ref batchRequest
		if !refDecode(body, &ref) {
			t.Fatalf("scanner accepted %q, encoding/json rejects it", body)
		}
		if string(scan.Index) != ref.Index || !slices.Equal(scan.Pairs, ref.Pairs) {
			t.Fatalf("%q: scanned index %q pairs %v, encoding/json index %q pairs %v",
				body, scan.Index, scan.Pairs, ref.Index, ref.Pairs)
		}
	})
}

func FuzzMatrixBody(f *testing.F) {
	for _, s := range matrixSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var scan matrixScan
		if !scanMatrix(body, &scan) {
			return
		}
		var ref matrixRequest
		if !refDecode(body, &ref) {
			t.Fatalf("scanner accepted %q, encoding/json rejects it", body)
		}
		if string(scan.Index) != ref.Index || !slices.Equal(scan.Sources, ref.Sources) ||
			!slices.Equal(scan.Targets, ref.Targets) || len(ref.SourceCoords) != 0 || len(ref.TargetCoords) != 0 {
			t.Fatalf("%q: scanned %+v, encoding/json %+v", body, scan, ref)
		}
	})
}

// TestScannerAcceptsOnlyCanonicalBodies pins which seed bodies take the
// scanner path: the canonical shapes do, every other shape declines to the
// reference decode.
func TestScannerAcceptsOnlyCanonicalBodies(t *testing.T) {
	acceptBatch := map[string]bool{batchSeeds[0]: true, batchSeeds[1]: true, batchSeeds[2]: true, batchSeeds[3]: true}
	for _, body := range batchSeeds {
		var scan batchScan
		if got := scanBatch([]byte(body), &scan); got != acceptBatch[body] {
			t.Errorf("scanBatch(%q) accepted = %v, want %v", body, got, acceptBatch[body])
		}
	}
	acceptMatrix := map[string]bool{matrixSeeds[0]: true, matrixSeeds[1]: true, matrixSeeds[2]: true, matrixSeeds[3]: true}
	for _, body := range matrixSeeds {
		var scan matrixScan
		if got := scanMatrix([]byte(body), &scan); got != acceptMatrix[body] {
			t.Errorf("scanMatrix(%q) accepted = %v, want %v", body, got, acceptMatrix[body])
		}
	}
	// The pair cap: MaxBatchPairs pairs scan, one more declines so that the
	// reference decode reports the full count in the 413.
	var b strings.Builder
	b.WriteString(`{"pairs":[`)
	for i := 0; i <= MaxBatchPairs; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("[0,1]")
	}
	b.WriteString("]}")
	var scan batchScan
	if scanBatch([]byte(b.String()), &scan) || len(scan.Pairs) != MaxBatchPairs {
		t.Fatalf("a batch of MaxBatchPairs+1 pairs must decline after %d pairs, stopped at %d", MaxBatchPairs, len(scan.Pairs))
	}
}

// TestEncodersMatchMarshal: whatever writeJSON sends is json.Marshal's
// encoding plus "\n", whichever path produced it; the hot types take the
// append encoders unless a value could encode differently, and a NaN or
// ±Inf is a counted 500.
func TestEncodersMatchMarshal(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1.0 / 3, 123456.789,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-9, -2.5e-10,
		1e20, 1e21, math.Nextafter(1e21, 0), 1.234e25, -1e21,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-320, math.MaxFloat64,
	}
	path := func(coords [][3]float64, index string) pathResponse {
		return pathResponse{Type: "Feature", Geometry: pathGeometry{Type: "LineString", Coordinates: coords},
			Properties: pathProperties{Distance: 12.5, Vertices: len(coords), Kind: core.KindFlat, Index: index}}
	}
	cases := []struct {
		name string
		v    any
		fast bool // taken by the append encoders
	}{
		{"query", queryResponse{Distance: 187.99774699999998, Kind: core.KindSE}, true},
		{"query-index", queryResponse{Distance: 1, Kind: core.KindFlat, Index: "tile-0-1"}, true},
		{"query-unknown-kind", queryResponse{Distance: 1, Kind: core.Kind(77)}, true},
		{"query-html-index", queryResponse{Distance: 1, Kind: core.KindSE, Index: "a<b>&c"}, false},
		{"query-nonascii-index", queryResponse{Distance: 1, Kind: core.KindSE, Index: "tuile-é "}, false},
		{"query-control-index", queryResponse{Distance: 1, Kind: core.KindSE, Index: "q\"\\\x01"}, false},
		{"batch-floats", batchResponse{Distances: floats, Count: len(floats)}, true},
		{"batch-nil", batchResponse{}, true},
		{"batch-empty", batchResponse{Distances: []float64{}, Index: "m"}, true},
		{"matrix", matrixResponse{Distances: floats[:6], Rows: 2, Cols: 3, Kind: core.KindSE, Index: "coarse-1"}, true},
		{"matrix-nil", matrixResponse{Kind: core.KindA2A}, true},
		{"matrix-empty-errors", matrixResponse{Distances: []float64{1}, Rows: 1, Cols: 1, Errors: []string{}, Kind: core.KindSE}, true},
		{"matrix-errors", matrixResponse{Distances: []float64{0, 2}, Rows: 1, Cols: 2, Errors: []string{"bad id", ""}, Kind: core.KindSE}, false},
		{"path", path([][3]float64{{0, 0, 1e-7}, {1e21, -0.5, 3}}, "tile-0-0"), true},
		{"path-nil", path(nil, ""), true},
		{"path-empty", path([][3]float64{}, ""), true},
		{"path-html-index", path([][3]float64{{1, 2, 3}}, "<x>"), false},
		{"error", errorResponse{Error: "bad <input> & more"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if _, fast := appendResponse(nil, tc.v); fast != tc.fast {
				t.Fatalf("append encoder taken = %v, want %v", fast, tc.fast)
			}
			rec := httptest.NewRecorder()
			if code := New(&stubIndex{}).writeJSON(rec, http.StatusOK, tc.v); code != http.StatusOK {
				t.Fatalf("writeJSON = %d", code)
			}
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("writeJSON wrote\n%s\njson.Marshal\n%s", got, want)
			}
		})
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, v := range []any{
			queryResponse{Distance: f, Kind: core.KindSE},
			batchResponse{Distances: []float64{1, f}, Count: 2},
			matrixResponse{Distances: []float64{f}, Rows: 1, Cols: 1, Kind: core.KindSE},
			path([][3]float64{{0, f, 0}}, ""),
		} {
			s := New(&stubIndex{})
			rec := httptest.NewRecorder()
			if code := s.writeJSON(rec, http.StatusOK, v); code != http.StatusInternalServerError {
				t.Fatalf("%T with %v: writeJSON = %d, want 500", v, f, code)
			}
			if rec.Code != http.StatusInternalServerError || s.encodeFailures.Load() != 1 {
				t.Fatalf("%T with %v: status %d, encode_failures %d; want a counted 500",
					v, f, rec.Code, s.encodeFailures.Load())
			}
		}
	}
}

// TestJSONBodyIsOneValue: every JSON-body endpoint answers 400 "bad JSON
// body" when anything but whitespace follows the value — trailing garbage
// or a second concatenated request — while trailing whitespace is fine.
func TestJSONBodyIsOneValue(t *testing.T) {
	ts := httptest.NewServer(New(seOracle(t)).Handler())
	defer ts.Close()
	bodies := map[string]string{
		"/v1/query":     `{"s":0,"t":1}`,
		"/v1/path":      `{"s":0,"t":1}`,
		"/v1/batch":     `{"pairs":[[0,1]]}`,
		"/v1/nearest":   `{"x":1,"y":1}`,
		"/v1/matrix":    `{"sources":[0],"targets":[1]}`,
		"/v1/isochrone": `{"s":0,"d":5}`,
	}
	send := func(path, body string) (int, string) {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er.Error
	}
	for path, body := range bodies {
		if code, msg := send(path, body+" \n\t"); code == http.StatusBadRequest && strings.HasPrefix(msg, "bad JSON body") {
			t.Errorf("POST %s with trailing whitespace = %d %q", path, code, msg)
		}
		for _, tail := range []string{"garbage", body, " x"} {
			code, msg := send(path, body+tail)
			if code != http.StatusBadRequest || !strings.HasPrefix(msg, "bad JSON body: invalid character") ||
				!strings.Contains(msg, "after top-level value") {
				t.Errorf("POST %s with trailing %q = %d %q, want 400 bad JSON body", path, tail, code, msg)
			}
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing but the status, so
// an allocation count sees only the handler's own allocations.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }

// batchBody renders a canonical /v1/batch body of n pairs over ids < npois.
func batchBody(n, npois int) []byte {
	var b strings.Builder
	b.WriteString(`{"pairs":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", i%npois, (i*7+3)%npois)
	}
	b.WriteString("]}")
	return []byte(b.String())
}

// flatHandler serves the test world's SE oracle in the flat layout.
func flatHandler(tb testing.TB) (http.Handler, int) {
	tb.Helper()
	o := seOracle(tb)
	flat, err := core.ConvertFlat(o)
	if err != nil {
		tb.Fatal(err)
	}
	return New(flat).Handler(), o.Stats().Points
}

// TestBatchAllocsIndependentOfSize: a /v1/batch request allocates the same
// number of objects at 64 and at 1024 pairs — nothing per pair.
func TestBatchAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	h, npois := flatHandler(t)
	allocs := func(n int) float64 {
		body := batchBody(n, npois)
		w := &discardWriter{h: http.Header{}}
		return testing.AllocsPerRun(50, func() {
			w.status = 0
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
			if w.status != http.StatusOK {
				t.Fatalf("batch of %d = %d", n, w.status)
			}
		})
	}
	small, large := allocs(64), allocs(1024)
	if small != large {
		t.Fatalf("a batch allocates %v objects at 64 pairs, %v at 1024: allocation grows with the pair count", small, large)
	}
	t.Logf("%v allocations per /v1/batch request", small)
}

// idMatrixBody renders a canonical id /v1/matrix body of a side×side matrix
// over ids < npois.
func idMatrixBody(side, npois int) []byte {
	ids := make([]string, side)
	for i := range ids {
		ids[i] = fmt.Sprint(i % npois)
	}
	list := "[" + strings.Join(ids, ",") + "]"
	return []byte(`{"sources":` + list + `,"targets":` + list + `}`)
}

// TestMatrixAllocsIndependentOfSize: an id /v1/matrix request allocates the
// same number of objects at 8×8 and at 32×32 cells — nothing per cell — and
// the larger one does not allocate its distances: they live in a pooled
// buffer, with the cache on or off. GOMAXPROCS is pinned to 1 while it
// counts: the row-parallel matrix starts min(GOMAXPROCS, rows) workers,
// which would differ between 8 and 32 rows on a machine with more than 8
// CPUs.
func TestMatrixAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := seOracle(t)
	flat, err := core.ConvertFlat(o)
	if err != nil {
		t.Fatal(err)
	}
	npois := o.Stats().Points
	for _, cacheSize := range []int{0, 1024} {
		h := NewWithOptions(flat, Options{CacheSize: cacheSize}).Handler()
		measure := func(side int) (allocs float64, bytesPerReq uint64) {
			body := idMatrixBody(side, npois)
			w := &discardWriter{h: http.Header{}}
			serve := func() {
				w.status = 0
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/matrix", bytes.NewReader(body)))
				if w.status != http.StatusOK {
					t.Fatalf("%d×%d matrix = %d", side, side, w.status)
				}
			}
			allocs = testing.AllocsPerRun(50, serve)
			const runs = 100
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				serve()
			}
			runtime.ReadMemStats(&m1)
			return allocs, (m1.TotalAlloc - m0.TotalAlloc) / runs
		}
		smallAllocs, smallBytes := measure(8)
		largeAllocs, largeBytes := measure(32)
		if smallAllocs != largeAllocs {
			t.Errorf("cache %d: a matrix allocates %v objects at 8×8, %v at 32×32: allocation grows with the cell count",
				cacheSize, smallAllocs, largeAllocs)
		}
		// 32×32 distances are 8 KiB; allocating them afresh would add most
		// of that to the larger request.
		if grow := int64(largeBytes) - int64(smallBytes); grow > 32*32*8/2 {
			t.Errorf("cache %d: a 32×32 matrix allocates %d more bytes than an 8×8 one: the distances are not pooled",
				cacheSize, grow)
		}
		t.Logf("cache %d: %v allocations, %d → %d bytes per id /v1/matrix request (8×8 → 32×32)",
			cacheSize, smallAllocs, smallBytes, largeBytes)
	}
}
