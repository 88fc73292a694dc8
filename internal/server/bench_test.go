package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"seoracle/internal/core"
)

// In-process serving benchmarks: one request through Handler().ServeHTTP —
// middleware, parse, route, core probe and encode, without a socket. Unless
// a benchmark says otherwise it serves the test world's SE oracle in the
// flat layout with the query cache off, so every request reaches core.
// The *http.Request is built once and its body rewound before each
// iteration, so ns/op and allocs/op count the handler's work, not
// httptest's request parsing.

// serveBench replays one request to h b.N times; body builds the request
// body from the index's POI count (nil for a GET).
func serveBench(b *testing.B, h http.Handler, npois int, method, target string, body func(npois int) []byte) {
	var data []byte
	if body != nil {
		data = body(npois)
	}
	rd := bytes.NewReader(data)
	req := httptest.NewRequest(method, target, rd)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		w.status = 0
		rd.Reset(data)
		h.ServeHTTP(w, req)
	}
	serve()
	if w.status != http.StatusOK {
		b.Fatalf("%s %s = %d", method, target, w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// flatBench is serveBench on the flat SE target with the cache off.
func flatBench(b *testing.B, method, target string, body func(npois int) []byte) {
	h, npois := flatHandler(b)
	serveBench(b, h, npois, method, target, body)
}

// BenchmarkServeQuery answers one id pair straight from the index (id
// distances are never cached) on each index form: the decoded SE oracle,
// the flat layout, and a hierarchical multi container addressed by global
// ids, once within a tile and once across tiles (portal or coarse route).
func BenchmarkServeQuery(b *testing.B) {
	b.Run("se", func(b *testing.B) {
		o := seOracle(b)
		serveBench(b, New(o).Handler(), o.Stats().Points, http.MethodGet, "/v1/query?s=1&t=5", nil)
	})
	b.Run("flat", func(b *testing.B) {
		flatBench(b, http.MethodGet, "/v1/query?s=1&t=5", nil)
	})
	sh := lodWorld(b)
	h := New(sh).Handler()
	b.Run("lod-same-tile", func(b *testing.B) {
		gs, gt := sameGlobalPair(b, sh)
		serveBench(b, h, sh.NumGlobalIDs(), http.MethodGet, fmt.Sprintf("/v1/query?s=%d&t=%d", gs, gt), nil)
	})
	b.Run("lod-cross-tile", func(b *testing.B) {
		gs, gt := crossGlobalPair(b, sh)
		serveBench(b, h, sh.NumGlobalIDs(), http.MethodGet, fmt.Sprintf("/v1/query?s=%d&t=%d", gs, gt), nil)
	})
}

// sameGlobalPair returns two distinct global ids owned by one member.
func sameGlobalPair(tb testing.TB, sh *core.ShardedIndex) (int32, int32) {
	tb.Helper()
	owner := map[string]int32{}
	for g := 0; g < sh.NumGlobalIDs(); g++ {
		name, _, ok := sh.MemberOf(int32(g))
		if !ok {
			tb.Fatalf("global id %d unresolvable", g)
		}
		if first, seen := owner[name]; seen {
			return first, int32(g)
		}
		owner[name] = int32(g)
	}
	tb.Fatal("no member owns two global ids")
	return 0, 0
}

// BenchmarkServeBatch sends the 1024-pair batch of the bulk serving mix.
func BenchmarkServeBatch(b *testing.B) {
	flatBench(b, http.MethodPost, "/v1/batch", func(npois int) []byte { return batchBody(1024, npois) })
}

// BenchmarkServeMatrix sends a 16×16 id matrix (ids wrap around the POIs).
func BenchmarkServeMatrix(b *testing.B) {
	flatBench(b, http.MethodPost, "/v1/matrix", func(npois int) []byte { return idMatrixBody(16, npois) })
}

// BenchmarkServePath computes one id path on every request.
func BenchmarkServePath(b *testing.B) {
	flatBench(b, http.MethodGet, "/v1/path?s=0&t=5", nil)
}

// BenchmarkServePathCached repeats the path of BenchmarkServePath on a
// server with the query cache on: every timed request is an LRU hit, so
// the gap between the two is what the cache saves on a path.
func BenchmarkServePathCached(b *testing.B) {
	o := seOracle(b)
	flat, err := core.ConvertFlat(o)
	if err != nil {
		b.Fatal(err)
	}
	h := NewWithOptions(flat, Options{CacheSize: 64}).Handler()
	serveBench(b, h, o.Stats().Points, http.MethodGet, "/v1/path?s=0&t=5", nil)
}

// BenchmarkAppendFloat formats the 1 024 distances of the bulk mix's batch
// (batchBody's pairs on the test world's flat oracle) and reports ns per
// float: "codec" is the response codec's appendFloat, "strconv" the same
// digits from strconv.AppendFloat (every distance is in json's 'f' range),
// the formatter the codec used before it had its own.
func BenchmarkAppendFloat(b *testing.B) {
	o := seOracle(b)
	flat, err := core.ConvertFlat(o)
	if err != nil {
		b.Fatal(err)
	}
	npois := o.Stats().Points
	pairs := make([][2]int32, 1024)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i % npois), int32((i*7 + 3) % npois)}
	}
	ds, err := flat.QueryBatch(pairs, nil)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, 32*len(ds))
	run := func(b *testing.B, format func(b []byte, f float64) []byte) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, d := range ds {
				buf = format(buf, d)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ds)), "ns/float")
	}
	b.Run("codec", func(b *testing.B) {
		run(b, func(b []byte, f float64) []byte { b, _ = appendFloat(b, f); return b })
	})
	b.Run("strconv", func(b *testing.B) {
		run(b, func(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'f', -1, 64) })
	})
}
