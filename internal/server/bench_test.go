package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// In-process serving benchmarks: one request through Handler().ServeHTTP —
// middleware, parse, route, core probe and encode, without a socket — on
// the test world's SE oracle in the flat layout, with the query cache off
// so every request reaches core. Building the *http.Request is part of each
// iteration and of its allocation count.

// serveBench replays one request b.N times; body builds the request body
// from the index's POI count (nil for a GET).
func serveBench(b *testing.B, method, target string, body func(npois int) []byte) {
	h, npois := flatHandler(b)
	var data []byte
	if body != nil {
		data = body(npois)
	}
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		w.status = 0
		h.ServeHTTP(w, httptest.NewRequest(method, target, bytes.NewReader(data)))
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

func BenchmarkServeQuery(b *testing.B) {
	serveBench(b, http.MethodGet, "/v1/query?s=1&t=5", nil)
}

// BenchmarkServeBatch sends the 1024-pair batch of the bulk serving mix.
func BenchmarkServeBatch(b *testing.B) {
	serveBench(b, http.MethodPost, "/v1/batch", func(npois int) []byte { return batchBody(1024, npois) })
}

// BenchmarkServeMatrix sends a 16×16 id matrix (ids wrap around the POIs).
func BenchmarkServeMatrix(b *testing.B) {
	serveBench(b, http.MethodPost, "/v1/matrix", func(npois int) []byte {
		ids := make([]string, 16)
		for i := range ids {
			ids[i] = fmt.Sprint(i % npois)
		}
		list := "[" + strings.Join(ids, ",") + "]"
		return []byte(`{"sources":` + list + `,"targets":` + list + `}`)
	})
}

func BenchmarkServePath(b *testing.B) {
	serveBench(b, http.MethodGet, "/v1/path?s=0&t=5", nil)
}
