// Benchmarks for the zero-parse flat container layout (PR 8): hot query
// parity against the decoded oracle, cold-start-to-first-query across a
// POI sweep (where the flat layout's O(1) start separates from the
// decoded layout's linear decode), and bytes-per-POI of the two on-disk
// encodings. The custom-unit columns (cold_start_to_first_query_ns,
// bytes_per_poi) land in BENCH_perf.json's Metrics map as first-class
// trajectory series.
package seoracle

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"seoracle/internal/core"
	"seoracle/internal/exp"
	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
)

// BenchmarkFig8_QueryFlat mirrors BenchmarkFig8_QuerySE on the flat layout:
// the same oracle converted with ConvertFlat and queried through the
// slab-walking hot path. The bar is ≤2× the decoded oracle's ns/op at
// 0 allocs/op — two loads off the mapped bytes per probe.
func BenchmarkFig8_QueryFlat(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	o := buildSE(b, w, 0.1, core.SelectRandom)
	fo, err := core.ConvertFlat(o)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	n := int32(len(w.ds.POIs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fo.Query(rng.Int31n(n), rng.Int31n(n)); err != nil {
			b.Fatal(err)
		}
	}
}

// coldWorld is one pre-encoded POI-sweep point: the same oracle serialized
// in both layouts, ready for per-iteration load-and-query timing.
type coldWorld struct {
	npoi    int
	decoded []byte
	flat    []byte
}

var (
	coldMu    sync.Mutex
	coldCache = map[int]*coldWorld{}
)

// coldWorldAt builds (once per multiplier) a 17×17 fractal terrain with
// 32·mult POIs and encodes the ε=0.25 oracle in the decoded and flat
// layouts. The mesh is fixed so the sweep varies only n: the decoded
// layout's cold start scales with the pair table, the flat layout's must
// not.
func coldWorldAt(b *testing.B, mult int) *coldWorld {
	b.Helper()
	coldMu.Lock()
	defer coldMu.Unlock()
	if w, ok := coldCache[mult]; ok {
		return w
	}
	m, err := gen.Fractal(gen.FractalSpec{NX: 17, NY: 17, CellDX: 10, Amp: 25, Seed: 900})
	if err != nil {
		b.Fatal(err)
	}
	pois, err := gen.UniformPOIs(m, 32*mult, 901)
	if err != nil {
		b.Fatal(err)
	}
	pois = gen.Dedup(pois, 1e-9)
	o, err := core.Build(geodesic.NewExact(m), pois, core.Options{Epsilon: 0.25, Seed: 902})
	if err != nil {
		b.Fatal(err)
	}
	var dec, flat bytes.Buffer
	if err := o.EncodeTo(&dec); err != nil {
		b.Fatal(err)
	}
	if err := o.EncodeFlatTo(&flat); err != nil {
		b.Fatal(err)
	}
	w := &coldWorld{npoi: len(pois), decoded: dec.Bytes(), flat: flat.Bytes()}
	coldCache[mult] = w
	return w
}

// BenchmarkColdStartFirstQuery measures load-a-container-and-answer-one-
// query, the latency a serving process pays between mapping a file and
// its first useful answer. Each iteration runs core.LoadBytesOpts on the
// pre-encoded image plus one Query. The decoded layout pays a full-image
// CRC and section decode (linear in the pair table); the flat layout
// validates a fixed-size header and slab directory, so its ns/op must
// stay flat across the 1×/4×/16× POI sweep and under 1 ms.
func BenchmarkColdStartFirstQuery(b *testing.B) {
	for _, mult := range []int{1, 4, 16} {
		w := coldWorldAt(b, mult)
		for _, lay := range []struct {
			name string
			blob []byte
		}{{"decoded", w.decoded}, {"flat", w.flat}} {
			b.Run(fmt.Sprintf("layout=%s/pois=%dx", lay.name, mult), func(b *testing.B) {
				s, t := int32(0), int32(w.npoi-1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					idx, _, err := core.LoadBytesOpts(lay.blob, nil, core.LoadOptions{})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := idx.Query(s, t); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N),
					"cold_start_to_first_query_ns")
			})
		}
	}
}

// BenchmarkSizePerPOI reports the on-disk footprint of the two layouts
// over the same oracle — the sf-small world BenchmarkFig8_SizeSE sizes —
// normalized per POI. The flat layout's compact 12-byte hash slots (vs
// 16-byte key+distance records) and deflated cold slabs must undercut
// the decoded se container by ≥25%; pair-table-dominated containers
// (large n, tight ε) converge toward the slot saving alone, ~18%.
func BenchmarkSizePerPOI(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	o := buildSE(b, w, 0.1, core.SelectRandom)
	var dec, flat bytes.Buffer
	if err := o.EncodeTo(&dec); err != nil {
		b.Fatal(err)
	}
	if err := o.EncodeFlatTo(&flat); err != nil {
		b.Fatal(err)
	}
	npoi := float64(len(w.ds.POIs))
	for _, lay := range []struct {
		name string
		size int
	}{{"decoded", dec.Len()}, {"flat", flat.Len()}} {
		b.Run(fmt.Sprintf("layout=%s", lay.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(float64(lay.size)/npoi, "bytes_per_poi")
			}
		})
	}
}
