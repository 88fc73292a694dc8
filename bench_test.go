// Benchmarks regenerating every table and figure of the evaluation (§5) at
// benchmark scale, plus ablations for the design choices DESIGN.md calls
// out. Each table/figure has a dedicated benchmark; `cmd/experiments` runs
// the same code paths at full sweep ranges.
package seoracle

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"seoracle/internal/baseline"
	"seoracle/internal/core"
	"seoracle/internal/exp"
	"seoracle/internal/geodesic"
	"seoracle/internal/steiner"
	"seoracle/internal/terrain"
)

// benchWorld caches a dataset across benchmarks.
type benchWorld struct {
	ds  *exp.Dataset
	eng *geodesic.Exact
}

// benchKey identifies a cached world by dataset name AND scale: the same
// dataset function produces entirely different worlds per scale, so a
// name-only key would silently hand a Quick mesh to a Full benchmark.
type benchKey struct {
	name  string
	scale exp.Scale
}

// benchCacheMu serializes cache access. Top-level benchmarks run serially,
// but sub-benchmarks of a future b.RunParallel (and the race detector) need
// the map to be locked rather than documented as "don't".
var (
	benchCacheMu sync.Mutex
	benchCache   = map[benchKey]*benchWorld{}
)

func world(b *testing.B, name string, mk func(exp.Scale) (*exp.Dataset, error)) *benchWorld {
	return worldAt(b, name, exp.Quick, mk)
}

func worldAt(b *testing.B, name string, scale exp.Scale, mk func(exp.Scale) (*exp.Dataset, error)) *benchWorld {
	b.Helper()
	key := benchKey{name: name, scale: scale}
	benchCacheMu.Lock()
	defer benchCacheMu.Unlock()
	if w, ok := benchCache[key]; ok {
		return w
	}
	ds, err := mk(scale)
	if err != nil {
		b.Fatal(err)
	}
	w := &benchWorld{ds: ds, eng: geodesic.NewExact(ds.Mesh)}
	benchCache[key] = w
	return w
}

func buildSE(b *testing.B, w *benchWorld, eps float64, sel core.Selection) *core.Oracle {
	b.Helper()
	o, err := core.Build(w.eng, w.ds.POIs, core.Options{Epsilon: eps, Selection: sel, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// --- Parallel construction: worker sweep on the seeded benchmark terrain ---

// BenchmarkBuildParallel sweeps Options.Workers over 1/2/4/8 on the same
// seeded terrain. Every row builds a bit-identical oracle; the wall-clock
// spread is the speedup of the parallel SSAD fan-out.
func BenchmarkBuildParallel(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o, err := core.Build(w.eng, w.ds.POIs, core.Options{Epsilon: 0.1, Seed: 1, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(o.BuildStats().SSADCalls), "ssads")
			}
		})
	}
}

// --- Table 1: construction cost drivers (SSAD count, pair count) ---

func BenchmarkTable1_SEBuild(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	for i := 0; i < b.N; i++ {
		o := buildSE(b, w, 0.25, core.SelectRandom)
		b.ReportMetric(float64(o.BuildStats().SSADCalls), "ssads")
		b.ReportMetric(float64(o.NumPairs()), "pairs")
	}
}

// --- Table 2/3: dataset statistics and query-distance statistics ---

func BenchmarkTable2_DatasetStats(b *testing.B) {
	w := world(b, "bh", exp.BearHead)
	for i := 0; i < b.N; i++ {
		s := w.ds.Mesh.ComputeStats()
		if s.NumVerts == 0 {
			b.Fatal("empty stats")
		}
	}
}

func BenchmarkTable3_QueryDistances(b *testing.B) {
	w := world(b, "bh", exp.BearHead)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := rng.Intn(len(w.ds.POIs))
		t := rng.Intn(len(w.ds.POIs))
		w.eng.DistancesTo(w.ds.POIs[s], []terrain.SurfacePoint{w.ds.POIs[t]}, geodesic.Stop{CoverTargets: true})
	}
}

// --- Figure 8: effect of ε on SF-small (P2P), one benchmark per panel ---

func BenchmarkFig8_BuildSERandom(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	for i := 0; i < b.N; i++ {
		buildSE(b, w, 0.1, core.SelectRandom)
	}
}

func BenchmarkFig8_BuildSEGreedy(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	for i := 0; i < b.N; i++ {
		buildSE(b, w, 0.1, core.SelectGreedy)
	}
}

func BenchmarkFig8_BuildKAlgo(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	for i := 0; i < b.N; i++ {
		if _, err := baseline.NewKAlgo(w.ds.Mesh, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_QuerySE(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	o := buildSE(b, w, 0.1, core.SelectRandom)
	rng := rand.New(rand.NewSource(8))
	n := int32(len(w.ds.POIs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Query(rng.Int31n(n), rng.Int31n(n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8_QueryBatch drives the bulk-query surface: one QueryBatch
// call per iteration over a fixed pair set with a preallocated destination,
// the shape a high-throughput server would use. Expect 0 allocs/op.
func BenchmarkFig8_QueryBatch(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	o := buildSE(b, w, 0.1, core.SelectRandom)
	rng := rand.New(rand.NewSource(8))
	n := int32(len(w.ds.POIs))
	pairs := make([][2]int32, 1024)
	for i := range pairs {
		pairs[i] = [2]int32{rng.Int31n(n), rng.Int31n(n)}
	}
	dst := make([]float64, len(pairs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.QueryBatch(pairs, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pairs)), "queries/op")
}

// BenchmarkQueryPath drives the path-reporting surface: QueryPath runs the
// same O(h) pair scan as Query, then stitches center-chain geodesic hops.
// Hop segments are cached across calls, so steady-state cost is the scan
// plus polyline assembly; the first query for a hop pays its exact SSAD.
func BenchmarkQueryPath(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	o := buildSE(b, w, 0.1, core.SelectRandom)
	rng := rand.New(rand.NewSource(8))
	n := int32(len(w.ds.POIs))
	// Warm the hop cache over the benchmark's pair distribution so the
	// timed loop measures serving-path steady state.
	warm := rand.New(rand.NewSource(8))
	for i := 0; i < 256; i++ {
		if _, _, err := o.QueryPath(warm.Int31n(n), warm.Int31n(n)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, _, err := o.QueryPath(rng.Int31n(n), rng.Int31n(n))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(path)), "vertices")
		}
	}
}

// BenchmarkQueryMatrix drives the many-to-many workload: one 32×32
// QueryMatrix call per iteration into a preallocated destination — the
// /v1/matrix serving shape. Rows are computed in parallel over the pooled
// batch scratch.
func BenchmarkQueryMatrix(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	o := buildSE(b, w, 0.1, core.SelectRandom)
	rng := rand.New(rand.NewSource(8))
	n := int32(len(w.ds.POIs))
	sources := make([]int32, 32)
	targets := make([]int32, 32)
	for i := range sources {
		sources[i] = rng.Int31n(n)
		targets[i] = rng.Int31n(n)
	}
	dst := make([]float64, len(sources)*len(targets))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.QueryMatrix(sources, targets, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sources)*len(targets)), "cells/op")
}

// BenchmarkNearestK drives the k-nearest workload at k=8: the B+-tree
// candidate scan over quantized planar distances plus the exact re-sort —
// the /v1/nearest?k=N serving shape.
func BenchmarkNearestK(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	o := buildSE(b, w, 0.1, core.SelectRandom)
	rng := rand.New(rand.NewSource(8))
	pts := o.Points()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[rng.Intn(len(pts))]
		if _, err := o.NearestK(p.P.X+1, p.P.Y-1, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_QueryKAlgo(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	k, err := baseline.NewKAlgo(w.ds.Mesh, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	n := len(w.ds.POIs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Query(w.ds.POIs[rng.Intn(n)], w.ds.POIs[rng.Intn(n)])
	}
}

func BenchmarkFig8_SizeSE(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	o := buildSE(b, w, 0.1, core.SelectRandom)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(o.MemoryBytes()), "bytes")
	}
}

// --- Figure 9: effect of n (P2P query throughput at growing n) ---

func BenchmarkFig9_QuerySEByN(b *testing.B) {
	w := world(b, "sf", exp.SanFrancisco)
	o := buildSE(b, w, 0.1, core.SelectRandom)
	rng := rand.New(rand.NewSource(10))
	n := int32(len(w.ds.POIs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Query(rng.Int31n(n), rng.Int31n(n)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 10: effect of N (build at growing terrain size) ---

func BenchmarkFig10_BuildSEByN(b *testing.B) {
	ds, err := exp.BearHeadAtN(17, 30)
	if err != nil {
		b.Fatal(err)
	}
	eng := geodesic.NewExact(ds.Mesh)
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(eng, ds.POIs, core.Options{Epsilon: 0.1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 11: V2V (all vertices are POIs) ---

func BenchmarkFig11_V2VQuery(b *testing.B) {
	ds, err := exp.SFV2VAtN(9)
	if err != nil {
		b.Fatal(err)
	}
	eng := geodesic.NewExact(ds.Mesh)
	o, err := core.Build(eng, ds.POIs, core.Options{Epsilon: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	n := int32(len(ds.POIs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Query(rng.Int31n(n), rng.Int31n(n)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 12: A2A queries ---

func BenchmarkFig12_A2AQuery(b *testing.B) {
	w := world(b, "bh-lowres", exp.BearHeadLowRes)
	so, err := core.BuildSiteOracle(w.eng, w.ds.Mesh, core.SiteOptions{
		Options: core.Options{Epsilon: 0.2, Seed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	loc := terrain.NewLocator(w.ds.Mesh)
	st := w.ds.Mesh.ComputeStats()
	rng := rand.New(rand.NewSource(12))
	pt := func() terrain.SurfacePoint {
		for {
			x := st.BBoxMin.X + rng.Float64()*(st.BBoxMax.X-st.BBoxMin.X)
			y := st.BBoxMin.Y + rng.Float64()*(st.BBoxMax.Y-st.BBoxMin.Y)
			if p, ok := loc.Project(x, y); ok {
				return p
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := so.QueryPoints(pt(), pt()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 13/14: ε sweeps on BH and EP (build benchmarks) ---

func BenchmarkFig13_BuildSEBearHead(b *testing.B) {
	w := world(b, "bh", exp.BearHead)
	for i := 0; i < b.N; i++ {
		buildSE(b, w, 0.25, core.SelectRandom)
	}
}

func BenchmarkFig14_BuildSEEaglePeak(b *testing.B) {
	w := world(b, "ep", exp.EaglePeak)
	for i := 0; i < b.N; i++ {
		buildSE(b, w, 0.25, core.SelectRandom)
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// Greedy vs random point selection (§3.2, Implementation Detail 1).
func BenchmarkAblation_SelectionRandom(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	for i := 0; i < b.N; i++ {
		buildSE(b, w, 0.25, core.SelectRandom)
	}
}

func BenchmarkAblation_SelectionGreedy(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	for i := 0; i < b.N; i++ {
		buildSE(b, w, 0.25, core.SelectGreedy)
	}
}

// Efficient O(h) vs naive O(h²) query (§3.4).
func BenchmarkAblation_QueryEfficient(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	o := buildSE(b, w, 0.1, core.SelectRandom)
	rng := rand.New(rand.NewSource(13))
	n := int32(len(w.ds.POIs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Query(rng.Int31n(n), rng.Int31n(n)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_QueryNaive(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	o := buildSE(b, w, 0.1, core.SelectRandom)
	rng := rand.New(rand.NewSource(13))
	n := int32(len(w.ds.POIs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.QueryNaive(rng.Int31n(n), rng.Int31n(n)); err != nil {
			b.Fatal(err)
		}
	}
}

// Enhanced-edge construction vs naive per-pair SSAD (§3.5).
func BenchmarkAblation_ConstructionEfficient(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	for i := 0; i < b.N; i++ {
		buildSE(b, w, 0.25, core.SelectRandom)
	}
}

func BenchmarkAblation_ConstructionNaive(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(w.eng, w.ds.POIs, core.Options{
			Epsilon: 0.25, Seed: 1, NaivePairDistances: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Exact window-propagation SSAD vs Steiner-graph SSAD as the construction
// distance primitive.
func BenchmarkAblation_EngineExact(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	src := w.ds.POIs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.eng.DistancesTo(src, w.ds.POIs, geodesic.Stop{CoverTargets: true})
	}
}

func BenchmarkAblation_EngineSteiner(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	g, err := steiner.NewGraph(w.ds.Mesh, 3)
	if err != nil {
		b.Fatal(err)
	}
	eng := steiner.NewEngine(g)
	src := w.ds.POIs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.DistancesTo(src, w.ds.POIs, geodesic.Stop{CoverTargets: true})
	}
}
