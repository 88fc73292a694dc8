// Benchmarks for the LOD shard hierarchy: the cost of faulting a lazily
// loaded member in from the container image (the -mem-budget serving path's
// cache miss) and the hot cost of portal-stitched and coarse-routed
// cross-tile queries against a same-tile baseline. The cold_fault_ns column
// lands in BENCH_perf.json's Metrics map as a trajectory series.
package seoracle

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"seoracle/internal/core"
	"seoracle/internal/exp"
	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
)

// lodBench caches one built hierarchical container: the resident index, its
// encoded bytes, and a near-seam cross-tile global id pair.
type lodBench struct {
	sh      *core.ShardedIndex
	encoded []byte
	crossS  int32 // near-seam cross-member pair: portal-stitched
	crossT  int32
	sameS   int32 // same-member pair: the intra-tile baseline
	sameT   int32
	farS    int32 // widest coarse-routed pair: site regime
	farT    int32
	localS  int32 // widest coarse-routed pair in the short-range regime
	localT  int32
}

var (
	lodBenchMu  sync.Mutex
	lodBenchVal *lodBench
)

// lodBenchWorld builds (once) a 2-level, 4-tile hierarchical index over the
// sf-small benchmark terrain and picks the measurement pairs: the
// cross-member pair with the smallest planar separation (guaranteed to
// route through boundary portals, not the coarse level), the widest
// coarse-routed pairs answered by the site scan and by the short-range
// exact regime, and a same-member pair for the baseline.
func lodBenchWorld(b *testing.B) *lodBench {
	b.Helper()
	lodBenchMu.Lock()
	defer lodBenchMu.Unlock()
	if lodBenchVal != nil {
		return lodBenchVal
	}
	w := world(b, "sf-small", exp.SFSmall)
	sh, err := core.BuildShardedLOD(w.eng, w.ds.Mesh, w.ds.POIs, 4, core.LODOptions{
		Options:        core.Options{Epsilon: 0.25, Seed: 1},
		Levels:         2,
		PortalsPerEdge: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sh.EncodeTo(&buf); err != nil {
		b.Fatal(err)
	}
	lb := &lodBench{sh: sh, encoded: buf.Bytes(), sameT: 1}

	// Locate every global id's member and surface point.
	n := sh.NumGlobalIDs()
	owner := make([]string, n)
	px := make([]float64, n)
	py := make([]float64, n)
	pts := map[string][]int32{}
	for g := 0; g < n; g++ {
		name, local, ok := sh.MemberOf(int32(g))
		if !ok {
			b.Fatalf("global id %d unresolvable", g)
		}
		owner[g] = name
		for _, m := range sh.Members() {
			if m.Name == name {
				p := m.Index.(*core.Oracle).Points()[local]
				px[g], py[g] = p.P.X, p.P.Y
			}
		}
		pts[name] = append(pts[name], int32(g))
	}
	var coarse *core.SiteOracle
	for _, m := range sh.Members() {
		if so, ok := m.Index.(*core.SiteOracle); ok {
			coarse = so
		}
	}
	if coarse == nil {
		b.Fatal("hierarchical benchmark index has no resident coarse member")
	}
	best, farSpan, localSpan := math.Inf(1), -1.0, -1.0
	for s := 0; s < n; s++ {
		for t := s + 1; t < n; t++ {
			if owner[s] == owner[t] {
				continue
			}
			d := math.Hypot(px[s]-px[t], py[s]-py[t])
			if d < best {
				best, lb.crossS, lb.crossT = d, int32(s), int32(t)
			}
			before, _ := sh.TileStats()
			local := coarse.LocalQueries()
			if _, err := sh.Query(int32(s), int32(t)); err != nil {
				b.Fatal(err)
			}
			if after, _ := sh.TileStats(); after.CoarseQueries == before.CoarseQueries {
				continue
			}
			if coarse.LocalQueries() > local {
				if d > localSpan {
					localSpan, lb.localS, lb.localT = d, int32(s), int32(t)
				}
			} else if d > farSpan {
				farSpan, lb.farS, lb.farT = d, int32(s), int32(t)
			}
		}
	}
	if farSpan < 0 || localSpan < 0 {
		b.Fatalf("coarse-routed pairs: site regime found %v, short-range regime found %v", farSpan >= 0, localSpan >= 0)
	}
	if math.IsInf(best, 1) {
		b.Fatal("no cross-member pair in the benchmark world")
	}
	for _, ids := range pts {
		if len(ids) >= 2 {
			lb.sameS, lb.sameT = ids[0], ids[1]
			break
		}
	}
	// Confirm the near-seam pair actually routes through portals.
	before, _ := sh.TileStats()
	if _, err := sh.Query(lb.crossS, lb.crossT); err != nil {
		b.Fatal(err)
	}
	after, _ := sh.TileStats()
	if after.PortalQueries <= before.PortalQueries {
		b.Fatalf("near-seam pair (%d,%d) did not take the portal route", lb.crossS, lb.crossT)
	}
	lodBenchVal = lb
	return lb
}

// BenchmarkBuildLOD measures a hierarchical build at the shape perfbench's
// tiled-budget workload serves: an 11×11 fractal terrain (seed 1701), 80
// uniform POIs (seed 1705), nine fine tiles and one coarse level at one
// Steiner site per edge, ε = 0.25, at the default worker count. ssads is
// the SSAD count summed over the ten members.
func BenchmarkBuildLOD(b *testing.B) {
	m, err := gen.Fractal(gen.FractalSpec{NX: 11, NY: 11, CellDX: 30, Amp: 220, Seed: 1701})
	if err != nil {
		b.Fatal(err)
	}
	pois, err := gen.UniformPOIs(m, 80, 1705)
	if err != nil {
		b.Fatal(err)
	}
	eng := geodesic.NewExact(m)
	opt := core.LODOptions{Options: core.Options{Epsilon: 0.25, Seed: 1}, Levels: 2, SitesPerEdge: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh, err := core.BuildShardedLOD(eng, m, pois, 9, opt)
		if err != nil {
			b.Fatal(err)
		}
		ssads := 0
		for _, mb := range sh.Members() {
			switch v := mb.Index.(type) {
			case *core.Oracle:
				ssads += v.BuildStats().SSADCalls
			case *core.SiteOracle:
				ssads += v.Inner().BuildStats().SSADCalls
			}
		}
		b.ReportMetric(float64(ssads), "ssads")
	}
}

// BenchmarkColdFault measures the -mem-budget serving path's cache miss:
// each iteration lazily loads the hierarchical container (members stay byte
// ranges) and answers one pair, which faults members in from the image.
// "cross-tile" is the near-seam pair, answered through portals: it faults
// both endpoint tiles. "coarse" is the widest coarse-routed pair of the site
// regime: it faults the endpoint tiles (for their points) and the coarse A2A
// member. The per-iteration time is the cold start-to-first-answer,
// reported as cold_fault_ns.
func BenchmarkColdFault(b *testing.B) {
	lb := lodBenchWorld(b)
	for _, bc := range []struct {
		name   string
		s, t   int32
		coarse bool
	}{{"cross-tile", lb.crossS, lb.crossT, false}, {"coarse", lb.farS, lb.farT, true}} {
		b.Run(bc.name, func(b *testing.B) {
			var idx core.DistanceIndex
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if idx, _, err = core.LoadBytesOpts(lb.encoded, nil, core.LoadOptions{MemBudget: 1 << 30}); err != nil {
					b.Fatal(err)
				}
				if _, err := idx.Query(bc.s, bc.t); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if ts, _ := idx.(*core.ShardedIndex).TileStats(); (ts.CoarseQueries == 1) != bc.coarse {
				b.Fatalf("pair (%d,%d): %d coarse queries, want coarse route %v", bc.s, bc.t, ts.CoarseQueries, bc.coarse)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "cold_fault_ns")
		})
	}
}

// BenchmarkPortalQuery measures the hot portal-stitching path: a resident
// hierarchical index answering the near-seam cross-tile pair, which takes
// min over shared-edge portals of two member-local oracle queries.
func BenchmarkPortalQuery(b *testing.B) {
	lb := lodBenchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lb.sh.Query(lb.crossS, lb.crossT); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSameTileQuery is BenchmarkPortalQuery's baseline: the same index
// answering a pair owned by one member, one partition-tree walk with no
// stitching. The gap between the two is the portal overhead.
func BenchmarkSameTileQuery(b *testing.B) {
	lb := lodBenchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lb.sh.Query(lb.sameS, lb.sameT); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoarseQuery measures the coarse route: a resident hierarchical
// index answering a cross-member pair through the coarse A2A level. "sites"
// is the widest such pair, resolved by the site scan alone; "short-range"
// is the widest pair whose site bound falls below the level's short-range
// threshold, so the answer also runs the radius-bounded exact SSAD.
func BenchmarkCoarseQuery(b *testing.B) {
	lb := lodBenchWorld(b)
	for _, bc := range []struct {
		name string
		s, t int32
	}{{"sites", lb.farS, lb.farT}, {"short-range", lb.localS, lb.localT}} {
		b.Run(bc.name, func(b *testing.B) {
			before, _ := lb.sh.TileStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lb.sh.Query(bc.s, bc.t); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if after, _ := lb.sh.TileStats(); after.CoarseQueries < before.CoarseQueries+int64(b.N) {
				b.Fatalf("pair (%d,%d) did not take the coarse route", bc.s, bc.t)
			}
		})
	}
}
