// Command sebuild constructs a distance index from a terrain (OFF) — an SE
// POI oracle, an arbitrary-point A2A oracle, or a dynamic oracle — and
// serializes it as a self-describing container that sequery and seserve
// load.
//
// Usage:
//
//	sebuild -terrain terrain.off -pois pois.txt -out index.sedx
//	        [-kind se|a2a|dynamic] [-eps 0.1] [-greedy] [-naive]
//	        [-seed 1] [-check] [-workers 0] [-sites-per-edge 0] [-shards 1]
//	        [-lod 0] [-portals-per-edge 0] [-layout flat]
//
// -kind=a2a indexes the terrain itself (every vertex plus per-edge Steiner
// sites), so -pois is not required; se and dynamic index the POI file.
//
// -shards=K (se kind) tiles the terrain's planar bounding box into K tiles,
// builds one SE oracle per non-empty tile in parallel, and writes them as
// one multi container ("tile-<col>-<row>" members with their tile bboxes)
// that seserve routes across by name or coordinates. Output is
// byte-identical for any -workers value. Without -check the container is
// streamed tile by tile — each member is built, encoded and dropped before
// the next, so peak memory is about one tile, not the whole container.
//
// -lod=K (with -shards) adds K-1 coarse levels above the fine tile grid:
// boundary portals are placed on every shared tile edge so short
// cross-tile queries stitch exactly, and each coarse level is one
// terrain-spanning A2A member that answers long-range queries cheaply.
// The result is one hierarchical multi container with a global id space
// (see seserve -mem-budget for serving it larger than RAM).
//
// -layout=flat (se kind) re-lays a single SE oracle into the zero-parse
// flat container: seserve then queries it straight from the memory-mapped
// file with O(1) cold start (see seconvert to upgrade already-written
// containers). A -shards container needs no flag: its SE tiles are always
// written flat, and so is the inner oracle of every a2a container.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"seoracle/internal/core"
	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

func main() {
	var (
		terrainPath  = flag.String("terrain", "terrain.off", "input OFF mesh")
		poisPath     = flag.String("pois", "pois.txt", "input POI file (se and dynamic kinds)")
		out          = flag.String("out", "oracle.se", "output index container path")
		kind         = flag.String("kind", "se", "index kind: se (POI oracle), a2a (arbitrary points), dynamic (insert/delete)")
		eps          = flag.Float64("eps", 0.1, "error parameter epsilon")
		greedy       = flag.Bool("greedy", false, "use the greedy point-selection strategy")
		naive        = flag.Bool("naive", false, "use the naive construction (SE-Naive)")
		seed         = flag.Int64("seed", 1, "random seed")
		check        = flag.Bool("check", false, "verify oracle invariants after construction (se kind)")
		workers      = flag.Int("workers", 0, "construction worker goroutines (0 = all CPUs; output is identical for any value)")
		sitesPerEdge = flag.Int("sites-per-edge", 0, "a2a: Steiner sites per mesh edge (0 = derive from eps)")
		shards       = flag.Int("shards", 1, "se: tile the terrain into this many shards and write a multi container")
		lod          = flag.Int("lod", 0, "se sharded: total LOD levels including the fine grid (0 or 1 = flat grid; 2+ adds coarse members and boundary portals)")
		portalsEdge  = flag.Int("portals-per-edge", 0, "se sharded with -lod: boundary portals per shared tile edge (0 = default)")
		layout       = flag.String("layout", "", "single se container layout: \"\" (decoded sections) or \"flat\" (zero-parse mmap layout); -shards tiles are always flat")
	)
	flag.Parse()

	ft, err := os.Open(*terrainPath)
	if err != nil {
		fatal("%v", err)
	}
	m, err := terrain.ReadOFF(ft)
	ft.Close()
	if err != nil {
		fatal("reading terrain: %v", err)
	}

	opt := core.Options{Epsilon: *eps, Seed: *seed, NaivePairDistances: *naive, Workers: *workers}
	if *greedy {
		opt.Selection = core.SelectGreedy
	}

	readPOIs := func() []terrain.SurfacePoint {
		fp, err := os.Open(*poisPath)
		if err != nil {
			fatal("%v", err)
		}
		pois, err := terrain.ReadPOIs(fp, m)
		fp.Close()
		if err != nil {
			fatal("reading POIs: %v", err)
		}
		return gen.Dedup(pois, 1e-9)
	}

	if *shards > 1 && *kind != "se" {
		fatal("-shards needs -kind=se (got %q)", *kind)
	}
	if *lod > 1 && *shards <= 1 {
		fatal("-lod needs -shards > 1 (one tile has no hierarchy to build)")
	}
	switch *layout {
	case "", "flat":
	default:
		fatal("unknown -layout %q (want \"\" or \"flat\")", *layout)
	}
	if *layout == "flat" && *kind != "se" {
		fatal("-layout=flat applies to -kind=se (an a2a container holds its inner oracle flat already; dynamic has no flat layout)")
	}
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}

	start := time.Now()
	var idx core.DistanceIndex
	switch *kind {
	case "se":
		if *shards > 1 {
			lodOpt := core.LODOptions{Options: opt, Levels: *lod, PortalsPerEdge: *portalsEdge}
			if !*check {
				// Streaming build: each tile is built, encoded into the
				// container and dropped before the next starts, so peak
				// memory tracks one tile rather than the whole output. The
				// bytes are identical to the resident path below.
				fo, err := os.Create(*out)
				if err != nil {
					fatal("%v", err)
				}
				sum, err := core.WriteSharded(fo, geodesic.NewExact(m), m, readPOIs(), *shards, lodOpt)
				if err != nil {
					fatal("building sharded oracle: %v", err)
				}
				if err := fo.Close(); err != nil {
					fatal("writing index: %v", err)
				}
				fmt.Printf("index: kind=multi, %d points, eps=%g -> %s (streamed)\n", sum.Points, *eps, *out)
				fmt.Printf("shards: %d fine tiles + %d coarse members, %d portals\n",
					sum.FineTiles, sum.CoarseTiles, sum.Portals)
				fmt.Printf("build: %v total, %d workers, peak memory ~ one tile\n",
					time.Since(start).Round(time.Millisecond), nw)
				return
			}
			sh, err := core.BuildShardedLOD(geodesic.NewExact(m), m, readPOIs(), *shards, lodOpt)
			if err != nil {
				fatal("building sharded oracle: %v", err)
			}
			checked := 0
			for _, mm := range sh.Members() {
				// Coarse members are site oracles with their own build-time
				// validation; the SE invariant check covers the fine tiles.
				if o, ok := mm.Index.(*core.Oracle); ok {
					if err := o.CheckInvariants(); err != nil {
						fatal("invariant check failed on shard %s: %v", mm.Name, err)
					}
					checked++
				}
			}
			fmt.Printf("invariants: ok (%d shards)\n", checked)
			idx = sh
			break
		}
		oracle, err := core.Build(geodesic.NewExact(m), readPOIs(), opt)
		if err != nil {
			fatal("building oracle: %v", err)
		}
		if *check {
			if err := oracle.CheckInvariants(); err != nil {
				fatal("invariant check failed: %v", err)
			}
			fmt.Println("invariants: ok")
		}
		idx = oracle
	case "a2a":
		so, err := core.BuildSiteOracle(geodesic.NewExact(m), m, core.SiteOptions{
			Options:      opt,
			SitesPerEdge: *sitesPerEdge,
		})
		if err != nil {
			fatal("building a2a oracle: %v", err)
		}
		idx = so
	case "dynamic":
		d, err := core.NewDynamicOracle(geodesic.NewExact(m), m, readPOIs(), opt)
		if err != nil {
			fatal("building dynamic oracle: %v", err)
		}
		idx = d
	default:
		fatal("unknown -kind %q (want se, a2a or dynamic)", *kind)
	}
	elapsed := time.Since(start)

	if *layout == "flat" && *shards <= 1 {
		flat, err := core.ConvertFlat(idx)
		if err != nil {
			fatal("converting to the flat layout: %v", err)
		}
		idx = flat
	}

	fo, err := os.Create(*out)
	if err != nil {
		fatal("%v", err)
	}
	if err := idx.EncodeTo(fo); err != nil {
		fatal("writing index: %v", err)
	}
	if err := fo.Close(); err != nil {
		fatal("writing index: %v", err)
	}

	st := idx.Stats()
	fmt.Printf("index: kind=%s, %d points, eps=%g, h=%d -> %s\n", st.Kind, st.Points, st.Epsilon, st.Height, *out)
	if sh, ok := idx.(*core.ShardedIndex); ok {
		for _, mm := range sh.Members() {
			ms := mm.Index.Stats()
			fmt.Printf("shard %s: %d points, %d pairs, bbox [%.6g,%.6g]x[%.6g,%.6g]\n",
				mm.Name, ms.Points, ms.Pairs, mm.BBox.MinX, mm.BBox.MaxX, mm.BBox.MinY, mm.BBox.MaxY)
		}
	}
	if st.Sites > 0 {
		fmt.Printf("sites: %d (%d per edge, spacing %.3g, local threshold %.3g)\n",
			st.Sites, st.SitesPerEdge, st.SiteSpacing, st.LocalThreshold)
	}
	b := st.Build
	fmt.Printf("build: %v total (tree %v, edges %v, pairs %v, hash %v), %d SSADs, %d workers\n",
		elapsed.Round(time.Millisecond), b.TreeTime.Round(time.Millisecond),
		b.EdgeTime.Round(time.Millisecond), b.PairTime.Round(time.Millisecond),
		b.HashTime.Round(time.Millisecond), b.SSADCalls, nw)
	// Flat indexes hold their weight in the zero-parse body (reported as
	// mapped bytes), not the Go heap — count both so -layout=flat doesn't
	// print a near-zero size.
	fmt.Printf("size: %d node pairs, %.3f MB\n", st.Pairs,
		float64(st.MemoryBytes+core.MappedBytesOf(idx))/(1<<20))
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "sebuild: "+format+"\n", args...)
	os.Exit(1)
}
