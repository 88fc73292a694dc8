// Command sequery loads a serialized index container of any kind (se, a2a,
// dynamic, flat or multi) and answers distance queries:
// from the command line by endpoint id or planar coordinates, as a batch
// from stdin ("s t" id pairs, one per line), or as an in-process throughput
// benchmark over random pairs. With -path it reports the surface path
// behind the answer as a GeoJSON LineString Feature on stdout. The PR 6
// workload modes mirror the serving layer's endpoints: -matrix prints a
// many-to-many distance matrix, -k lists the k nearest endpoints to a
// planar point, and -isochrone lists every endpoint within a surface
// distance budget (as GeoJSON with -geojson, contour included).
//
// Usage:
//
//	sequery -oracle index.sedx -s 3 -t 17
//	sequery -oracle index.sedx -path -s 3 -t 17                (GeoJSON path)
//	sequery -oracle index.sedx -sx 10 -sy 20 -tx 400 -ty 380   (a2a kinds)
//	sequery -oracle index.sedx -path -xy -sx 10 -sy 20 -tx 400 -ty 380
//	sequery -oracle index.sedx -batch < pairs.txt
//	sequery -oracle index.sedx -bench 100000
//	sequery -oracle multi.sedx -index tile-0-0 -s 3 -t 17      (multi kinds)
//	sequery -oracle index.sedx -matrix -sources 0,1,2 -targets 3,4
//	sequery -oracle index.sedx -k 5 -sx 10 -sy 20              (k nearest)
//	sequery -oracle index.sedx -isochrone 150 -s 3             (reachability)
//	sequery -oracle index.sedx -isochrone 150 -s 3 -geojson    (with contour)
//
// A multi (sharded) container holds several member indexes with
// member-local ids; pick one with -index (running without it lists the
// member names). A hierarchical multi (built with sebuild -lod) also
// answers without -index through its global id space — cross-tile pairs
// stitch through boundary portals or the coarse level transparently.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"seoracle/internal/core"
	"seoracle/internal/server"
	"seoracle/internal/terrain"
)

func main() {
	var (
		oraclePath = flag.String("oracle", "oracle.se", "serialized index container")
		indexName  = flag.String("index", "", "member name to query inside a multi container")
		s          = flag.Int("s", -1, "source endpoint id")
		t          = flag.Int("t", -1, "target endpoint id")
		sx         = flag.Float64("sx", 0, "source x (with -sy; a2a kinds)")
		sy         = flag.Float64("sy", 0, "source y")
		tx         = flag.Float64("tx", 0, "target x (with -ty; a2a kinds)")
		ty         = flag.Float64("ty", 0, "target y")
		xy         = flag.Bool("xy", false, "query by planar coordinates (-sx -sy -tx -ty)")
		path       = flag.Bool("path", false, "report the surface path as a GeoJSON LineString (with -s/-t or -xy)")
		batch      = flag.Bool("batch", false, "read 's t' id pairs from stdin")
		naive      = flag.Bool("naive", false, "use the O(h^2) naive query (se kind)")
		benchN     = flag.Int("bench", 0, "benchmark: time QueryBatch over this many random pairs")
		benchSeed  = flag.Int64("bench-seed", 1, "random seed for -bench pair generation")
		matrix     = flag.Bool("matrix", false, "print the row-major -sources × -targets distance matrix")
		sources    = flag.String("sources", "", "comma-separated source ids for -matrix")
		targets    = flag.String("targets", "", "comma-separated target ids for -matrix")
		k          = flag.Int("k", 0, "list the k nearest endpoints to (-sx, -sy)")
		isoD       = flag.Float64("isochrone", -1, "list endpoints within this surface distance of -s")
		geojson    = flag.Bool("geojson", false, "emit -isochrone as a GeoJSON FeatureCollection with its convex-hull contour")
	)
	flag.Parse()

	idx, _, err := server.LoadIndexOpts(*oraclePath, false, core.LoadOptions{})
	if err != nil {
		fatal("loading index: %v", err)
	}
	if sh, ok := idx.(*core.ShardedIndex); ok {
		if *indexName == "" {
			// A hierarchical multi routes a global id space: queries stay
			// on the root index and cross-tile pairs stitch transparently.
			// A legacy multi has only member-local ids, so -index is
			// mandatory there.
			if !sh.SupportsGlobal() {
				fatal("%s is a multi container with %d members (%s); pick one with -index",
					*oraclePath, sh.NumMembers(), strings.Join(sh.MemberNames(), ", "))
			}
		} else {
			m, ok := sh.Member(*indexName)
			if !ok {
				fatal("no member named %q in %s (members: %s)",
					*indexName, *oraclePath, strings.Join(sh.MemberNames(), ", "))
			}
			idx = m.Index
		}
	} else if *indexName != "" {
		fatal("-index addresses members of a multi container; %s holds a single %s index",
			*oraclePath, idx.Stats().Kind)
	}
	st := idx.Stats()
	query := idx.Query
	if *naive {
		oracle, ok := idx.(*core.Oracle)
		if !ok {
			fatal("-naive needs an se-kind index, this file holds %s", st.Kind)
		}
		query = oracle.QueryNaive
	}

	if *benchN > 0 {
		bench(idx, *benchN, *benchSeed, *naive)
		return
	}
	if *matrix {
		runMatrix(idx, *sources, *targets)
		return
	}
	if *k > 0 {
		runNearestK(idx, *sx, *sy, *k)
		return
	}
	if *isoD >= 0 {
		if *s < 0 {
			fatal("-isochrone needs a source id (-s)")
		}
		runIsochrone(idx, int32(*s), *isoD, *geojson)
		return
	}
	if *path {
		var (
			pts []terrain.SurfacePoint
			d   float64
			err error
		)
		if *xy {
			pp, ok := idx.(core.PointPathIndex)
			if !ok {
				fatal("coordinate path queries need an a2a-kind index, this file holds %s", st.Kind)
			}
			pts, d, err = pp.QueryPathXY(*sx, *sy, *tx, *ty)
		} else {
			if *s < 0 || *t < 0 {
				fatal("-path needs -s and -t (or -xy with coordinates)")
			}
			pi, ok := idx.(core.PathIndex)
			if !ok {
				fatal("index kind %s cannot report paths", st.Kind)
			}
			pts, d, err = pi.QueryPath(int32(*s), int32(*t))
		}
		if err != nil {
			fatal("path: %v", err)
		}
		if err := writeGeoJSON(os.Stdout, pts, d, st.Kind.String()); err != nil {
			fatal("encoding path: %v", err)
		}
		fmt.Fprintf(os.Stderr, "path: %d vertices, length %g (kind=%s, eps=%g)\n",
			len(pts), d, st.Kind, st.Epsilon)
		return
	}
	if *xy {
		pt, ok := idx.(core.PointIndex)
		if !ok {
			fatal("coordinate queries need an a2a-kind index, this file holds %s", st.Kind)
		}
		d, err := pt.QueryXY(*sx, *sy, *tx, *ty)
		if err != nil {
			fatal("query: %v", err)
		}
		fmt.Printf("d((%g,%g),(%g,%g)) = %g (kind=%s, eps=%g)\n", *sx, *sy, *tx, *ty, d, st.Kind, st.Epsilon)
		return
	}
	if *batch {
		sc := bufio.NewScanner(os.Stdin)
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		n := 0
		start := time.Now()
		for sc.Scan() {
			var a, b int32
			if _, err := fmt.Sscan(sc.Text(), &a, &b); err != nil {
				fatal("bad query line %q: %v", sc.Text(), err)
			}
			d, err := query(a, b)
			if err != nil {
				fatal("query: %v", err)
			}
			fmt.Fprintf(w, "%g\n", d)
			n++
		}
		el := time.Since(start)
		fmt.Fprintf(os.Stderr, "%d queries in %v (%.3f us/query)\n",
			n, el.Round(time.Microsecond), float64(el.Nanoseconds())/1000/float64(max(n, 1)))
		return
	}
	if *s < 0 || *t < 0 {
		fatal("need -s and -t (or -batch, -xy, -bench)")
	}
	d, err := query(int32(*s), int32(*t))
	if err != nil {
		fatal("query: %v", err)
	}
	fmt.Printf("d(%d,%d) = %g (kind=%s, eps=%g, h=%d)\n", *s, *t, d, st.Kind, st.Epsilon, st.Height)
}

// bench times the query path over n random endpoint pairs: the
// zero-allocation QueryBatch serving shape by default, or a QueryNaive loop
// under -naive. It runs whole passes over one pair set with a preallocated
// destination until at least a second has elapsed, then reports per-query
// latency and throughput.
func bench(idx core.DistanceIndex, n int, seed int64, naive bool) {
	st := idx.Stats()
	rng := rand.New(rand.NewSource(seed))
	// The valid id space is [0, Points) for dense kinds; a dynamic index
	// with churn history has tombstoned holes, so draw from its live ids.
	var ids []int32
	if d, ok := idx.(*core.DynamicOracle); ok {
		ids = d.LiveIDs()
	} else {
		ids = make([]int32, 0, st.Points)
		for i := 0; i < st.Points; i++ {
			ids = append(ids, int32(i))
		}
	}
	if len(ids) == 0 {
		fatal("bench: index reports no endpoints")
	}
	pairs := make([][2]int32, n)
	for i := range pairs {
		pairs[i] = [2]int32{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]}
	}
	dst := make([]float64, len(pairs))
	var oracle *core.Oracle
	if naive {
		oracle = idx.(*core.Oracle) // checked by the caller
	}
	onePass := func() error {
		if naive {
			for _, p := range pairs {
				d, err := oracle.QueryNaive(p[0], p[1])
				if err != nil {
					return err
				}
				dst[0] = d // keep the call observable
			}
			return nil
		}
		_, err := idx.QueryBatch(pairs, dst)
		return err
	}
	// Untimed warmup pass: page in the oracle and validate every pair.
	if err := onePass(); err != nil {
		fatal("bench: %v", err)
	}
	var (
		queries int
		passes  int
		start   = time.Now()
	)
	for time.Since(start) < time.Second {
		if err := onePass(); err != nil {
			fatal("bench: %v", err)
		}
		queries += len(pairs)
		passes++
	}
	el := time.Since(start)
	perQuery := float64(el.Nanoseconds()) / float64(queries)
	mode := "batch"
	if naive {
		mode = "naive"
	}
	fmt.Printf("mode=%s pairs=%d passes=%d elapsed=%v\n", mode, len(pairs), passes, el.Round(time.Millisecond))
	fmt.Printf("%.1f ns/query, %.0f queries/sec (kind=%s, eps=%g, h=%d, points=%d)\n",
		perQuery, 1e9/perQuery, st.Kind, st.Epsilon, st.Height, st.Points)
}

// parseIDs splits a comma-separated id list ("0,1,2") into int32 ids.
func parseIDs(flagName, list string) []int32 {
	if list == "" {
		fatal("-matrix needs -sources and -targets (comma-separated ids); -%s is empty", flagName)
	}
	parts := strings.Split(list, ",")
	ids := make([]int32, len(parts))
	for i, p := range parts {
		var id int32
		if _, err := fmt.Sscan(strings.TrimSpace(p), &id); err != nil {
			fatal("bad id %q in -%s: %v", p, flagName, err)
		}
		ids[i] = id
	}
	return ids
}

// runMatrix prints the sources × targets distance matrix, one row per
// source, tab-separated — the CLI twin of /v1/matrix.
func runMatrix(idx core.DistanceIndex, sourceList, targetList string) {
	mi, ok := idx.(core.MatrixIndex)
	if !ok {
		fatal("index kind %s cannot answer matrix queries", idx.Stats().Kind)
	}
	srcs := parseIDs("sources", sourceList)
	tgts := parseIDs("targets", targetList)
	dst, err := mi.QueryMatrix(srcs, tgts, nil)
	if err != nil {
		fatal("matrix: %v", err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i := range srcs {
		for j := range tgts {
			if j > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprintf(w, "%g", dst[i*len(tgts)+j])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(os.Stderr, "matrix: %d×%d cells (kind=%s, eps=%g)\n",
		len(srcs), len(tgts), idx.Stats().Kind, idx.Stats().Epsilon)
}

// runNearestK lists the k nearest indexed endpoints to a planar point in
// ascending (distance, id) order — the CLI twin of /v1/nearest?k=N.
func runNearestK(idx core.DistanceIndex, x, y float64, k int) {
	nk, ok := idx.(core.NearestKFinder)
	if !ok {
		fatal("index kind %s cannot answer nearest-k queries", idx.Stats().Kind)
	}
	ns, err := nk.NearestK(x, y, k)
	if err != nil {
		fatal("nearest: %v", err)
	}
	for _, n := range ns {
		fmt.Printf("id=%d d=%g at=(%g,%g,%g)\n", n.ID, n.Planar, n.At.P.X, n.At.P.Y, n.At.P.Z)
	}
	fmt.Fprintf(os.Stderr, "nearest: %d of k=%d endpoints to (%g,%g) (kind=%s)\n",
		len(ns), k, x, y, idx.Stats().Kind)
}

// runIsochrone lists every indexed endpoint within surface distance d of
// src — plain "id distance x y z" lines, or (with -geojson) the same
// FeatureCollection /v1/isochrone serves: a convex-hull contour feature
// followed by one Point feature per reached endpoint.
func runIsochrone(idx core.DistanceIndex, src int32, d float64, geojson bool) {
	ri, ok := idx.(core.Reachability)
	if !ok {
		fatal("index kind %s cannot answer reachability queries", idx.Stats().Kind)
	}
	reached, err := ri.Reachable(src, d)
	if err != nil {
		fatal("isochrone: %v", err)
	}
	if geojson {
		if err := writeIsochroneGeoJSON(os.Stdout, src, d, reached); err != nil {
			fatal("encoding isochrone: %v", err)
		}
	} else {
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		for _, rc := range reached {
			fmt.Fprintf(w, "%d %g %g %g %g\n", rc.ID, rc.Distance, rc.At.P.X, rc.At.P.Y, rc.At.P.Z)
		}
	}
	fmt.Fprintf(os.Stderr, "isochrone: %d endpoints within %g of %d (kind=%s)\n",
		len(reached), d, src, idx.Stats().Kind)
}

// writeIsochroneGeoJSON emits the FeatureCollection shape /v1/isochrone
// serves: the planar convex hull of the reached endpoints as the contour
// (Polygon ≥ 3 hull vertices, LineString for 2, Point for 1) plus one
// Point feature per reached endpoint.
func writeIsochroneGeoJSON(w *os.File, src int32, d float64, reached []core.Reached) error {
	pts := make([]terrain.SurfacePoint, len(reached))
	for i, rc := range reached {
		pts[i] = rc.At
	}
	hull := core.PlanarHull(pts)
	coord := func(p terrain.SurfacePoint) [3]float64 { return [3]float64{p.P.X, p.P.Y, p.P.Z} }
	var geom map[string]any
	switch {
	case len(hull) >= 3:
		ring := make([][3]float64, 0, len(hull)+1)
		for _, h := range hull {
			ring = append(ring, coord(h))
		}
		ring = append(ring, ring[0])
		geom = map[string]any{"type": "Polygon", "coordinates": [][][3]float64{ring}}
	case len(hull) == 2:
		geom = map[string]any{"type": "LineString", "coordinates": [][3]float64{coord(hull[0]), coord(hull[1])}}
	case len(hull) == 1:
		geom = map[string]any{"type": "Point", "coordinates": coord(hull[0])}
	default:
		geom = map[string]any{"type": "GeometryCollection", "geometries": []any{}}
	}
	features := []any{map[string]any{
		"type":       "Feature",
		"geometry":   geom,
		"properties": map[string]any{"role": "contour", "hull_vertices": len(hull)},
	}}
	for _, rc := range reached {
		features = append(features, map[string]any{
			"type":       "Feature",
			"geometry":   map[string]any{"type": "Point", "coordinates": coord(rc.At)},
			"properties": map[string]any{"id": rc.ID, "distance": rc.Distance},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"type":     "FeatureCollection",
		"features": features,
		"properties": map[string]any{
			"source": src, "max_distance": d, "count": len(reached),
		},
	})
}

// writeGeoJSON emits one GeoJSON Feature whose geometry is the path as a
// LineString of [x, y, z] positions — the same shape /v1/path serves.
func writeGeoJSON(w *os.File, pts []terrain.SurfacePoint, dist float64, kind string) error {
	coords := make([][3]float64, len(pts))
	for i, p := range pts {
		coords[i] = [3]float64{p.P.X, p.P.Y, p.P.Z}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"type": "Feature",
		"geometry": map[string]any{
			"type":        "LineString",
			"coordinates": coords,
		},
		"properties": map[string]any{
			"distance": dist,
			"vertices": len(pts),
			"kind":     kind,
		},
	})
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "sequery: "+format+"\n", args...)
	os.Exit(1)
}
