package server

// workloads.go — the PR 6 query workloads over the same routed targets as
// /v1/query: many-to-many distance matrices (/v1/matrix), k-nearest
// endpoints (/v1/nearest?k=N, sharing /v1/nearest's handler), and
// reachability isochrones (/v1/isochrone). Each reuses the server's
// routing (explicit name wins, bbox for coordinates, id-ambiguity 400 on
// an unnamed multi), the LRU + single-flight cache under its own key
// family, and the per-endpoint /statsz counters route() attaches.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"seoracle/internal/core"
	"seoracle/internal/terrain"
)

const (
	// MaxMatrixCells bounds one /v1/matrix request (rows × cols), so a
	// single client cannot commit unbounded memory on the server. Oversized
	// requests are 413s counted in /statsz oversize_rejections.
	MaxMatrixCells = 1 << 20
	// MaxNearestK bounds /v1/nearest's k for the same reason.
	MaxNearestK = 1 << 12
	// maxCachedMatrixCells bounds which matrix responses enter the LRU: the
	// cache counts entries, not bytes, so giant matrices (and their giant
	// keys) bypass it rather than pinning megabytes per slot.
	maxCachedMatrixCells = 4096
)

// matrixRequest is /v1/matrix's POST body: sources × targets as endpoint
// ids, or as planar coordinate pairs on an index that answers arbitrary
// points (exactly one addressing mode per request).
type matrixRequest struct {
	Index        string       `json:"index,omitempty"`
	Sources      []int32      `json:"sources,omitempty"`
	Targets      []int32      `json:"targets,omitempty"`
	SourceCoords [][2]float64 `json:"source_coords,omitempty"`
	TargetCoords [][2]float64 `json:"target_coords,omitempty"`
}

// matrixResponse carries the row-major rows×cols distance matrix. When any
// cell failed, Errors holds one slot per cell ("" = ok) and the failing
// cells' Distances are zero — one bad id fails its cells, not the request.
type matrixResponse struct {
	Distances []float64 `json:"distances"`
	Rows      int       `json:"rows"`
	Cols      int       `json:"cols"`
	Errors    []string  `json:"errors,omitempty"`
	Kind      core.Kind `json:"kind"`
	Index     string    `json:"index,omitempty"`
}

// matrixIDKey builds the cache key of an id-addressed matrix (family "m").
func matrixIDKey(name string, sources, targets []int32) string {
	var b strings.Builder
	b.WriteString("mi|")
	b.WriteString(name)
	for _, id := range sources {
		b.WriteByte('|')
		b.WriteString(strconv.FormatInt(int64(id), 10))
	}
	b.WriteString("|x")
	for _, id := range targets {
		b.WriteByte('|')
		b.WriteString(strconv.FormatInt(int64(id), 10))
	}
	return b.String()
}

// matrixXYKey builds the cache key of a coordinate-addressed matrix
// (family "mc").
func matrixXYKey(name string, sources, targets [][2]float64) string {
	var b strings.Builder
	b.WriteString("mc|")
	b.WriteString(name)
	for _, set := range [2][][2]float64{sources, targets} {
		for _, c := range set {
			for _, v := range c {
				b.WriteByte('|')
				b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
			}
		}
		b.WriteString("|x")
	}
	return b.String()
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) int {
	body, status := s.readBody(w, r)
	if status != 0 {
		return status
	}
	defer putBody(body)
	sp, tp := idBufs.get(), idBufs.get()
	defer idBufs.put(sp)
	defer idBufs.put(tp)
	var req matrixRequest
	scan := matrixScan{Sources: *sp, Targets: *tp}
	accepted := scanMatrix(body.Bytes(), &scan)
	*sp, *tp = scan.Sources, scan.Targets
	if accepted {
		req.Sources, req.Targets, req.Index = scan.Sources, scan.Targets, string(scan.Index)
	} else if status := s.decodeJSON(w, body.Bytes(), &req); status != 0 {
		return status
	}
	if req.Index == "" {
		req.Index = r.URL.Query().Get("index")
	}
	byIDs := len(req.Sources) > 0 || len(req.Targets) > 0
	byCoords := len(req.SourceCoords) > 0 || len(req.TargetCoords) > 0
	switch {
	case byIDs && byCoords:
		return s.writeError(w, http.StatusBadRequest,
			"matrix endpoints must be all ids (sources/targets) or all coordinates (source_coords/target_coords), not both")
	case !byIDs && !byCoords:
		return s.writeError(w, http.StatusBadRequest,
			"need sources and targets (ids) or source_coords and target_coords")
	}
	rows, cols := len(req.Sources), len(req.Targets)
	if byCoords {
		rows, cols = len(req.SourceCoords), len(req.TargetCoords)
	}
	if rows == 0 || cols == 0 {
		return s.writeError(w, http.StatusBadRequest, "matrix needs at least one source and one target (got %d×%d)", rows, cols)
	}
	if rows*cols > MaxMatrixCells {
		s.oversizeRejections.Add(1)
		return s.writeError(w, http.StatusRequestEntityTooLarge,
			"matrix of %d×%d = %d cells exceeds the %d limit", rows, cols, rows*cols, MaxMatrixCells)
	}
	ep := s.epoch()
	ctx := r.Context()
	if byIDs {
		tgt, status, msg := s.resolve(ep, req.Index, nil, nil)
		if tgt == nil {
			return s.writeError(w, status, "%s", msg)
		}
		tgt.queries.Add(1)
		compute := func() (any, error) { return s.computeIDMatrix(ctx, tgt, req.Sources, req.Targets) }
		var v any
		var err error
		if rows*cols <= maxCachedMatrixCells {
			v, err = s.cachedValue(ep, matrixIDKey(tgt.name, req.Sources, req.Targets), compute)
		} else {
			v, err = compute()
		}
		if err != nil {
			return s.writeError(w, s.queryFailStatus(err, http.StatusBadRequest), "matrix: %v", err)
		}
		return s.writeJSON(w, http.StatusOK, v)
	}
	for _, c := range append(append([][2]float64{}, req.SourceCoords...), req.TargetCoords...) {
		if status := s.checkCoords(w, &c[0], &c[1]); status != 0 {
			return status
		}
	}
	// Coordinate matrices route by the first source point (like /v1/query's
	// coordinate form); every cell is then answered within that one member.
	tgt, status, msg := s.resolve(ep, req.Index, &req.SourceCoords[0][0], &req.SourceCoords[0][1])
	if tgt == nil {
		return s.writeError(w, status, "%s", msg)
	}
	if tgt.pt == nil {
		return s.writeError(w, http.StatusBadRequest,
			"index kind %s answers id matrices only; coordinate matrices need an a2a index", tgt.kind)
	}
	tgt.queries.Add(1)
	compute := func() (any, error) { return s.computeXYMatrix(ctx, tgt, req.SourceCoords, req.TargetCoords) }
	var v any
	var err error
	if rows*cols <= maxCachedMatrixCells {
		v, err = s.cachedValue(ep, matrixXYKey(tgt.name, req.SourceCoords, req.TargetCoords), compute)
	} else {
		v, err = compute()
	}
	if err != nil {
		return s.writeError(w, s.queryFailStatus(err, http.StatusBadRequest), "matrix: %v", err)
	}
	return s.writeJSON(w, http.StatusOK, v)
}

// computeIDMatrix answers an id-addressed matrix: the engine's row-parallel
// ctx-aware QueryMatrixCtx when every cell is valid, else a per-cell Query
// sweep that fills one error slot per failing cell. A cancelled request
// context aborts either path with the (counted-by-the-caller) ctx error —
// expired work must stop computing, not fall through to the sweep.
func (s *Server) computeIDMatrix(ctx context.Context, tgt *target, sources, targets []int32) (matrixResponse, error) {
	res := matrixResponse{Rows: len(sources), Cols: len(targets), Kind: tgt.kind, Index: tgt.name}
	if tgt.mi != nil {
		dst, err := core.QueryMatrixCtx(ctx, tgt.idx, sources, targets, nil)
		if err == nil {
			res.Distances = dst
			return res, nil
		}
		if core.IsContextErr(err) {
			return matrixResponse{}, err
		}
	}
	cols := len(targets)
	res.Distances = make([]float64, len(sources)*cols)
	errs := make([]string, len(sources)*cols)
	failed := false
	for i, src := range sources {
		if err := ctx.Err(); err != nil {
			return matrixResponse{}, fmt.Errorf("matrix cancelled at row %d: %w", i, err)
		}
		for j, dst := range targets {
			d, err := tgt.idx.Query(src, dst)
			if err != nil {
				errs[i*cols+j] = err.Error()
				failed = true
				continue
			}
			res.Distances[i*cols+j] = d
		}
	}
	if failed {
		res.Errors = errs
	}
	return res, nil
}

// computeXYMatrix answers a coordinate-addressed matrix on a point-capable
// index: each endpoint is projected onto the surface once, then cells are
// answered with QueryPoints. A point off the terrain fails its row or
// column, not the request; a cancelled request context aborts at row
// granularity.
func (s *Server) computeXYMatrix(ctx context.Context, tgt *target, sources, targets [][2]float64) (matrixResponse, error) {
	cols := len(targets)
	res := matrixResponse{
		Rows: len(sources), Cols: cols, Kind: tgt.kind, Index: tgt.name,
		Distances: make([]float64, len(sources)*cols),
	}
	errs := make([]string, len(sources)*cols)
	failed := false
	project := func(pts [][2]float64) ([]terrain.SurfacePoint, []string) {
		out := make([]terrain.SurfacePoint, len(pts))
		perr := make([]string, len(pts))
		for i, c := range pts {
			p, ok := tgt.pt.Project(c[0], c[1])
			if !ok {
				perr[i] = fmt.Sprintf("point (%g,%g) is outside the terrain", c[0], c[1])
				continue
			}
			out[i] = p
		}
		return out, perr
	}
	srcPts, srcErr := project(sources)
	dstPts, dstErr := project(targets)
	for i := range sources {
		if err := ctx.Err(); err != nil {
			return matrixResponse{}, fmt.Errorf("matrix cancelled at row %d: %w", i, err)
		}
		for j := range targets {
			cell := i*cols + j
			switch {
			case srcErr[i] != "":
				errs[cell], failed = srcErr[i], true
			case dstErr[j] != "":
				errs[cell], failed = dstErr[j], true
			default:
				d, err := tgt.pt.QueryPoints(srcPts[i], dstPts[j])
				if err != nil {
					errs[cell], failed = err.Error(), true
					continue
				}
				res.Distances[cell] = d
			}
		}
	}
	if failed {
		res.Errors = errs
	}
	return res, nil
}

// --- k-nearest --------------------------------------------------------------

// nearestKResponse is /v1/nearest's body when k is given: up to k neighbors
// in ascending (distance, id) order — on an unnamed multi server, ascending
// (distance, member name, id) over every member, each neighbor tagged with
// the member that owns its id.
type nearestKResponse struct {
	Neighbors []nearestResponse `json:"neighbors"`
	Count     int               `json:"count"`
	K         int               `json:"k"`
	Kind      core.Kind         `json:"kind"`
	Index     string            `json:"index,omitempty"`
}

// nearestKKey builds the cache key of a k-nearest query (family "k"); the
// unnamed multi fan-out caches under the reserved name "*".
func nearestKKey(name string, x, y float64, k int) string {
	return "k|" + name + "|" + strconv.FormatFloat(x, 'x', -1, 64) +
		"|" + strconv.FormatFloat(y, 'x', -1, 64) + "|" + strconv.Itoa(k)
}

// handleNearestK answers /v1/nearest with an explicit k: the named (or
// single) index's NearestK, or the global cross-member merge on an unnamed
// multi server. The merge honors the request deadline at member
// granularity (a counted 503 once it expires).
func (s *Server) handleNearestK(w http.ResponseWriter, r *http.Request, ep *epoch, index string, x, y float64, k int) int {
	if k > MaxNearestK {
		s.oversizeRejections.Add(1)
		return s.writeError(w, http.StatusRequestEntityTooLarge, "k=%d exceeds the %d limit", k, MaxNearestK)
	}
	if ep.sharded != nil && index == "" {
		// Global semantics, like unnamed k=1: every member is scanned and the
		// merge ties break by (distance, member name, id).
		ctx := r.Context()
		v, err := s.cachedValue(ep, nearestKKey("*", x, y, k), func() (any, error) {
			ns, err := ep.sharded.NearestKAcrossCtx(ctx, x, y, k)
			if err != nil {
				return nil, err
			}
			res := nearestKResponse{K: k, Count: len(ns), Kind: ep.kindTag, Neighbors: make([]nearestResponse, len(ns))}
			for i, n := range ns {
				res.Neighbors[i] = nearestResponse{
					ID: n.ID, X: n.At.P.X, Y: n.At.P.Y, Z: n.At.P.Z, Distance: n.Planar, Index: n.Member,
				}
			}
			return res, nil
		})
		if err != nil {
			return s.writeError(w, s.queryFailStatus(err, http.StatusNotImplemented), "nearest: %v", err)
		}
		// The answering members' routing counters move even on a cache hit:
		// the request was still logically routed to them.
		seen := map[string]bool{}
		for _, n := range v.(nearestKResponse).Neighbors {
			if !seen[n.Index] {
				seen[n.Index] = true
				if tgt := ep.byName[n.Index]; tgt != nil {
					tgt.queries.Add(1)
				}
			}
		}
		return s.writeJSON(w, http.StatusOK, v)
	}
	tgt, status, msg := s.resolve(ep, index, &x, &y)
	if tgt == nil {
		return s.writeError(w, status, "%s", msg)
	}
	if tgt.nk == nil {
		return s.writeError(w, http.StatusNotImplemented, "index kind %s cannot answer nearest-k queries", tgt.kind)
	}
	tgt.queries.Add(1)
	v, err := s.cachedValue(ep, nearestKKey(tgt.name, x, y, k), func() (any, error) {
		ns, err := tgt.nk.NearestK(x, y, k)
		if err != nil {
			return nil, err
		}
		res := nearestKResponse{K: k, Count: len(ns), Kind: tgt.kind, Index: tgt.name, Neighbors: make([]nearestResponse, len(ns))}
		for i, n := range ns {
			res.Neighbors[i] = nearestResponse{
				ID: n.ID, X: n.At.P.X, Y: n.At.P.Y, Z: n.At.P.Z, Distance: n.Planar, Index: tgt.name,
			}
		}
		return res, nil
	})
	if err != nil {
		return s.writeError(w, http.StatusBadRequest, "nearest: %v", err)
	}
	return s.writeJSON(w, http.StatusOK, v)
}

// --- isochrones -------------------------------------------------------------

// isochroneFeature is one GeoJSON Feature of the isochrone response: the
// contour polygon, or one reached endpoint.
type isochroneFeature struct {
	Type       string                 `json:"type"` // "Feature"
	Geometry   isochroneGeometry      `json:"geometry"`
	Properties map[string]interface{} `json:"properties,omitempty"`
}

type isochroneGeometry struct {
	Type        string `json:"type"`
	Coordinates any    `json:"coordinates"`
}

// isochroneResponse is /v1/isochrone's body: a GeoJSON FeatureCollection
// holding the contour (the planar convex hull of the reached endpoints) and
// one Point feature per reached endpoint, with the query's parameters in
// the top-level properties.
type isochroneResponse struct {
	Type       string                 `json:"type"` // "FeatureCollection"
	Features   []isochroneFeature     `json:"features"`
	Properties map[string]interface{} `json:"properties"`
}

// isochroneKey builds the cache key of an isochrone query (family "o").
func isochroneKey(name string, src int32, d float64) string {
	return "o|" + name + "|" + strconv.FormatInt(int64(src), 10) + "|" + strconv.FormatFloat(d, 'x', -1, 64)
}

func (s *Server) handleIsochrone(w http.ResponseWriter, r *http.Request) int {
	var req struct {
		Index string   `json:"index,omitempty"`
		S     *int32   `json:"s,omitempty"`
		D     *float64 `json:"d,omitempty"`
	}
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		req.Index = q.Get("index")
		var err error
		if req.S, err = formInt32(q.Get("s"), req.S); err != nil {
			return s.writeError(w, http.StatusBadRequest, "bad s: %v", err)
		}
		if req.D, err = formFloat(q.Get("d"), req.D); err != nil {
			return s.writeError(w, http.StatusBadRequest, "bad d: %v", err)
		}
	} else if status := s.readJSON(w, r, &req); status != 0 {
		return status
	} else if req.Index == "" {
		req.Index = r.URL.Query().Get("index")
	}
	if req.S == nil || req.D == nil {
		return s.writeError(w, http.StatusBadRequest, "need a source id (s) and a distance budget (d)")
	}
	if status := s.checkCoords(w, req.D); status != 0 {
		return status // a non-finite budget is rejected and counted like a bad coordinate
	}
	ep := s.epoch()
	tgt, status, msg := s.resolve(ep, req.Index, nil, nil) // id-addressed: unnamed multi is ambiguous
	if tgt == nil {
		return s.writeError(w, status, "%s", msg)
	}
	if tgt.ri == nil {
		return s.writeError(w, http.StatusNotImplemented, "index kind %s cannot answer reachability queries", tgt.kind)
	}
	tgt.queries.Add(1)
	v, err := s.cachedValue(ep, isochroneKey(tgt.name, *req.S, *req.D), func() (any, error) {
		reached, err := tgt.ri.Reachable(*req.S, *req.D)
		if err != nil {
			return nil, err
		}
		return newIsochroneResponse(tgt, *req.S, *req.D, reached), nil
	})
	if err != nil {
		return s.writeError(w, s.queryFailStatus(err, http.StatusBadRequest), "isochrone: %v", err)
	}
	return s.writeJSON(w, http.StatusOK, v)
}

// newIsochroneResponse builds the GeoJSON FeatureCollection: the contour of
// the reached endpoints' planar convex hull — a Polygon (closed ring) when
// the hull has ≥ 3 vertices, degrading to a LineString for collinear
// isochrones and a Point for a single reached endpoint — followed by one
// Point feature per reached endpoint carrying its id and surface distance.
func newIsochroneResponse(tgt *target, src int32, budget float64, reached []core.Reached) isochroneResponse {
	pts := make([]terrain.SurfacePoint, len(reached))
	for i, rc := range reached {
		pts[i] = rc.At
	}
	hull := core.PlanarHull(pts) // never empty: the source is always reached
	coord := func(p terrain.SurfacePoint) [3]float64 { return [3]float64{p.P.X, p.P.Y, p.P.Z} }
	var contour isochroneGeometry
	switch {
	case len(hull) >= 3:
		ring := make([][3]float64, 0, len(hull)+1)
		for _, h := range hull {
			ring = append(ring, coord(h))
		}
		ring = append(ring, ring[0]) // GeoJSON rings close explicitly
		contour = isochroneGeometry{Type: "Polygon", Coordinates: [][][3]float64{ring}}
	case len(hull) == 2:
		contour = isochroneGeometry{Type: "LineString", Coordinates: [][3]float64{coord(hull[0]), coord(hull[1])}}
	default:
		contour = isochroneGeometry{Type: "Point", Coordinates: coord(hull[0])}
	}
	features := make([]isochroneFeature, 0, len(reached)+1)
	features = append(features, isochroneFeature{
		Type:     "Feature",
		Geometry: contour,
		Properties: map[string]interface{}{
			"role":          "contour",
			"hull_vertices": len(hull),
		},
	})
	for _, rc := range reached {
		features = append(features, isochroneFeature{
			Type:     "Feature",
			Geometry: isochroneGeometry{Type: "Point", Coordinates: coord(rc.At)},
			Properties: map[string]interface{}{
				"id":       rc.ID,
				"distance": rc.Distance,
			},
		})
	}
	return isochroneResponse{
		Type:     "FeatureCollection",
		Features: features,
		Properties: map[string]interface{}{
			"source":       src,
			"max_distance": budget,
			"count":        len(reached),
			"kind":         tgt.kind,
			"index":        tgt.name,
		},
	}
}
