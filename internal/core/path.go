package core

import (
	"fmt"
	"math"

	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// path.go — QueryPath across every index kind. The SE oracle answers §3.4
// queries through one well-separated node pair (O, O'); the path behind that
// answer is the *highway path*: s walks its partition-tree center chain up
// to O's center, crosses the pair's center-to-center geodesic, and descends
// O''s chain to t. Every hop is an exact geodesic segment (computed by the
// engine's PathTo and cached), so the reported length is the true length of
// the reported polyline — within the oracle's ε slack of Query's scalar,
// which only measures the pair hop. FlatOracle.QueryPath (flat.go) stitches
// it for the se and flat layouts alike.

// pathSeg is one cached center-to-center geodesic hop. The polyline is
// stored source→target in canonical (lower id → higher id) direction and
// must be treated as read-only; stitching copies it.
type pathSeg struct {
	pts    []terrain.SurfacePoint
	length float64
}

// pathSegCacheCap bounds the per-oracle hop cache. Hops live on the tree's
// center chains (O(n) distinct parent-child hops plus one hop per queried
// pair), so a bounded map keeps hot hops resident; once full, further hops
// are computed per query instead of cached.
const pathSegCacheCap = 1 << 14

// ErrNoPathGeometry is returned by QueryPath on indexes that carry no
// terrain mesh (containers without a mesh section, or constructions whose
// engine exposed no mesh): distances still answer, but there is no geometry to stitch paths
// from.
var ErrNoPathGeometry = fmt.Errorf("core: index carries no terrain mesh; path queries unavailable (rebuild to embed it)")

func appendPOI(seq []int32, p int32) []int32 {
	if n := len(seq); n > 0 && seq[n-1] == p {
		return seq
	}
	return append(seq, p)
}

func segLength(pts []terrain.SurfacePoint) float64 {
	sum := 0.0
	for i := 1; i < len(pts); i++ {
		sum += pts[i].P.Dist(pts[i-1].P)
	}
	return sum
}

// --- A2A (SiteOracle) --------------------------------------------------------

// QueryPath reports the highway path between two indexed sites through the
// inner SE oracle. Part of the PathIndex interface; arbitrary surface
// points go through QueryPathPoints.
func (so *SiteOracle) QueryPath(s, t int32) ([]terrain.SurfacePoint, float64, error) {
	return so.oracle.QueryPath(s, t)
}

// QueryPathPoints mirrors QueryPoints, reporting the path behind the
// answer: the straight in-face segment for same-face pairs, the exact
// geodesic when the short-range regime resolves the query exactly, and
// otherwise s → (best site pair's highway path) → t. The returned distance
// is always the polyline's exact summed length.
func (so *SiteOracle) QueryPathPoints(s, t terrain.SurfacePoint) ([]terrain.SurfacePoint, float64, error) {
	ns := so.neighborhood(s)
	nt := so.neighborhood(t)
	if len(ns) == 0 || len(nt) == 0 {
		return nil, 0, fmt.Errorf("core: query point has no site neighborhood (bad face id?)")
	}
	if s.Face == t.Face && s.Vert < 0 && t.Vert < 0 {
		// Same face: the straight segment is the geodesic.
		return []terrain.SurfacePoint{s, t}, s.P.Dist(t.P), nil
	}
	best := math.Inf(1)
	bp, bq := int32(-1), int32(-1)
	for _, p := range ns {
		ds := s.P.Dist(so.sites[p].P)
		for _, q := range nt {
			dq, err := so.oracle.Query(p, q)
			if err != nil {
				return nil, 0, err
			}
			if d := ds + dq + t.P.Dist(so.sites[q].P); d < best {
				best, bp, bq = d, p, q
			}
		}
	}
	if best <= so.localThreshold {
		// Short-range regime, exactly as QueryPoints: resolve with an exact
		// geodesic when it beats the site-combined bound.
		so.localQueries.Add(1)
		if pe, ok := so.eng.(geodesic.PathEngine); ok {
			path, d, err := pe.PathTo(s, t)
			if err == nil && d < best {
				return path, d, nil
			}
		}
	}
	inner, _, err := so.oracle.QueryPath(bp, bq)
	if err != nil {
		return nil, 0, err
	}
	path := make([]terrain.SurfacePoint, 0, len(inner)+2)
	path = appendPathPoint(path, s)
	for _, p := range inner {
		path = appendPathPoint(path, p)
	}
	path = appendPathPoint(path, t)
	return path, segLength(path), nil
}

// QueryPathXY projects the planar coordinates onto the surface and answers
// the path query — the serving layer's coordinate form.
func (so *SiteOracle) QueryPathXY(sx, sy, tx, ty float64) ([]terrain.SurfacePoint, float64, error) {
	s, ok := so.locator.Project(sx, sy)
	if !ok {
		return nil, 0, fmt.Errorf("core: source (%g,%g) is outside the terrain", sx, sy)
	}
	t, ok := so.locator.Project(tx, ty)
	if !ok {
		return nil, 0, fmt.Errorf("core: target (%g,%g) is outside the terrain", tx, ty)
	}
	return so.QueryPathPoints(s, t)
}

// appendPathPoint appends p, collapsing a coincident junction (a query
// point that is itself a site, a vertex anchor) into one polyline vertex.
func appendPathPoint(path []terrain.SurfacePoint, p terrain.SurfacePoint) []terrain.SurfacePoint {
	if n := len(path); n > 0 && path[n-1].P.Dist(p.P) <= 1e-12*(1+p.P.Norm()) {
		path[n-1] = p
		return path
	}
	return append(path, p)
}

// --- dynamic -----------------------------------------------------------------

// QueryPath reports the path between two live POIs: through the base
// oracle's highway path when both are indexed there, and by re-running the
// geodesic exactly when either endpoint sits in the overflow set (whose
// stored distances are exact, so the reported path length matches Query to
// floating-point precision).
func (d *DynamicOracle) QueryPath(s, t int32) ([]terrain.SurfacePoint, float64, error) {
	if err := d.check(s); err != nil {
		return nil, 0, err
	}
	if err := d.check(t); err != nil {
		return nil, 0, err
	}
	if s == t {
		p := d.pois[s]
		return []terrain.SurfacePoint{p, p}, 0, nil
	}
	_, sOver := d.overflow[s]
	_, tOver := d.overflow[t]
	if !sOver && !tOver {
		return d.base.QueryPath(d.baseIdx[s], d.baseIdx[t])
	}
	pe, ok := d.eng.(geodesic.PathEngine)
	if !ok {
		return nil, 0, fmt.Errorf("core: dynamic oracle's engine cannot report paths: %w", ErrNoPathGeometry)
	}
	return pe.PathTo(d.pois[s], d.pois[t])
}

// --- sharded -----------------------------------------------------------------

// QueryPath routes like Query. A cross-member pair's path is the best
// portal's two member paths concatenated at the portal point, or the coarse
// member's point-to-point path (see hierarchy.go).
func (sh *ShardedIndex) QueryPath(s, t int32) ([]terrain.SurfacePoint, float64, error) {
	return sh.answer(s, t, nil, true)
}
