package core

import (
	"fmt"
	"sort"

	"seoracle/internal/terrain"
)

// isochrone.go — the reachability workload (the serving layer's
// /v1/isochrone): every indexed endpoint within a surface-distance budget
// of a source, plus a planar convex hull for drawing the contour. An
// endpoint is reached exactly when the index's own Query answers ≤ d, so
// isochrone membership is consistent with point-to-point queries by
// construction.

// Reached is one endpoint inside an isochrone: its id, surface point, and
// surface distance from the source.
type Reached struct {
	ID       int32
	At       terrain.SurfacePoint
	Distance float64
}

// Reachability is a DistanceIndex that answers reachability queries:
// Reachable returns every indexed endpoint within a surface-distance budget
// of a source endpoint. Implemented by every engine; a sharded index routes
// the source like its Query.
type Reachability interface {
	DistanceIndex
	// Reachable returns every indexed endpoint t with Query(src, t) <= d,
	// in ascending id order (the source itself included, at distance 0).
	// d must be finite and non-negative.
	Reachable(src int32, d float64) ([]Reached, error)
}

// reachableScan is the shared Reachable implementation: one QueryBatch of
// (src, id) pairs over the candidate ids, filtered by the budget. ids must
// be ascending; the result preserves that order.
func reachableScan(idx DistanceIndex, ids []int32, at func(int32) terrain.SurfacePoint, src int32, maxD float64) ([]Reached, error) {
	if !finite(maxD) || maxD < 0 {
		return nil, fmt.Errorf("core: isochrone budget %g must be finite and non-negative", maxD)
	}
	pairs := make([][2]int32, len(ids))
	for i, id := range ids {
		pairs[i] = [2]int32{src, id}
	}
	dst, err := idx.QueryBatch(pairs, make([]float64, 0, len(pairs)))
	if err != nil {
		return nil, err
	}
	var out []Reached
	for i, id := range ids {
		if dst[i] <= maxD {
			out = append(out, Reached{ID: id, At: at(id), Distance: dst[i]})
		}
	}
	return out, nil
}

// Reachable returns every site within surface distance d of site src,
// through the inner SE oracle. Part of the Reachability interface.
func (so *SiteOracle) Reachable(src int32, d float64) ([]Reached, error) {
	return so.oracle.Reachable(src, d)
}

// Reachable returns every live POI within surface distance d of live POI
// src (tombstoned ids are never reached). Part of the Reachability
// interface.
func (dy *DynamicOracle) Reachable(src int32, d float64) ([]Reached, error) {
	return reachableScan(dy, dy.LiveIDs(), func(id int32) terrain.SurfacePoint { return dy.pois[id] }, src, d)
}

// Reachable routes src like Query. Without a global id space the route is
// the sole member, which answers in its own id space; a hierarchical index
// scans the whole global id space — every candidate routes like Query, so an
// isochrone may spill across tile boundaries. Part of the Reachability
// interface.
func (sh *ShardedIndex) Reachable(src int32, d float64) ([]Reached, error) {
	var r route
	if err := sh.route(&r, src, src, nil); err != nil {
		return nil, err
	}
	if !sh.SupportsGlobal() {
		ri, ok := sh.members[r.ka].Index.(Reachability)
		if !ok {
			return nil, fmt.Errorf("core: member %q answers no reachability queries", sh.members[r.ka].Name)
		}
		return ri.Reachable(r.la, d)
	}
	ids := make([]int32, sh.hier.total)
	for i := range ids {
		ids[i] = int32(i)
	}
	return reachableScan(sh, ids, sh.globalPoint, src, d)
}

// PlanarHull returns the convex hull of the points' planar (x, y)
// projections as a counter-clockwise polygon (Andrew's monotone chain),
// starting from the lexicographically smallest point. Strictly collinear
// boundary points are dropped. Degenerate inputs degrade gracefully: one
// distinct point yields a single-point hull, collinear points a two-point
// segment. The input is not modified.
func PlanarHull(pts []terrain.SurfacePoint) []terrain.SurfacePoint {
	if len(pts) == 0 {
		return nil
	}
	sorted := append([]terrain.SurfacePoint(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].P.X != sorted[j].P.X {
			return sorted[i].P.X < sorted[j].P.X
		}
		return sorted[i].P.Y < sorted[j].P.Y
	})
	// Drop exact planar duplicates so the chain never stalls on them.
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		last := uniq[len(uniq)-1]
		if p.P.X != last.P.X || p.P.Y != last.P.Y {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) < 3 {
		return uniq
	}
	cross := func(o, a, b terrain.SurfacePoint) float64 {
		return (a.P.X-o.P.X)*(b.P.Y-o.P.Y) - (a.P.Y-o.P.Y)*(b.P.X-o.P.X)
	}
	hull := make([]terrain.SurfacePoint, 0, 2*len(uniq))
	for _, p := range uniq { // lower chain
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	lower := len(hull) + 1
	for i := len(uniq) - 2; i >= 0; i-- { // upper chain
		p := uniq[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1] // last point repeats the first
}
