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
// which only measures the pair hop.

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

// pathEngine returns the oracle's path-capable geodesic engine, building it
// from the retained mesh on first use.
func (o *Oracle) pathEngine() (geodesic.PathEngine, error) {
	o.pathMu.Lock()
	defer o.pathMu.Unlock()
	if o.peng == nil {
		if o.mesh == nil {
			return nil, ErrNoPathGeometry
		}
		o.peng = geodesic.NewExact(o.mesh)
	}
	return o.peng, nil
}

// Mesh returns the terrain the oracle retains for path queries, or nil for
// distance-only oracles (containers without a mesh, mesh-less engines).
func (o *Oracle) Mesh() *terrain.Mesh { return o.mesh }

// QueryPath returns the ε-approximate highway path between POIs s and t:
// the polyline runs s → (center chain of the matched node O) → (pair
// geodesic) → (center chain of O', reversed) → t, and the returned distance
// is the polyline's exact summed length. Safe for concurrent use; hop
// geodesics are cached across calls under an internal lock.
func (o *Oracle) QueryPath(s, t int32) ([]terrain.SurfacePoint, float64, error) {
	if err := o.checkIDs(s, t); err != nil {
		return nil, 0, err
	}
	if o.pts == nil {
		return nil, 0, fmt.Errorf("core: oracle carries no point table: %w", ErrNoPathGeometry)
	}
	if s == t {
		p := o.pts[s]
		return []terrain.SurfacePoint{p, p}, 0, nil
	}
	_, na, nb, err := o.queryPair(s, t)
	if err != nil {
		return nil, 0, err
	}
	eng, err := o.pathEngine()
	if err != nil {
		return nil, 0, err
	}
	seq, err := o.centerSequence(s, t, na, nb)
	if err != nil {
		return nil, 0, err
	}
	var path []terrain.SurfacePoint
	total := 0.0
	for i := 1; i < len(seq); i++ {
		seg, segLen, err := o.hopSegment(eng, seq[i-1], seq[i])
		if err != nil {
			return nil, 0, err
		}
		if len(path) == 0 {
			path = append(path, seg...)
		} else {
			// The hop starts exactly where the previous one ended (the
			// shared center's surface point).
			path = append(path, seg[1:]...)
		}
		total += segLen
	}
	return path, total, nil
}

// centerSequence builds the POI id sequence of the highway path: s's center
// chain up to node na, then nb's chain down to t, with coincident
// neighbors collapsed (the leaf's center is the POI itself, and a matched
// node's center can equal the query POI).
func (o *Oracle) centerSequence(s, t, na, nb int32) ([]int32, error) {
	seq := make([]int32, 0, 2*o.layerN)
	seq, err := o.appendCenterChain(seq, s, na)
	if err != nil {
		return nil, err
	}
	down, err := o.appendCenterChain(nil, t, nb)
	if err != nil {
		return nil, err
	}
	for i := len(down) - 1; i >= 0; i-- {
		seq = appendPOI(seq, down[i])
	}
	if len(seq) < 2 {
		return nil, fmt.Errorf("core: degenerate center sequence for POIs (%d,%d)", s, t)
	}
	return seq, nil
}

// appendCenterChain appends the centers on POI p's leaf-to-node path
// (starting with p itself, ending with node's center, consecutive
// duplicates collapsed). node must be an ancestor of p's leaf — queryPair
// guarantees it for matched pairs.
func (o *Oracle) appendCenterChain(seq []int32, p, node int32) ([]int32, error) {
	seq = appendPOI(seq, p)
	for n := o.tree.leaf[p]; ; n = o.tree.nodes[n].parent {
		if n < 0 {
			return nil, fmt.Errorf("core: node %d is not an ancestor of POI %d's leaf; oracle corrupt", node, p)
		}
		seq = appendPOI(seq, o.tree.nodes[n].center)
		if n == node {
			return seq, nil
		}
	}
}

func appendPOI(seq []int32, p int32) []int32 {
	if n := len(seq); n > 0 && seq[n-1] == p {
		return seq
	}
	return append(seq, p)
}

// hopSegment returns the geodesic polyline between POIs u and v and its
// length, serving and filling the canonical-direction cache. The returned
// slice is oriented u → v and safe for the caller to copy from (reversed
// hops are rebuilt from the cached canonical polyline; reversal preserves
// the length).
func (o *Oracle) hopSegment(eng geodesic.PathEngine, u, v int32) ([]terrain.SurfacePoint, float64, error) {
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	key := packPair(lo, hi)
	o.pathMu.Lock()
	seg, ok := o.segCache[key]
	o.pathMu.Unlock()
	if !ok {
		pts, length, err := eng.PathTo(o.pts[lo], o.pts[hi])
		if err != nil {
			return nil, 0, fmt.Errorf("core: geodesic hop %d→%d: %w", u, v, err)
		}
		seg = pathSeg{pts: pts, length: length}
		o.pathMu.Lock()
		if o.segCache == nil {
			o.segCache = make(map[uint64]pathSeg)
		}
		if len(o.segCache) < pathSegCacheCap {
			o.segCache[key] = seg
		}
		o.pathMu.Unlock()
	}
	if u == lo {
		return seg.pts, seg.length, nil
	}
	rev := make([]terrain.SurfacePoint, len(seg.pts))
	for i, p := range seg.pts {
		rev[len(rev)-1-i] = p
	}
	return rev, seg.length, nil
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

// QueryPath routes like Query: it answers through the sole member when
// exactly one exists, and on a hierarchical index it answers in the global
// id space — a cross-member pair's path is the best portal's two member
// paths concatenated at the portal point, or the coarse member's
// point-to-point path (see hierarchy.go). A legacy flat-grid multi keeps
// the old contract: ids are member-local and the caller must address a
// member (by name or bbox) first.
func (sh *ShardedIndex) QueryPath(s, t int32) ([]terrain.SurfacePoint, float64, error) {
	if len(sh.members) == 1 {
		pi, ok := sh.members[0].Index.(PathIndex)
		if !ok {
			return nil, 0, fmt.Errorf("core: member %q (kind %s) cannot report paths",
				sh.members[0].Name, sh.members[0].Index.Stats().Kind)
		}
		return pi.QueryPath(s, t)
	}
	if sh.hier != nil {
		return sh.globalQueryPath(s, t)
	}
	return nil, 0, fmt.Errorf("core: multi index holds %d members; address one by name (ids are member-local)", len(sh.members))
}
