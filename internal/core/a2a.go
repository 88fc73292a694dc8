package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// SiteOracle answers arbitrary-point-to-arbitrary-point (A2A) distance
// queries (Appendix C): it instantiates SE over a POI-independent set of
// *sites* — every mesh vertex plus evenly spaced Steiner sites on every mesh
// edge — and combines oracle distances between sites near the query points
// with exact in-face straight segments.
//
// Because the sites depend only on the terrain, the same oracle also serves
// the n > N case (Appendix D) and is the index our SP-Oracle baseline uses.
//
// As a DistanceIndex, its endpoints are site ids (Query answers
// site-to-site distances through the inner SE oracle); the PointIndex
// surface (QueryPoints, Project) serves arbitrary surface points.
type SiteOracle struct {
	// oracle is the inner SE oracle of a built site oracle (or of one loaded
	// from a legacy se-body container): the logical content BuildStats and
	// CheckInvariants read. It is nil on a site oracle loaded from a flat
	// body, which keeps no tree or pair set beside the image.
	oracle *Oracle
	// q answers every site-to-site query: the inner oracle's engine
	// (oracle.flat) when oracle is set, else the flat body read in place
	// from the container image. Its point table (q.pts) is the site table,
	// the one copy of the sites.
	q         *FlatOracle
	mesh      *terrain.Mesh
	faceSites [][]int32 // per face: site ids on its corners and edges
	locator   *terrain.Locator
	eng       geodesic.Engine
	// localThreshold separates the two query regimes: answers whose
	// site-combined upper bound falls below it are resolved with a
	// radius-bounded exact SSAD, because at that range the additive
	// site-spacing error would exceed ε·d. This mirrors the short-range
	// handling of [12], whose query bound O(1/(sinθ·ε)·log(1/ε)) likewise
	// pays a local 1/ε term.
	localThreshold float64
	// spacing is the on-edge distance between adjacent Steiner sites (the
	// additive error driver); sitesPerEdge the density that produced it.
	// Both are reported through Stats and serialized with the oracle.
	spacing      float64
	sitesPerEdge int
	// localQueries counts queries that used the local regime. It is the
	// only mutable field a query touches, and it is atomic, so a built
	// SiteOracle is safe for concurrent use (the inner engine, the site
	// tables and the locator are immutable, and the engine is
	// concurrency-safe).
	localQueries atomic.Int64
}

// SitesPerEdgeForEps returns the per-edge site density used for the target
// error eps. Appendix C calls for O(1/√ε · log(1/ε)) Steiner points per
// face; a density of ceil(1/√ε) per edge keeps the observed A2A error well
// below ε on the evaluation terrains while keeping the site count
// manageable.
func SitesPerEdgeForEps(eps float64) int {
	if eps <= 0 {
		return 8
	}
	return int(math.Max(1, math.Ceil(1/math.Sqrt(eps))))
}

// SiteOptions configures BuildSiteOracle.
type SiteOptions struct {
	// Options configures the inner SE oracle.
	Options
	// SitesPerEdge overrides the per-edge Steiner site density; 0 means
	// SitesPerEdgeForEps(Epsilon).
	SitesPerEdge int
}

// BuildSiteOracle constructs the A2A oracle for mesh m.
func BuildSiteOracle(eng geodesic.Engine, m *terrain.Mesh, opt SiteOptions) (*SiteOracle, error) {
	return buildSiteOracle(eng, m, opt, newBudget(opt.Workers))
}

// buildSiteOracle is BuildSiteOracle with the inner build drawing on b.
func buildSiteOracle(eng geodesic.Engine, m *terrain.Mesh, opt SiteOptions, b *budget) (*SiteOracle, error) {
	per := opt.SitesPerEdge
	if per <= 0 {
		per = SitesPerEdgeForEps(opt.Epsilon)
	}
	so := &SiteOracle{mesh: m, locator: terrain.NewLocator(m), eng: eng, sitesPerEdge: per}
	so.spacing = m.ComputeStats().MaxEdgeLen / float64(per+1)
	if opt.Epsilon > 0 {
		so.localThreshold = 2 * so.spacing / opt.Epsilon
	}

	// Vertex sites first, then edge sites, recording per-face site lists.
	var sites []terrain.SurfacePoint
	for v := 0; v < m.NumVerts(); v++ {
		sites = append(sites, m.VertexPoint(int32(v)))
	}
	so.faceSites = make([][]int32, m.NumFaces())
	for f := int32(0); f < int32(m.NumFaces()); f++ {
		fa := m.Faces[f]
		so.faceSites[f] = append(so.faceSites[f], fa[0], fa[1], fa[2])
	}
	seen := make(map[int32][]int32) // canonical halfedge -> site ids
	for h := int32(0); h < int32(m.NumHalfedges()); h++ {
		he := m.Halfedge(h)
		canon := h
		if he.Twin >= 0 && he.Twin < h {
			canon = he.Twin
		}
		ids, done := seen[canon]
		if !done {
			che := m.Halfedge(canon)
			for k := 1; k <= per; k++ {
				t := float64(k) / float64(per+1)
				p := m.Verts[che.Org].Lerp(m.Verts[che.Dst], t)
				id := int32(len(sites))
				// The site lies on the shared edge; attach it to the
				// canonical half-edge's face.
				sites = append(sites, terrain.SurfacePoint{Face: che.Face, Vert: -1, P: p})
				ids = append(ids, id)
			}
			seen[canon] = ids
		}
		so.faceSites[he.Face] = append(so.faceSites[he.Face], ids...)
	}

	o, err := build(eng, sites, opt.Options, b)
	if err != nil {
		return nil, fmt.Errorf("core: building site oracle: %w", err)
	}
	so.oracle, so.q = o, o.flat
	return so, nil
}

// QueryPoints returns the ε-approximate geodesic distance between two
// arbitrary surface points: min over site pairs (p,q) near s and t of
// |s-p| + oracle(p,q) + |q-t|, where the local segments are exact because
// they stay inside one face.
func (so *SiteOracle) QueryPoints(s, t terrain.SurfacePoint) (float64, error) {
	ns := so.neighborhood(s)
	nt := so.neighborhood(t)
	if len(ns) == 0 || len(nt) == 0 {
		return 0, fmt.Errorf("core: query point has no site neighborhood (bad face id?)")
	}
	if s.Face == t.Face && s.Vert < 0 && t.Vert < 0 {
		// Same face: the straight segment is the geodesic.
		return s.P.Dist(t.P), nil
	}
	best := math.Inf(1)
	for _, p := range ns {
		ds := s.P.Dist(so.q.pts[p].P)
		for _, q := range nt {
			dq, err := so.q.Query(p, q)
			if err != nil {
				return 0, err
			}
			if d := ds + dq + t.P.Dist(so.q.pts[q].P); d < best {
				best = d
			}
		}
	}
	if best <= so.localThreshold {
		// Short-range regime: the additive site-spacing error would exceed
		// ε at this scale, so resolve exactly with an SSAD bounded by the
		// upper bound just computed (a constant-size neighborhood).
		so.localQueries.Add(1)
		d := so.eng.DistancesTo(s, []terrain.SurfacePoint{t},
			geodesic.Stop{Radius: best * (1 + 1e-9), CoverTargets: true})[0]
		if d < best {
			best = d
		}
	}
	return best, nil
}

// Query returns the ε-approximate geodesic distance between two indexed
// sites. Part of the DistanceIndex interface; arbitrary surface points go
// through QueryPoints.
func (so *SiteOracle) Query(s, t int32) (float64, error) { return so.q.Query(s, t) }

// QueryBatch answers site-id pairs in bulk. Part of the DistanceIndex
// interface; with a preallocated dst it performs no allocations.
func (so *SiteOracle) QueryBatch(pairs [][2]int32, dst []float64) ([]float64, error) {
	return so.q.QueryBatch(pairs, dst)
}

// LocalQueries reports how many queries fell into the short-range exact
// regime since construction (or since load).
func (so *SiteOracle) LocalQueries() int { return int(so.localQueries.Load()) }

// QueryXY projects the planar coordinates onto the surface and answers the
// A2A query — the form used by the evaluation's query generator (§5.1).
func (so *SiteOracle) QueryXY(sx, sy, tx, ty float64) (float64, error) {
	s, ok := so.locator.Project(sx, sy)
	if !ok {
		return 0, fmt.Errorf("core: source (%g,%g) is outside the terrain", sx, sy)
	}
	t, ok := so.locator.Project(tx, ty)
	if !ok {
		return 0, fmt.Errorf("core: target (%g,%g) is outside the terrain", tx, ty)
	}
	return so.QueryPoints(s, t)
}

// Project lifts planar coordinates onto the terrain surface. Part of the
// PointIndex interface.
func (so *SiteOracle) Project(x, y float64) (terrain.SurfacePoint, bool) {
	return so.locator.Project(x, y)
}

// Nearest returns the indexed site whose x-y projection is closest to
// (x, y).
func (so *SiteOracle) Nearest(x, y float64) (int32, terrain.SurfacePoint, float64, error) {
	return nearestScan(so.q.pts, nil, x, y)
}

// neighborhood returns the site ids used to anchor a query point: the sites
// of its containing face (or of the faces around its vertex).
func (so *SiteOracle) neighborhood(p terrain.SurfacePoint) []int32 {
	if p.Vert >= 0 {
		// The vertex itself is a site.
		if int(p.Vert) >= len(so.q.pts) {
			return nil
		}
		return []int32{p.Vert}
	}
	if p.Face < 0 || int(p.Face) >= len(so.faceSites) {
		return nil
	}
	return so.faceSites[p.Face]
}

// NumSites returns the number of sites the oracle indexes.
func (so *SiteOracle) NumSites() int { return len(so.q.pts) }

// NeighborhoodSize returns the typical |X_s| of a face-interior query point.
func (so *SiteOracle) NeighborhoodSize() int {
	if len(so.faceSites) == 0 {
		return 0
	}
	return len(so.faceSites[0])
}

// Inner exposes the underlying SE oracle (for build stats and size
// accounting). It is nil on a site oracle loaded from a flat-body container:
// that one answers from the image and keeps no tree or pair set.
func (so *SiteOracle) Inner() *Oracle { return so.oracle }

// MemoryBytes reports the oracle size. A built (or legacy-loaded) site
// oracle reports the inner SE oracle plus the per-face site lists; the site
// table itself is the inner oracle's point table (one copy, counted there).
// One loaded from a flat body reports the heap it holds beside the image:
// the engine struct with its inflated site table, the face-site lists, and
// the decoded mesh with its locator and exact engine (siteGeometryBytes).
// Its body is the image, counted by MappedBytes. Per-query scratch the
// geodesic engine pools is not counted.
func (so *SiteOracle) MemoryBytes() int64 {
	var b int64
	if so.oracle != nil {
		b = so.oracle.MemoryBytes()
	} else {
		b = so.q.MemoryBytes() + siteGeometryBytes(so.mesh)
	}
	for _, fs := range so.faceSites {
		b += 24 + int64(len(fs))*4
	}
	return b
}

// siteGeometryBytes estimates the heap of a decoded mesh with its locator
// and exact engine: per vertex its position, face list and flags (~60 bytes),
// per face its corners, three half-edges, locator cell entries and the
// engine's three apex positions (~210 bytes).
func siteGeometryBytes(m *terrain.Mesh) int64 {
	return 60*int64(m.NumVerts()) + 210*int64(m.NumFaces())
}

// MappedBytes reports how many bytes the oracle serves in place from the
// retained container image: the flat body of a loaded one, 0 for a built
// one. Part of the MappedIndex interface.
func (so *SiteOracle) MappedBytes() int64 { return so.q.MappedBytes() }

// Stats reports the shared DistanceIndex observability surface, including
// the site-regime counters: site count, spacing, and how many queries fell
// into the short-range exact regime.
func (so *SiteOracle) Stats() IndexStats {
	st := IndexStats{
		Kind:           KindA2A,
		Epsilon:        so.q.eps,
		Points:         so.q.npoi,
		Height:         so.q.height,
		Pairs:          so.q.nPairs,
		MemoryBytes:    so.MemoryBytes(),
		MappedBytes:    so.MappedBytes(),
		Sites:          len(so.q.pts),
		SitesPerEdge:   so.sitesPerEdge,
		SiteSpacing:    so.spacing,
		LocalThreshold: so.localThreshold,
		LocalQueries:   so.localQueries.Load(),
	}
	if so.oracle != nil {
		st.Build = so.oracle.stats
	}
	return st
}

// EncodeTo writes the site oracle as a tagged container (kind "a2a"): the
// inner oracle as a flat body (secFlat; its point slab is the site table),
// the terrain mesh, the per-face site lists, and the regime thresholds. The
// locator and geodesic engine are derived state, rebuilt on load — so
// loading never re-runs an SSAD, and the inner oracle is read in place. A
// loaded flat body is written back verbatim.
func (so *SiteOracle) EncodeTo(w io.Writer) error {
	body := so.q.body
	if body == nil {
		var err error
		if body, err = flatBody(so.q, nil); err != nil {
			return err
		}
	}
	return writeContainer(w, KindA2A, append([]section{bytesSection(secFlat, body)}, so.siteSections()...))
}

// siteSections returns the a2a sections beside the inner oracle: the mesh,
// the per-face site lists and the site meta (threshold, spacing, density).
func (so *SiteOracle) siteSections() []section {
	faceLen := uint64(8)
	for _, fs := range so.faceSites {
		faceLen += 8 + uint64(len(fs))*4
	}
	faceSec := section{id: secFaceSites, length: faceLen, write: func(w io.Writer) error {
		if err := binary.Write(w, binary.LittleEndian, int64(len(so.faceSites))); err != nil {
			return err
		}
		for _, fs := range so.faceSites {
			if err := encodeInt32s(w, fs); err != nil {
				return err
			}
		}
		return nil
	}}
	meta := binary.LittleEndian.AppendUint64(nil, math.Float64bits(so.localThreshold))
	meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(so.spacing))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(so.sitesPerEdge))
	return []section{meshSection(secMesh, so.mesh), faceSec, bytesSection(secSiteMeta, meta)}
}

// decodeA2AContainer rebuilds a *SiteOracle from an a2a-kind section map.
// The inner oracle comes from whichever layout the container holds: a flat
// body (secFlat) is sliced in place with keep threaded through, as for a
// flat container, and its point slab is the site table; a legacy se body
// (secOracle) decodes in full beside its site table (secSites). Either way
// the mesh is revalidated, the locator and exact geodesic engine are
// rebuilt, and every site/face reference is bounds-checked before the query
// path may trust it.
func decodeA2AContainer(secs map[uint32][]byte, keep any) (DistanceIndex, error) {
	if err := requireSections(secs, secMesh, secFaceSites, secSiteMeta); err != nil {
		return nil, err
	}
	so := &SiteOracle{}
	if body, ok := secs[secFlat]; ok {
		f, err := decodeFlatBody(body, keep)
		if err != nil {
			return nil, fmt.Errorf("flat oracle section: %w", err)
		}
		if f.meshC != nil {
			return nil, fmt.Errorf("flat oracle section embeds a mesh slab; the a2a container carries its own")
		}
		if _, err := f.points(); err != nil {
			return nil, err
		}
		so.q = f
	} else {
		inner, err := decodeLegacyA2AOracle(secs)
		if err != nil {
			return nil, err
		}
		so.oracle, so.q = inner, inner.flat
	}
	mesh, err := decodeMesh(secs[secMesh])
	if err != nil {
		return nil, fmt.Errorf("mesh section: %w", err)
	}
	fr := bytes.NewReader(secs[secFaceSites])
	var nfaces int64
	if err := binary.Read(fr, binary.LittleEndian, &nfaces); err != nil {
		return nil, fmt.Errorf("face-site section: %w", err)
	}
	if nfaces != int64(mesh.NumFaces()) {
		return nil, fmt.Errorf("face-site table covers %d faces, mesh has %d", nfaces, mesh.NumFaces())
	}
	faceSites := make([][]int32, 0, capHint(nfaces))
	for f := int64(0); f < nfaces; f++ {
		fs, err := decodeInt32s(fr)
		if err != nil {
			return nil, fmt.Errorf("face-site list %d: %w", f, err)
		}
		for _, id := range fs {
			if id < 0 || int(id) >= len(so.q.pts) {
				return nil, fmt.Errorf("face %d references site %d (of %d)", f, id, len(so.q.pts))
			}
		}
		faceSites = append(faceSites, fs)
	}
	if err := expectDrained(fr, "face-site section"); err != nil {
		return nil, err
	}
	mr := bytes.NewReader(secs[secSiteMeta])
	var thresholds [2]float64
	var per int64
	if err := binary.Read(mr, binary.LittleEndian, &thresholds); err != nil {
		return nil, fmt.Errorf("site-meta section: %w", err)
	}
	if err := binary.Read(mr, binary.LittleEndian, &per); err != nil {
		return nil, fmt.Errorf("site-meta section: %w", err)
	}
	if !finite(thresholds[0]) || thresholds[0] < 0 || !finite(thresholds[1]) || thresholds[1] < 0 || per < 0 || per > 1<<20 {
		return nil, fmt.Errorf("implausible site meta (threshold %g, spacing %g, per-edge %d)", thresholds[0], thresholds[1], per)
	}
	if err := expectDrained(mr, "site-meta section"); err != nil {
		return nil, err
	}
	for i, s := range so.q.pts {
		if err := checkMeshPoint(s, mesh); err != nil {
			return nil, fmt.Errorf("site %d: %w", i, err)
		}
	}
	eng := geodesic.NewExact(mesh)
	// The inner engine shares the site oracle's mesh and geodesic engine so
	// QueryPath works after a load exactly as on a freshly built oracle (the
	// a2a container carries one mesh; the inner body stays mesh-free).
	so.q.mesh, so.q.peng = mesh, eng
	so.mesh, so.faceSites, so.locator, so.eng = mesh, faceSites, terrain.NewLocator(mesh), eng
	so.localThreshold, so.spacing, so.sitesPerEdge = thresholds[0], thresholds[1], int(per)
	return so, nil
}

// decodeLegacyA2AOracle decodes the inner oracle of an a2a container written
// before the flat layout: the se body in full (its engine laid out again)
// and the site table beside it, which becomes the oracle's point table so
// Nearest and memory accounting behave as on a freshly built oracle.
func decodeLegacyA2AOracle(secs map[uint32][]byte) (*Oracle, error) {
	if err := requireSections(secs, secOracle, secSites); err != nil {
		return nil, err
	}
	obr := bytes.NewReader(secs[secOracle])
	inner, err := decodeBody(obr)
	if err != nil {
		return nil, err
	}
	if err := expectDrained(obr, "oracle section"); err != nil {
		return nil, err
	}
	sites, err := decodePoints(secs[secSites])
	if err != nil {
		return nil, fmt.Errorf("site section: %w", err)
	}
	if len(sites) != inner.NumPOIs() {
		return nil, fmt.Errorf("site table holds %d sites for an oracle over %d", len(sites), inner.NumPOIs())
	}
	inner.flat.pts = sites
	return inner, nil
}
