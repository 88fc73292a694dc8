package core

import (
	"fmt"
	"io"

	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// lodbuild.go — construction of hierarchical (LOD) multi containers and the
// streaming tiled encoder. BuildShardedLOD extends BuildShardedSE's fine SE
// grid with boundary portals on shared tile edges and one coarse A2A member
// per extra level; WriteSharded streams either build (hierarchical or plain)
// straight into a container file one tile at a time, so peak build heap
// stays ~one tile instead of the whole grid. Both paths run the same plan
// and the same per-tile builds, so for identical inputs the streamed
// container is byte-for-byte the resident EncodeTo output.

// DefaultPortalsPerEdge is the boundary-portal density used when
// LODOptions.PortalsPerEdge is zero: portals per shared fine-tile edge. The
// stitched detour error of a short-range cross-tile query is bounded by the
// on-edge portal spacing, so the density trades container size (each portal
// joins two members' POI sets) against cross-tile accuracy.
const DefaultPortalsPerEdge = 8

// LODOptions configures BuildShardedLOD and WriteSharded.
type LODOptions struct {
	// Options configures every member build (fine SE tiles and the coarse
	// site oracles alike), except that Workers budgets the whole build
	// rather than each member; the Workers/Seed determinism contract of
	// Build holds member by member, so the whole container is
	// byte-identical for any worker count.
	Options
	// Levels is the total level count including the fine grid at level 0;
	// it must be at least 2 (each level above 0 adds one terrain-spanning
	// coarse A2A member).
	Levels int
	// PortalsPerEdge is the number of boundary portals placed on each
	// shared fine-tile edge (0 = DefaultPortalsPerEdge).
	PortalsPerEdge int
	// SitesPerEdge is the level-1 coarse member's Steiner site density
	// (0 = derive from Epsilon, as BuildSiteOracle does); each further
	// level halves it, so coarser levels stay cheaper.
	SitesPerEdge int
}

// tilePlan is one fine tile of the sharded plan: its manifest identity and
// the POIs it will index (real POIs first, then any portals appended by the
// hierarchy plan).
type tilePlan struct {
	name   string
	bbox   BBox2D
	ix, iy int
	pois   []terrain.SurfacePoint
	npois  int64 // real POIs (before portals)
}

// planFineTiles partitions the POIs over the shards-tile grid exactly as
// BuildShardedSE always has: row-major tile order, half-open tile
// membership, empty tiles dropped.
func planFineTiles(m *terrain.Mesh, pois []terrain.SurfacePoint, shards int) ([]tilePlan, error) {
	if shards < 1 || shards > maxShardMembers {
		return nil, fmt.Errorf("core: shard count %d out of range [1,%d]", shards, maxShardMembers)
	}
	if len(pois) == 0 {
		return nil, fmt.Errorf("core: no POIs")
	}
	st := m.ComputeStats()
	minX, minY := st.BBoxMin.X, st.BBoxMin.Y
	spanX, spanY := st.BBoxMax.X-minX, st.BBoxMax.Y-minY
	kx, ky := shardGrid(shards)

	buckets := make([][]terrain.SurfacePoint, kx*ky)
	for _, p := range pois {
		ix := tileIndex(p.P.X, minX, spanX, kx)
		iy := tileIndex(p.P.Y, minY, spanY, ky)
		buckets[iy*kx+ix] = append(buckets[iy*kx+ix], p)
	}
	var tiles []tilePlan
	for iy := 0; iy < ky; iy++ {
		for ix := 0; ix < kx; ix++ {
			pts := buckets[iy*kx+ix]
			if len(pts) == 0 {
				continue
			}
			tiles = append(tiles, tilePlan{
				name: fmt.Sprintf("tile-%d-%d", ix, iy),
				bbox: BBox2D{
					MinX: minX + spanX*float64(ix)/float64(kx),
					MinY: minY + spanY*float64(iy)/float64(ky),
					MaxX: minX + spanX*float64(ix+1)/float64(kx),
					MaxY: minY + spanY*float64(iy+1)/float64(ky),
				},
				ix: ix, iy: iy,
				pois:  pts,
				npois: int64(len(pts)),
			})
		}
	}
	return tiles, nil
}

// coarsePlan is one coarse (level > 0) member of the hierarchy plan: a
// site-based A2A oracle spanning the whole terrain.
type coarsePlan struct {
	name         string
	level        uint16
	sitesPerEdge int
}

// shardPlan is everything about a sharded build that is decided before any
// geodesic work runs: the tile partition (with portals already appended to
// the affected tiles' POI lists), the coarse member list, and the validated
// hierarchy (levels, parents, POI counts and the canonical portal links, as
// they will appear on disk). Both build paths (resident BuildShardedLOD and
// streaming WriteSharded) run the same plan, which is what makes their
// outputs byte-identical.
type shardPlan struct {
	tiles    []tilePlan
	coarse   []coarsePlan
	terrBBox BBox2D
	hier     *hierMeta // nil for a plain (non-hierarchical) plan
}

func (pl *shardPlan) numMembers() int { return len(pl.tiles) + len(pl.coarse) }

// memberIdentity returns member ordinal i's manifest identity: fine tiles
// are written in the flat layout (see encodeMember), coarse members as a2a.
func (pl *shardPlan) memberIdentity(i int) (name string, kind Kind, bbox BBox2D) {
	if i < len(pl.tiles) {
		return pl.tiles[i].name, KindFlat, pl.tiles[i].bbox
	}
	return pl.coarse[i-len(pl.tiles)].name, KindA2A, pl.terrBBox
}

// planSharded runs the whole pre-build plan: the fine tile partition, and —
// when opt.Levels asks for a hierarchy — the boundary portals and the coarse
// member list. Portal links are generated directly in canonical (A, B, IDA)
// order with ids assigned by scan order, the exact layout buildHierMeta
// validates: ordinals ascend row-major, and for each tile the right neighbor
// (same row) precedes the top neighbor (next row).
func planSharded(m *terrain.Mesh, pois []terrain.SurfacePoint, shards int, opt LODOptions) (*shardPlan, error) {
	if opt.Levels > maxLODLevels+1 {
		return nil, fmt.Errorf("core: %d LOD levels requested (max %d)", opt.Levels, maxLODLevels+1)
	}
	tiles, err := planFineTiles(m, pois, shards)
	if err != nil {
		return nil, err
	}
	st := m.ComputeStats()
	pl := &shardPlan{tiles: tiles, terrBBox: BBox2D{
		MinX: st.BBoxMin.X, MinY: st.BBoxMin.Y, MaxX: st.BBoxMax.X, MaxY: st.BBoxMax.Y,
	}}
	if opt.Levels <= 1 {
		return pl, nil
	}

	// Boundary portals: for each pair of edge-adjacent non-empty tiles,
	// evenly spaced points along the shared tile edge, projected onto the
	// surface (points the terrain cannot project are skipped). The same
	// surface point is appended to both tiles, so a stitched path meets
	// bit-identically at the portal.
	var links []PortalLink
	per := opt.PortalsPerEdge
	if per == 0 {
		per = DefaultPortalsPerEdge
	}
	if per < 0 {
		return nil, fmt.Errorf("core: negative portal density %d", per)
	}
	loc := terrain.NewLocator(m)
	at := make(map[[2]int]int, len(tiles))
	for i := range tiles {
		at[[2]int{tiles[i].ix, tiles[i].iy}] = i
	}
	for a := range tiles {
		ta := &tiles[a]
		for _, d := range [2][2]int{{1, 0}, {0, 1}} {
			b, ok := at[[2]int{ta.ix + d[0], ta.iy + d[1]}]
			if !ok {
				continue
			}
			for k := 1; k <= per; k++ {
				frac := float64(k) / float64(per+1)
				var x, y float64
				if d[0] == 1 { // right neighbor: the shared edge is vertical
					x, y = ta.bbox.MaxX, ta.bbox.MinY+(ta.bbox.MaxY-ta.bbox.MinY)*frac
				} else { // top neighbor: the shared edge is horizontal
					x, y = ta.bbox.MinX+(ta.bbox.MaxX-ta.bbox.MinX)*frac, ta.bbox.MaxY
				}
				p, ok := loc.Project(x, y)
				if !ok {
					continue
				}
				links = append(links, PortalLink{
					A: int32(a), B: int32(b),
					IDA: int32(len(tiles[a].pois)), IDB: int32(len(tiles[b].pois)),
				})
				tiles[a].pois = append(tiles[a].pois, p)
				tiles[b].pois = append(tiles[b].pois, p)
			}
		}
	}
	if len(links) > maxPortalLinks {
		return nil, fmt.Errorf("core: plan holds %d portal links (max %d)", len(links), maxPortalLinks)
	}

	// One coarse A2A member per extra level, site density halving per level.
	base := opt.SitesPerEdge
	if base <= 0 {
		base = SitesPerEdgeForEps(opt.Epsilon)
	}
	for l := 1; l < opt.Levels; l++ {
		spe := base >> (l - 1)
		if spe < 1 {
			spe = 1
		}
		pl.coarse = append(pl.coarse, coarsePlan{
			name: fmt.Sprintf("coarse-%d", l), level: uint16(l), sitesPerEdge: spe,
		})
	}
	if pl.numMembers() > maxShardMembers {
		return nil, fmt.Errorf("core: plan holds %d members (%d tiles + %d coarse levels, max %d)",
			pl.numMembers(), len(tiles), len(pl.coarse), maxShardMembers)
	}

	n := pl.numMembers()
	levels := make([]uint16, n)
	parents := make([]int32, n)
	npois := make([]int64, n)
	bboxes := make([]BBox2D, n)
	for i := range tiles {
		parents[i] = int32(len(tiles)) // the level-1 coarse member
		npois[i] = tiles[i].npois
	}
	for j := range pl.coarse {
		i := len(tiles) + j
		levels[i] = pl.coarse[j].level
		if j+1 < len(pl.coarse) {
			parents[i] = int32(i + 1)
		} else {
			parents[i] = -1
		}
	}
	for i := range bboxes {
		_, _, bboxes[i] = pl.memberIdentity(i)
	}
	if pl.hier, err = buildHierMeta(levels, parents, npois, links, bboxes); err != nil {
		return nil, fmt.Errorf("core: plan produced an invalid hierarchy: %w", err)
	}
	return pl, nil
}

// buildMember builds member ordinal i of the plan, a fine SE tile (over real
// POIs + portals) or a coarse site oracle, with its parallel phases drawing
// on b.
func (pl *shardPlan) buildMember(eng geodesic.Engine, m *terrain.Mesh, i int, opt Options, b *budget) (DistanceIndex, error) {
	if i < len(pl.tiles) {
		t := &pl.tiles[i]
		o, err := build(eng, t.pois, opt, b)
		if err != nil {
			return nil, fmt.Errorf("core: building shard %s (%d POIs): %w", t.name, len(t.pois), err)
		}
		return o, nil
	}
	c := pl.coarse[i-len(pl.tiles)]
	so, err := buildSiteOracle(eng, m, SiteOptions{Options: opt, SitesPerEdge: c.sitesPerEdge}, b)
	if err != nil {
		return nil, fmt.Errorf("core: building coarse member %s: %w", c.name, err)
	}
	return so, nil
}

// buildOrder is the order a resident build hands members out in: the coarse
// members first, the widest level first, since each spans the whole terrain
// and is the longest build; then the tiles in manifest order. The longest
// builds thus start at once, and the tiles fill the slots their sequential
// phases leave idle.
func (pl *shardPlan) buildOrder() []int {
	order := make([]int, 0, pl.numMembers())
	for j := range pl.coarse {
		order = append(order, len(pl.tiles)+j)
	}
	for i := range pl.tiles {
		order = append(order, i)
	}
	return order
}

// BuildShardedLOD builds a hierarchical multi index: the fine SE tile grid of
// BuildShardedSE augmented with boundary portals on shared tile edges, plus
// opt.Levels-1 coarse A2A members spanning the whole terrain (long-range
// cross-tile queries route to them; short-range straddling pairs stitch
// through the portals — see hierarchy.go). With opt.Levels <= 1 it builds
// the plain tile grid, which is what BuildShardedSE returns.
//
// The members build concurrently under one worker budget of opt.Workers:
// the member fan-out and every member's inner phases draw on the same
// slots, so no more than opt.Workers SSADs ever run at once, and a slot a
// finished member frees joins a member still building (see buildOrder).
//
// Like every build in this package the output is deterministic for any
// opt.Workers: tile membership and portal placement are pure functions of the
// inputs, member builds honor the Build contract, and members are emitted in
// row-major tile order followed by the coarse levels, finest first.
func BuildShardedLOD(eng geodesic.Engine, m *terrain.Mesh, pois []terrain.SurfacePoint, shards int, opt LODOptions) (*ShardedIndex, error) {
	pl, err := planSharded(m, pois, shards, opt)
	if err != nil {
		return nil, err
	}
	n := pl.numMembers()
	b := newBudget(opt.Workers)
	order := pl.buildOrder()
	built := make([]DistanceIndex, n)
	errs := make([]error, n)
	b.parfor(n, func(k int) {
		i := order[k]
		built[i], errs[i] = pl.buildMember(eng, m, i, opt.Options, b)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	members := make([]ShardMember, n)
	ords := make([]int, n)
	names := make([]string, n)
	for i := range members {
		name, _, bbox := pl.memberIdentity(i)
		members[i] = ShardMember{Name: name, BBox: bbox, Index: built[i]}
		ords[i], names[i] = i, name
	}
	return newMulti(members, pl.hier, ords, names)
}

// --- streaming tiled encode ---------------------------------------------------

// ShardedBuildSummary reports what a streaming WriteSharded produced, for CLI
// progress output (the built index itself is never resident as a whole).
type ShardedBuildSummary struct {
	// FineTiles and CoarseTiles count the members written.
	FineTiles, CoarseTiles int
	// Portals counts the boundary-portal links.
	Portals int
	// Points is the global id space: the fine tiles' real POIs.
	Points int
}

// WriteSharded builds a sharded (optionally hierarchical) multi container
// and streams it straight to w, one member at a time: the manifest,
// hierarchy, portal and shared-mesh sections go out first (all are
// functions of the plan alone), then each tile is built, encoded, written
// and dropped before the next begins. Peak build heap is therefore ~one tile
// — the terrain, the engine and the largest single member — instead of the
// whole grid, while the bytes written are exactly what building the whole
// index resident (BuildShardedLOD, EncodeTo) would produce: fine tiles in
// the flat layout, coarse members as a2a.
//
// The members are built one after another, each with the full opt.Workers
// budget inside; since every member build is deterministic for any worker
// count, the sequential schedule changes nothing but peak memory.
func WriteSharded(w io.Writer, eng geodesic.Engine, m *terrain.Mesh, pois []terrain.SurfacePoint, shards int, opt LODOptions) (ShardedBuildSummary, error) {
	var sum ShardedBuildSummary
	pl, err := planSharded(m, pois, shards, opt)
	if err != nil {
		return sum, err
	}
	sum.FineTiles, sum.CoarseTiles = len(pl.tiles), len(pl.coarse)
	if pl.hier != nil {
		sum.Portals = len(pl.hier.portals)
	}
	for i := range pl.tiles {
		sum.Points += int(pl.tiles[i].npois)
	}
	b := newBudget(opt.Workers)
	return sum, writeMulti(w, pl.numMembers(), pl.memberIdentity, pl.hier, func(i int) ([]byte, error) {
		idx, err := pl.buildMember(eng, m, i, opt.Options, b)
		if err != nil {
			return nil, err
		}
		_, encode := encodeMember(idx, m)
		body, err := encode()
		if err != nil {
			name, _, _ := pl.memberIdentity(i)
			return nil, fmt.Errorf("core: encoding member %q: %w", name, err)
		}
		return body, nil
	}, meshSection(secMesh, m))
}
