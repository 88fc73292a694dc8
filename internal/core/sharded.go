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

// sharded.go — the multi-index container. A ShardedIndex bundles many member
// indexes (any non-multi kind) behind one DistanceIndex, each member tagged
// with a name and a planar bounding box. The serving layer routes requests to
// a member by name or by locating coordinates in a member's bbox; sebuild
// -shards=K produces one by tiling the terrain and building one SE oracle per
// tile. On disk it is a KindMulti container: a manifest section naming every
// member (name, kind, bbox), followed by the members' existing tagged
// container bodies, one per section — SE oracles in the flat layout.

const (
	// maxShardMembers bounds how many members one multi container may carry
	// (the envelope's maxContainerSections leaves room for 63 member
	// sections; 48 keeps headroom for future shared sections).
	maxShardMembers = 48
	// maxShardNameLen bounds one member name.
	maxShardNameLen = 64
)

// BBox2D is a closed planar axis-aligned bounding box.
type BBox2D struct {
	MinX, MinY, MaxX, MaxY float64
}

// Containment is half-open [min, max) per axis — a point on a shared tile
// boundary belongs to exactly one member — and only ShardedIndex.contains
// implements it, because the rule needs the tiling's outer bounds (the
// outermost max edges have no neighboring tile to own them). There is
// deliberately no per-box Contains method: it could not answer the outer
// boundary consistently with Locate.

// dist2 returns the squared planar distance from (x, y) to the box (zero
// inside it).
func (b BBox2D) dist2(x, y float64) float64 {
	dx := math.Max(0, math.Max(b.MinX-x, x-b.MaxX))
	dy := math.Max(0, math.Max(b.MinY-y, y-b.MaxY))
	return dx*dx + dy*dy
}

// validate rejects the boxes no routing decision can trust: non-finite
// corners and inverted (empty) extents. A degenerate point box is legal — a
// shard of one POI has zero extent.
func (b BBox2D) validate() error {
	for _, v := range []float64{b.MinX, b.MinY, b.MaxX, b.MaxY} {
		if !finite(v) {
			return fmt.Errorf("bbox corner %g is not finite", v)
		}
	}
	if b.MinX > b.MaxX || b.MinY > b.MaxY {
		return fmt.Errorf("bbox [%g,%g]x[%g,%g] is inverted", b.MinX, b.MaxX, b.MinY, b.MaxY)
	}
	return nil
}

// ShardMember is one named member of a ShardedIndex. Its index ids are local
// to the member: POI 0 of one shard is unrelated to POI 0 of another.
type ShardMember struct {
	Name  string
	BBox  BBox2D
	Index DistanceIndex
}

// ShardedIndex is a multi-index container: several independent member indexes
// served as one unit. It implements DistanceIndex so the loader, the CLI
// tools and the serving layer treat it uniformly, but its id-addressed
// Query/QueryBatch only answer directly when exactly one member exists —
// with more, the caller must pick a member (by name or bbox) first.
type ShardedIndex struct {
	members []ShardMember
	byName  map[string]int
	// maxX/maxY are the member bboxes' global maxima: under half-open
	// containment the max edge of a tile belongs to its neighbor, except on
	// the index's outer boundary, where these maxima re-admit it.
	maxX, maxY float64

	// Hierarchy state, nil/empty on legacy flat-grid multis (see
	// hierarchy.go): hier is the decoded LOD/portal metadata, ord maps
	// member slice index → manifest ordinal, memAt maps manifest ordinal →
	// member slice index (-1 when the member is quarantined), and ordName
	// keeps every ordinal's manifest name — including quarantined ones, so
	// global-id errors stay stable under degraded loads.
	hier    *hierMeta
	ord     []int
	memAt   []int
	ordName []string

	// rs tracks lazy members under a memory budget and rawMesh keeps the
	// raw shared-mesh section bytes for byte-identical lazy re-encode; both
	// are nil on eager loads (see lazy.go).
	rs      *residentSet
	rawMesh []byte

	portalQueries atomic.Int64
	coarseQueries atomic.Int64
}

// validShardName enforces the member-name alphabet: names travel in URLs
// (?index=) and file manifests, so they are restricted to [A-Za-z0-9._-].
func validShardName(name string) error {
	if name == "" {
		return fmt.Errorf("empty member name")
	}
	if len(name) > maxShardNameLen {
		return fmt.Errorf("member name %d bytes long (max %d)", len(name), maxShardNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("member name %q contains %q (allowed: letters, digits, '.', '_', '-')", name, c)
		}
	}
	return nil
}

// NewShardedIndex builds a multi index over members, validating names
// (unique, URL-safe), bboxes and member kinds (nesting multi inside multi is
// not supported).
func NewShardedIndex(members []ShardMember) (*ShardedIndex, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: multi index needs at least one member")
	}
	if len(members) > maxShardMembers {
		return nil, fmt.Errorf("core: multi index holds %d members (max %d)", len(members), maxShardMembers)
	}
	byName := make(map[string]int, len(members))
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i, m := range members {
		if err := validShardName(m.Name); err != nil {
			return nil, fmt.Errorf("core: member %d: %v", i, err)
		}
		if _, dup := byName[m.Name]; dup {
			return nil, fmt.Errorf("core: duplicate member name %q", m.Name)
		}
		if err := m.BBox.validate(); err != nil {
			return nil, fmt.Errorf("core: member %q: %v", m.Name, err)
		}
		if m.Index == nil {
			return nil, fmt.Errorf("core: member %q has no index", m.Name)
		}
		if _, nested := m.Index.(*ShardedIndex); nested {
			return nil, fmt.Errorf("core: member %q is itself a multi index (nesting unsupported)", m.Name)
		}
		byName[m.Name] = i
		maxX = math.Max(maxX, m.BBox.MaxX)
		maxY = math.Max(maxY, m.BBox.MaxY)
	}
	return &ShardedIndex{members: members, byName: byName, maxX: maxX, maxY: maxY}, nil
}

// Members returns the member list in manifest order. The slice aliases
// index-owned memory and must be treated as read-only.
func (sh *ShardedIndex) Members() []ShardMember { return sh.members }

// NumMembers returns the member count.
func (sh *ShardedIndex) NumMembers() int { return len(sh.members) }

// MemberNames returns the member names in manifest order.
func (sh *ShardedIndex) MemberNames() []string {
	names := make([]string, len(sh.members))
	for i, m := range sh.members {
		names[i] = m.Name
	}
	return names
}

// Member returns the named member.
func (sh *ShardedIndex) Member(name string) (ShardMember, bool) {
	i, ok := sh.byName[name]
	if !ok {
		return ShardMember{}, false
	}
	return sh.members[i], true
}

// Locate returns the member owning the planar point — the
// coordinate-routing rule of the serving layer: the member whose bbox
// contains it under half-open [min,max) semantics (a member on the index's
// outer boundary keeps its outer max edge, so the tiling's closure is
// preserved), else the member whose bbox is planar-closest. Half-open
// containment makes a point on a shared tile boundary belong to exactly
// one tile — the routing decision is a function of the manifest's bboxes,
// not of manifest order, and therefore survives encode → load unchanged.
// Routing is total (a point a single un-sharded index would answer never
// strands between tiles — a tile dropped for holding no POIs, or a point
// just outside the terrain, falls to the nearest member); in the fallback,
// manifest order makes distance ties deterministic. contained reports
// whether a bbox actually held the point.
func (sh *ShardedIndex) Locate(x, y float64) (m ShardMember, contained bool) {
	best, bestD2 := 0, math.Inf(1)
	for i, mm := range sh.members {
		if sh.contains(mm.BBox, x, y) {
			return mm, true
		}
		if d2 := mm.BBox.dist2(x, y); d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return sh.members[best], false
}

// contains is the half-open membership test Locate routes by: [min, max)
// per axis, with the max edge re-admitted for members sitting on the
// index's outer boundary (there is no neighboring tile to own it).
func (sh *ShardedIndex) contains(b BBox2D, x, y float64) bool {
	if x < b.MinX || y < b.MinY || x > b.MaxX || y > b.MaxY {
		return false
	}
	if x == b.MaxX && b.MaxX < sh.maxX {
		return false
	}
	if y == b.MaxY && b.MaxY < sh.maxY {
		return false
	}
	return true
}

// Query answers an id pair through route (see hierarchy.go): the sole
// member when exactly one exists; on a hierarchical container the global id
// space (the level-0 members' real POIs concatenated in manifest order),
// where same-member pairs delegate and cross-member pairs stitch through
// boundary portals or go to the coarse level. A legacy flat-grid multi keeps
// the old contract — ids are member-local and the caller must address a
// member by name or bbox first.
func (sh *ShardedIndex) Query(s, t int32) (float64, error) {
	_, d, err := sh.answer(s, t, nil, false)
	return d, err
}

// QueryBatch answers pairs through Query (so the single-member delegation
// and the ambiguity error apply batch-wide). Part of the DistanceIndex
// interface; errors carry the offending pair index.
func (sh *ShardedIndex) QueryBatch(pairs [][2]int32, dst []float64) ([]float64, error) {
	return BatchViaQuery(sh.Query, pairs, dst)
}

// MemoryBytes sums the members plus the manifest bookkeeping.
func (sh *ShardedIndex) MemoryBytes() int64 {
	var b int64
	for _, m := range sh.members {
		b += m.Index.MemoryBytes() + int64(len(m.Name)) + 48
	}
	return b
}

// MappedBytes sums the members' in-place container image bytes (flat
// members; zero for decoded kinds). Part of the MappedIndex interface.
func (sh *ShardedIndex) MappedBytes() int64 {
	var b int64
	for _, m := range sh.members {
		b += MappedBytesOf(m.Index)
	}
	return b
}

// Stats aggregates the members: point/pair/memory sums, the maximum height
// and epsilon (the conservative error bound across shards), and the member
// count. A hierarchical index reports the global id space as Points — a
// function of the manifest, stable across lazy eviction and excluding
// synthetic portal POIs and coarse sites — plus the resident-set counters.
func (sh *ShardedIndex) Stats() IndexStats {
	st := IndexStats{Kind: KindMulti, Members: len(sh.members)}
	for _, m := range sh.members {
		ms := m.Index.Stats()
		st.Points += ms.Points
		st.Pairs += ms.Pairs
		st.MemoryBytes += ms.MemoryBytes
		st.MappedBytes += ms.MappedBytes
		st.Epsilon = math.Max(st.Epsilon, ms.Epsilon)
		if ms.Height > st.Height {
			st.Height = ms.Height
		}
	}
	if sh.hier != nil {
		st.Points = int(sh.hier.total)
	}
	if ts, ok := sh.TileStats(); ok {
		st.TilesResident = ts.Resident
		st.TileBudgetBytes = ts.BudgetBytes
		st.TileFaults = ts.Faults
		st.TileEvictions = ts.Evictions
		st.PortalQueries = ts.PortalQueries
		st.CoarseQueries = ts.CoarseQueries
	}
	return st
}

// --- serialization ----------------------------------------------------------

// Manifest layout: count int64, then per member kind uint16, nameLen uint16,
// name bytes, bbox 4 × float64. Member i's tagged container body follows as
// section secMemberBase+i, in manifest order.

// manifestSection streams the manifest of n members whose identities entry
// reports (see writeMulti).
func manifestSection(n int, entry func(i int) (name string, kind Kind, bbox BBox2D)) section {
	length := uint64(8)
	for i := 0; i < n; i++ {
		name, _, _ := entry(i)
		length += 2 + 2 + uint64(len(name)) + 32
	}
	return section{id: secManifest, length: length, write: func(w io.Writer) error {
		if err := binary.Write(w, binary.LittleEndian, int64(n)); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			name, kind, bbox := entry(i)
			if err := binary.Write(w, binary.LittleEndian, []uint16{uint16(kind), uint16(len(name))}); err != nil {
				return err
			}
			if _, err := io.WriteString(w, name); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian,
				[4]float64{bbox.MinX, bbox.MinY, bbox.MaxX, bbox.MaxY}); err != nil {
				return err
			}
		}
		return nil
	}}
}

// sharedMesh returns the terrain mesh to hoist into the multi container's
// one shared mesh section: the first SE member's retained mesh, or the mesh
// a flat member adopted from a previous multi load (its body carries no
// mesh slab, so the shared section must be re-emitted for it). The tiled
// build hands every tile the same *Mesh, so only members holding exactly
// that mesh are stripped of their per-member copy — a hand-assembled index
// mixing terrains keeps each member's own embedded mesh.
func (sh *ShardedIndex) sharedMesh() *terrain.Mesh {
	for _, m := range sh.members {
		if o, ok := m.Index.(*Oracle); ok && o.Mesh() != nil {
			return o.Mesh()
		}
		if f, ok := m.Index.(*FlatOracle); ok && f.meshC == nil && f.mesh != nil {
			return f.mesh
		}
	}
	return nil
}

// EncodeTo writes the multi index as a tagged container (kind "multi"):
// the manifest, the hierarchy and portal sections (hierarchical containers
// only), one shared terrain mesh (when the SE members tile a common
// terrain — embedding it per member would store K identical copies), then
// every member's own container bytes. SE oracle members are written in the
// flat layout (see encodeMember), so a member load is a checksum and a slab
// slice, never a decode. Members are encoded one at a time, each written
// before the next is encoded (their containers are deterministic, so decode
// → re-encode stays byte-identical member by member); lazy members re-emit
// their retained section bytes verbatim, so a budgeted load re-encodes
// byte-identically without faulting anything in.
//
// A degraded hierarchical index (quarantined members) refuses to re-encode:
// the hierarchy's ordinals, global id bases and portal links all reference
// the full manifest, and a container rewritten without the missing members
// would silently renumber the id space.
func (sh *ShardedIndex) EncodeTo(w io.Writer) error { return sh.encode(w, encodeMember) }

// memberEncoder reports the kind member idx's manifest entry names and a
// function that encodes its body. shared is the mesh the container hoists
// into its shared section (nil when there is none).
type memberEncoder func(idx DistanceIndex, shared *terrain.Mesh) (Kind, func() ([]byte, error))

// encodeMember is the multi container's member encoder: an SE oracle goes
// out as a flat container (without its mesh when the container shares it),
// a lazy member re-emits its retained bytes, and every other kind encodes as
// itself.
func encodeMember(idx DistanceIndex, shared *terrain.Mesh) (Kind, func() ([]byte, error)) {
	if lm := lazyOf(idx); lm != nil {
		return lm.kind, func() ([]byte, error) { return lm.payload, nil }
	}
	if o, ok := idx.(*Oracle); ok {
		return KindFlat, func() ([]byte, error) {
			mesh := o.Mesh()
			if mesh == shared {
				mesh = nil // hoisted into the shared section
			}
			var buf bytes.Buffer
			err := o.encodeFlatContainer(&buf, mesh)
			return buf.Bytes(), err
		}
	}
	return idx.Stats().Kind, func() ([]byte, error) {
		var buf bytes.Buffer
		err := idx.EncodeTo(&buf)
		return buf.Bytes(), err
	}
}

// encode writes the container with the given member encoder.
func (sh *ShardedIndex) encode(w io.Writer, enc memberEncoder) error {
	if sh.hier != nil && len(sh.members) != len(sh.hier.levels) {
		return fmt.Errorf("core: refusing to re-encode a degraded hierarchical multi (%d of %d members loaded; global ids would renumber)",
			len(sh.members), len(sh.hier.levels))
	}
	var shared *terrain.Mesh
	var mesh []section
	if sh.rawMesh != nil {
		mesh = append(mesh, bytesSection(secMesh, sh.rawMesh))
	} else if shared = sh.sharedMesh(); shared != nil {
		mesh = append(mesh, meshSection(secMesh, shared))
	}
	kinds := make([]Kind, len(sh.members))
	bodies := make([]func() ([]byte, error), len(sh.members))
	for i, m := range sh.members {
		kinds[i], bodies[i] = enc(m.Index, shared)
	}
	return writeMulti(w, len(sh.members), func(i int) (string, Kind, BBox2D) {
		return sh.members[i].Name, kinds[i], sh.members[i].BBox
	}, sh.hier, func(i int) ([]byte, error) {
		body, err := bodies[i]()
		if err != nil {
			return nil, fmt.Errorf("core: encoding member %q: %w", sh.members[i].Name, err)
		}
		return body, nil
	}, mesh...)
}

// writeMulti streams a multi container of n members: the manifest (entry
// reports member i's identity), the hierarchy and portal sections when h is
// non-nil, the shared mesh section when mesh holds one, then every member
// body in manifest order. body(i) produces member i's container bytes, and
// each body is written before the next is produced, so at most one is held
// at a time. EncodeTo and WriteSharded both write through it, which is what
// keeps a streamed build byte-identical to the resident one.
func writeMulti(w io.Writer, n int, entry func(i int) (string, Kind, BBox2D), h *hierMeta, body func(i int) ([]byte, error), mesh ...section) error {
	secs := []section{manifestSection(n, entry)}
	if h != nil {
		secs = append(secs, hierarchySection(h.levels, h.parents, h.npois))
		if len(h.portals) > 0 {
			secs = append(secs, portalsSection(h.portals))
		}
	}
	secs = append(secs, mesh...)
	cw, err := newContainerWriter(w, KindMulti, len(secs)+n)
	if err != nil {
		return err
	}
	for _, s := range secs {
		if err := cw.section(s); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		b, err := body(i)
		if err != nil {
			return err
		}
		if err := cw.section(bytesSection(secMemberBase+uint32(i), b)); err != nil {
			return err
		}
	}
	return cw.finish()
}

// loadMember decodes one member body from its in-place section bytes. Every
// member is verified against its own CRC footer first, flat ones included:
// a member is one tile of a larger image, so its checksum is paid once, at
// eager load or at the lazy fault, before the member first serves. A flat
// member is then sliced zero-copy with keep threaded through.
func loadMember(payload []byte, keep any) (DistanceIndex, error) {
	kind, secs, err := sliceContainer(payload)
	if err != nil {
		return nil, err
	}
	if err := verifyImageCRC(payload); err != nil {
		return nil, err
	}
	if kind == KindMulti {
		return nil, fmt.Errorf("member is itself a multi index (nesting unsupported)")
	}
	return decodeSections(kind, secs, keep)
}

// decodeMember is the one member decode of a multi load: loadMember, then
// the checks against what the manifest and the hierarchy say of the member —
// the manifest kind, the shared terrain mesh (an se member without its own
// mesh adopts it once its POIs are checked against it; a flat member adopts
// it unchecked and validates its POIs on its first path query, as the flat
// layout defers every cold-slab decode), and the hierarchy's point count
// (npois real POIs plus portals; expectPts < 0 skips the check). An eager
// load runs it for every member at load time, a budgeted load at the
// member's first fault.
func decodeMember(payload []byte, keep any, kind Kind, npois, expectPts int64, shared func() (*terrain.Mesh, error)) (DistanceIndex, error) {
	idx, err := loadMember(payload, keep)
	if err != nil {
		return nil, err
	}
	if got := idx.Stats().Kind; got != kind {
		return nil, fmt.Errorf("manifest says kind %s, body holds %s", kind, got)
	}
	mesh, err := shared()
	if err != nil {
		return nil, err
	}
	if o, ok := idx.(*Oracle); ok && o.Mesh() == nil && mesh != nil {
		for j, p := range o.Points() {
			if err := checkMeshPoint(p, mesh); err != nil {
				return nil, fmt.Errorf("POI %d against the shared mesh: %w", j, err)
			}
		}
		o.flat.mesh = mesh
	}
	if fo, ok := idx.(*FlatOracle); ok && fo.meshC == nil && mesh != nil {
		fo.mesh = mesh
	}
	if expectPts >= 0 {
		if got := idx.Stats().Points; int64(got) != expectPts {
			return nil, fmt.Errorf("hierarchy expects %d points (%d POIs + portals), body holds %d", expectPts, npois, got)
		}
	}
	return idx, nil
}

// decodeMulti rebuilds a *ShardedIndex from a multi-kind section map. The
// manifest is the source of truth: a member count that disagrees with the
// member sections actually present (either direction), a manifest kind that
// disagrees with a member's body, duplicate or malformed names, and invalid
// bboxes are all corruption, not slack.
//
// In tolerant mode, member-level failures — a missing member section, or a
// body that fails decodeMember — quarantine the member instead of failing
// the load, and the healthy rest are assembled. Manifest, hierarchy and
// shared-mesh damage stays fatal in both modes: without a trustworthy
// manifest there is no member identity to quarantine under. Tolerant loads
// fail only when every member is damaged. keep is retained by zero-copy
// (flat) members whose slabs alias the section bytes (see LoadBytesOpts).
//
// Lazy mode (opt.MemBudget > 0, see lazy.go) defers each member's
// decodeMember — its CRC check, body decode and validation — to the first
// query that touches it (a deliberate relaxation: cold start must not pay
// for tiles the traffic never visits). A body that fails at fault time
// serves ErrMemberFault thereafter; only a missing member section is still
// a load-time failure.
func decodeMulti(secs map[uint32][]byte, keep any, opt LoadOptions) (DistanceIndex, []Quarantined, error) {
	tolerant, lazy := opt.Tolerant, opt.MemBudget > 0
	if err := requireSections(secs, secManifest); err != nil {
		return nil, nil, err
	}
	r := bytes.NewReader(secs[secManifest])
	var count int64
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, nil, fmt.Errorf("multi manifest header: %w", err)
	}
	if count < 1 || count > maxShardMembers {
		return nil, nil, fmt.Errorf("multi manifest declares %d members (want 1..%d)", count, maxShardMembers)
	}
	type entry struct {
		name string
		kind Kind
		bbox BBox2D
	}
	entries := make([]entry, 0, count)
	for i := int64(0); i < count; i++ {
		var kindTag, nameLen uint16
		if err := binary.Read(r, binary.LittleEndian, &kindTag); err != nil {
			return nil, nil, fmt.Errorf("multi manifest entry %d: %w", i, err)
		}
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, nil, fmt.Errorf("multi manifest entry %d: %w", i, err)
		}
		if nameLen == 0 || nameLen > maxShardNameLen {
			return nil, nil, fmt.Errorf("multi manifest entry %d: name length %d (want 1..%d)", i, nameLen, maxShardNameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, nil, fmt.Errorf("multi manifest entry %d: %w", i, err)
		}
		if err := validShardName(string(name)); err != nil {
			return nil, nil, fmt.Errorf("multi manifest entry %d: %v", i, err)
		}
		var bb [4]float64
		if err := binary.Read(r, binary.LittleEndian, &bb); err != nil {
			return nil, nil, fmt.Errorf("multi manifest entry %d (%q): %w", i, name, err)
		}
		e := entry{name: string(name), kind: Kind(kindTag), bbox: BBox2D{MinX: bb[0], MinY: bb[1], MaxX: bb[2], MaxY: bb[3]}}
		if err := e.bbox.validate(); err != nil {
			return nil, nil, fmt.Errorf("multi manifest entry %d (%q): %v", i, name, err)
		}
		entries = append(entries, e)
	}
	if err := expectDrained(r, "multi manifest"); err != nil {
		return nil, nil, err
	}
	for id := range secs {
		if id >= secMemberBase && id < secMemberBase+maxShardMembers && int64(id-secMemberBase) >= count {
			return nil, nil, fmt.Errorf("container holds member section %d beyond the %d the manifest declares", id-secMemberBase, count)
		}
	}
	// The optional hierarchy and portal sections make the container
	// hierarchical (global id space, LOD levels, portal stitching — see
	// hierarchy.go). Hierarchy damage is fatal like manifest damage in both
	// modes: global ids and cross-tile routing hang off it.
	var hier *hierMeta
	if payload, ok := secs[secHierarchy]; ok {
		levels, parents, npois, err := decodeHierarchySec(payload, len(entries))
		if err != nil {
			return nil, nil, err
		}
		var links []PortalLink
		if pp, ok := secs[secPortals]; ok {
			links, err = decodePortalsSec(pp)
			if err != nil {
				return nil, nil, err
			}
		}
		bboxes := make([]BBox2D, len(entries))
		for i, e := range entries {
			bboxes[i] = e.bbox
		}
		hier, err = buildHierMeta(levels, parents, npois, links, bboxes)
		if err != nil {
			return nil, nil, fmt.Errorf("hierarchy section: %w", err)
		}
	} else if _, ok := secs[secPortals]; ok {
		return nil, nil, fmt.Errorf("container holds a portal section but no hierarchy section")
	}
	// An optional shared mesh section carries the terrain the SE members
	// tile; decodeMember attaches it to every mesh-less SE member so
	// QueryPath works without storing one mesh copy per tile. Lazy loads keep
	// the raw section and decode it on the first member fault instead.
	var shared *terrain.Mesh
	if payload, ok := secs[secMesh]; ok && !lazy {
		m, err := decodeMesh(payload)
		if err != nil {
			return nil, nil, fmt.Errorf("shared mesh section: %w", err)
		}
		shared = m
	}
	sharedMesh := func() (*terrain.Mesh, error) { return shared, nil }
	var rs *residentSet
	if lazy {
		rs = &residentSet{budget: opt.MemBudget, rawMesh: secs[secMesh]}
	}
	var quarantined []Quarantined
	members := make([]ShardMember, 0, count)
	ords := make([]int, 0, count)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.name
		npois, expectPts := int64(-1), int64(-1)
		if hier != nil && hier.levels[i] == 0 {
			npois, expectPts = hier.npois[i], hier.expectPts[i]
		}
		var idx DistanceIndex
		var err error
		payload, ok := secs[secMemberBase+uint32(i)]
		switch {
		case !ok:
			err = fmt.Errorf("manifest declares %d members, member %d has no section", count, i)
		case lazy:
			idx = newLazyMember(rs, &lazyMember{name: e.name, kind: e.kind,
				payload: payload, keep: keep, npois: npois, expectPts: expectPts})
		default:
			idx, err = decodeMember(payload, keep, e.kind, npois, expectPts, sharedMesh)
		}
		if err != nil {
			// In tolerant mode a member-level failure quarantines the member;
			// in strict mode the first failure aborts the load.
			if !tolerant {
				return nil, nil, fmt.Errorf("member %q: %w", e.name, err)
			}
			quarantined = append(quarantined, Quarantined{Name: e.name, Kind: e.kind, BBox: e.bbox, Err: err})
			continue
		}
		ords = append(ords, i)
		members = append(members, ShardMember{Name: e.name, BBox: e.bbox, Index: idx})
	}
	if len(members) == 0 {
		return nil, nil, fmt.Errorf("every member of the multi container failed to decode (first: %v)", quarantined[0].Err)
	}
	sh, err := newMulti(members, hier, ords, names)
	if err != nil {
		return nil, nil, err
	}
	if rs != nil {
		sh.rs = rs
		sh.rawMesh = secs[secMesh]
	}
	return sh, quarantined, nil
}

// Quarantine returns the index without the named members, served as a
// tolerant load whose bodies for them failed to decode would serve it: the
// survivors keep the hierarchy, so global ids stay stable (an id of a
// quarantined member errors naming it) and straddling pairs still route
// through portals and the coarse level. Each quarantined member is reported
// with cause as its error. The receiver is left as it was; the new index
// shares its member indexes and, on a budgeted load, its resident set.
func (sh *ShardedIndex) Quarantine(names []string, cause error) (*ShardedIndex, []Quarantined, error) {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		if _, ok := sh.byName[n]; !ok {
			return nil, nil, fmt.Errorf("core: no member named %q to quarantine (members: %v)", n, sh.MemberNames())
		}
		drop[n] = true
	}
	var kept []ShardMember
	var ords []int
	var quarantined []Quarantined
	for k, m := range sh.members {
		if drop[m.Name] {
			quarantined = append(quarantined, Quarantined{Name: m.Name, Kind: m.Index.Stats().Kind, BBox: m.BBox, Err: cause})
			continue
		}
		kept = append(kept, m)
		if sh.hier != nil {
			ords = append(ords, sh.ord[k])
		}
	}
	if len(kept) == 0 {
		return nil, nil, fmt.Errorf("core: quarantining %v would leave no members", names)
	}
	out, err := newMulti(kept, sh.hier, ords, sh.ordName)
	if err != nil {
		return nil, nil, err
	}
	out.rs, out.rawMesh = sh.rs, sh.rawMesh
	return out, quarantined, nil
}

// --- tiled construction -----------------------------------------------------

// shardGrid factors K into kx columns × ky rows, as square as K's divisors
// allow (prime K degenerates to a 1-row strip).
func shardGrid(k int) (kx, ky int) {
	ky = int(math.Sqrt(float64(k)))
	for ; ky > 1; ky-- {
		if k%ky == 0 {
			break
		}
	}
	if ky < 1 {
		ky = 1
	}
	return k / ky, ky
}

// tileIndex maps a coordinate to its tile column/row, clamping boundary
// points (x == max lands in the last tile).
func tileIndex(v, min, span float64, k int) int {
	if span <= 0 || k <= 1 {
		return 0
	}
	i := int((v - min) / span * float64(k))
	if i < 0 {
		i = 0
	}
	if i >= k {
		i = k - 1
	}
	return i
}

// BuildShardedSE tiles the terrain's planar bounding box into a shards-tile
// grid, partitions the POIs by tile, and builds one SE oracle per non-empty
// tile. It is the plain plan of BuildShardedLOD (no portals, no coarse
// level): the tiles build concurrently under one worker budget of
// opt.Workers. Tiles that received no POIs are dropped (an SE oracle cannot
// be empty); their region still routes, because Locate falls back to the
// planar-closest member bbox.
//
// Every member build is deterministic regardless of opt.Workers (the Build
// contract), tile membership is a pure function of POI coordinates, and
// members are emitted in row-major tile order — so the serialized container
// is byte-identical for any worker count.
//
// Member names are "tile-<col>-<row>"; each member's manifest bbox is its
// full tile rectangle (edge tiles extend to the terrain bounds).
func BuildShardedSE(eng geodesic.Engine, m *terrain.Mesh, pois []terrain.SurfacePoint, shards int, opt Options) (*ShardedIndex, error) {
	return BuildShardedLOD(eng, m, pois, shards, LODOptions{Options: opt})
}

// NearestAcross returns the globally nearest indexed endpoint over every
// member that answers nearest queries — the unnamed-/v1/nearest semantics
// of the serving layer: the answer must match what one un-sharded index
// over the same points would return, so every member is scanned (member
// bboxes are routing hints, not guaranteed point bounds, and a
// boundary-adjacent query's true nearest can sit in the neighboring tile).
// Two members at exactly equal planar distance tie toward the lower member
// name — a property of the members themselves, not of manifest order, so
// the winner is identical however the container was assembled or reloaded.
// It is NearestKAcross's single answer: members that cannot answer are
// skipped, an error is returned only when no member produced an answer, and
// on a hierarchical index coarse members are skipped (their sites are
// routing infrastructure, not indexed endpoints) and synthetic portal POIs
// are filtered out of fine members' answers.
func (sh *ShardedIndex) NearestAcross(x, y float64) (ShardMember, int32, terrain.SurfacePoint, float64, error) {
	ns, err := sh.NearestKAcross(x, y, 1)
	if err != nil {
		return ShardMember{}, -1, terrain.SurfacePoint{}, 0, err
	}
	n := ns[0]
	return sh.members[sh.byName[n.Member]], n.ID, n.At, n.Planar, nil
}
