package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"seoracle/internal/terrain"
)

// hierarchy.go — the LOD shard hierarchy of a multi container. A hierarchical
// multi extends the flat member grid of sharded.go with two optional
// sections:
//
//   - secHierarchy tags every manifest member with an LOD level, a parent
//     link, and its addressable (real) POI count. Level-0 members are the
//     fine tiles; their real POIs concatenated in manifest order form the
//     index's *global id space*, so id-addressed queries no longer need a
//     member name. Members at level > 0 are coarse tiles (site-based A2A
//     oracles spanning many fine tiles) that answer long-range cross-tile
//     queries; they expose no ids of their own (npois = 0).
//   - secPortals lists boundary portals: surface points on shared fine-tile
//     edges that were appended to BOTH adjacent tiles' POI lists at build
//     time (after the real POIs, so they stay out of the global id space). A
//     short-range query straddling two adjacent tiles is answered as
//     min over shared portals p of Q(s, p_A) + Q(p_B, t).
//
// Legacy containers carry neither section and keep their exact semantics: a
// single-level hierarchy whose cross-member queries fail with a structured
// CrossMemberError naming both members.
//
// Hierarchy section layout: count int64 (must equal the manifest count),
// then per member level uint16, parent int32, npois int64. Portal section
// layout: count int64, then per link a int32, b int32, ida int32, idb int32
// in canonical (a, b, ida)-ascending order with a < b; portal local ids are
// assigned by scanning the links in that order and appending to each touched
// member, which the decoder re-derives and enforces exactly.

const (
	// maxLODLevels bounds the level tag of one member; real builds use two
	// levels (fine SE grid + one coarse A2A member), the format allows more.
	maxLODLevels = 8
	// maxPortalLinks bounds the portal table (48 members × a few dozen
	// portals per shared edge sit far below it).
	maxPortalLinks = 1 << 20
)

// PortalLink is one boundary portal shared by two adjacent level-0 members:
// the same surface point indexed by member A (manifest ordinal A, local id
// IDA) and member B (ordinal B, local id IDB). A < B always holds.
type PortalLink struct {
	A, B     int32
	IDA, IDB int32
}

// ErrMemberFault marks a lazy member whose body failed to decode on first
// touch (the degraded-lazy analogue of a load-time quarantine). The serving
// layer maps it to 503, like a quarantined member.
var ErrMemberFault = errors.New("core: member fault")

// CrossMemberError reports a query whose endpoints land in different members
// of a multi index that has no portal or coarse-level route between them —
// the structured form of the old opaque member-addressing error, carrying
// both member names so the serving layer can answer 422 with actionable
// detail.
type CrossMemberError struct {
	// SMember and TMember name the members owning the source and target
	// endpoints.
	SMember, TMember string
	// Reason says why no cross-member route existed.
	Reason string
}

// Error formats the cross-member failure with both member names.
func (e *CrossMemberError) Error() string {
	return fmt.Sprintf("core: query endpoints land in different members %q and %q: %s", e.SMember, e.TMember, e.Reason)
}

// hierMeta is the decoded, validated hierarchy of one multi container plus
// the derived routing tables.
type hierMeta struct {
	levels  []uint16
	parents []int32
	npois   []int64
	portals []PortalLink

	expectPts []int64 // per ordinal: npois + portals appended (decoded member point count, level 0)
	fineOrd   []int32 // level-0 ordinals, ascending
	fineBase  []int64 // len(fineOrd)+1 prefix sums of fine npois (global id bases)
	total     int64   // global id count
	coarseOrd []int32 // level>0 ordinals, sorted by (level, ordinal)
	spanCut   float64 // planar spans above this prefer the coarse level over portals
}

// buildHierMeta validates the hierarchy arrays against the manifest and
// derives the routing tables. It is the single validation path shared by the
// decoder and the streaming builder.
func buildHierMeta(levels []uint16, parents []int32, npois []int64, portals []PortalLink, bboxes []BBox2D) (*hierMeta, error) {
	count := len(levels)
	if count == 0 || len(parents) != count || len(npois) != count || len(bboxes) != count {
		return nil, fmt.Errorf("hierarchy covers %d members, manifest has %d", len(levels), len(bboxes))
	}
	h := &hierMeta{levels: levels, parents: parents, npois: npois, portals: portals}
	maxDiag := 0.0
	for i := 0; i < count; i++ {
		if levels[i] > maxLODLevels {
			return nil, fmt.Errorf("member %d declares LOD level %d (max %d)", i, levels[i], maxLODLevels)
		}
		p := parents[i]
		if p != -1 {
			if p < 0 || int(p) >= count {
				return nil, fmt.Errorf("member %d links to parent %d (of %d members)", i, p, count)
			}
			if int(p) == i || levels[p] <= levels[i] {
				return nil, fmt.Errorf("member %d (level %d) links to parent %d (level %d); parents must sit at a strictly higher level", i, levels[i], p, levels[p])
			}
		}
		if levels[i] == 0 {
			if npois[i] < 1 || npois[i] > 1<<31 {
				return nil, fmt.Errorf("level-0 member %d declares %d POIs (want 1..2^31)", i, npois[i])
			}
			h.fineOrd = append(h.fineOrd, int32(i))
			b := bboxes[i]
			if d := math.Hypot(b.MaxX-b.MinX, b.MaxY-b.MinY); d > maxDiag {
				maxDiag = d
			}
		} else {
			if npois[i] != 0 {
				return nil, fmt.Errorf("coarse member %d (level %d) declares %d POIs; coarse members expose no ids", i, levels[i], npois[i])
			}
			h.coarseOrd = append(h.coarseOrd, int32(i))
		}
	}
	if len(h.fineOrd) == 0 {
		return nil, fmt.Errorf("hierarchy holds no level-0 members")
	}
	sort.Slice(h.coarseOrd, func(i, j int) bool {
		a, b := h.coarseOrd[i], h.coarseOrd[j]
		if levels[a] != levels[b] {
			return levels[a] < levels[b]
		}
		return a < b
	})
	h.fineBase = make([]int64, len(h.fineOrd)+1)
	for j, ord := range h.fineOrd {
		h.fineBase[j+1] = h.fineBase[j] + npois[ord]
	}
	h.total = h.fineBase[len(h.fineOrd)]
	if h.total > 1<<31 {
		return nil, fmt.Errorf("global id space holds %d POIs (max 2^31)", h.total)
	}
	h.spanCut = 2 * maxDiag

	// Portal links: canonical order, level-0 endpoints, and the exact local
	// id assignment the builder uses (scan links in order, append to each
	// touched member after its real POIs).
	h.expectPts = append([]int64(nil), npois...)
	var prevA, prevB int32 = -1, -1
	for li, ln := range portals {
		if ln.A < 0 || int(ln.A) >= count || ln.B < 0 || int(ln.B) >= count {
			return nil, fmt.Errorf("portal %d links members %d and %d (of %d)", li, ln.A, ln.B, count)
		}
		if ln.A >= ln.B {
			return nil, fmt.Errorf("portal %d links members %d >= %d (canonical order needs a < b)", li, ln.A, ln.B)
		}
		if levels[ln.A] != 0 || levels[ln.B] != 0 {
			return nil, fmt.Errorf("portal %d touches a coarse member (levels %d and %d)", li, levels[ln.A], levels[ln.B])
		}
		if ln.A < prevA || (ln.A == prevA && ln.B < prevB) {
			return nil, fmt.Errorf("portal %d out of canonical (a, b) order", li)
		}
		prevA, prevB = ln.A, ln.B
		if int64(ln.IDA) != h.expectPts[ln.A] {
			return nil, fmt.Errorf("portal %d: member %d expects portal id %d, link says %d", li, ln.A, h.expectPts[ln.A], ln.IDA)
		}
		if int64(ln.IDB) != h.expectPts[ln.B] {
			return nil, fmt.Errorf("portal %d: member %d expects portal id %d, link says %d", li, ln.B, h.expectPts[ln.B], ln.IDB)
		}
		h.expectPts[ln.A]++
		h.expectPts[ln.B]++
	}
	for _, ord := range h.coarseOrd {
		// Coarse members index sites, not POIs; their decoded point count is
		// unconstrained by the hierarchy.
		h.expectPts[ord] = -1
	}
	return h, nil
}

// portalCount returns how many portals were appended to ordinal ord's POI
// list.
func (h *hierMeta) portalCount(ord int32) int64 {
	if h.levels[ord] != 0 {
		return 0
	}
	return h.expectPts[ord] - h.npois[ord]
}

// linksBetween returns the portal links shared by two level-0 ordinals (in
// either order). The links are stored sorted by (A, B, IDA), so the shared
// run is one binary search.
func (h *hierMeta) linksBetween(x, y int32) []PortalLink {
	a, b := x, y
	if a > b {
		a, b = b, a
	}
	lo := sort.Search(len(h.portals), func(i int) bool {
		p := h.portals[i]
		return p.A > a || (p.A == a && p.B >= b)
	})
	hi := lo
	for hi < len(h.portals) && h.portals[hi].A == a && h.portals[hi].B == b {
		hi++
	}
	return h.portals[lo:hi]
}

// --- section codecs ----------------------------------------------------------

func hierarchySectionLen(count int) uint64 { return 8 + uint64(count)*14 }

// hierarchySection streams the per-member LOD table.
func hierarchySection(levels []uint16, parents []int32, npois []int64) section {
	return section{id: secHierarchy, length: hierarchySectionLen(len(levels)), write: func(w io.Writer) error {
		if err := binary.Write(w, binary.LittleEndian, int64(len(levels))); err != nil {
			return err
		}
		var rec [14]byte
		for i := range levels {
			binary.LittleEndian.PutUint16(rec[0:], levels[i])
			binary.LittleEndian.PutUint32(rec[2:], uint32(parents[i]))
			binary.LittleEndian.PutUint64(rec[6:], uint64(npois[i]))
			if _, err := w.Write(rec[:]); err != nil {
				return err
			}
		}
		return nil
	}}
}

func portalsSectionLen(n int) uint64 { return 8 + uint64(n)*16 }

// portalsSection streams the boundary-portal link table.
func portalsSection(links []PortalLink) section {
	return section{id: secPortals, length: portalsSectionLen(len(links)), write: func(w io.Writer) error {
		if err := binary.Write(w, binary.LittleEndian, int64(len(links))); err != nil {
			return err
		}
		var rec [16]byte
		for _, ln := range links {
			binary.LittleEndian.PutUint32(rec[0:], uint32(ln.A))
			binary.LittleEndian.PutUint32(rec[4:], uint32(ln.B))
			binary.LittleEndian.PutUint32(rec[8:], uint32(ln.IDA))
			binary.LittleEndian.PutUint32(rec[12:], uint32(ln.IDB))
			if _, err := w.Write(rec[:]); err != nil {
				return err
			}
		}
		return nil
	}}
}

// decodeHierarchySec parses the raw level/parent/npois arrays; semantic
// validation happens in buildHierMeta, against the manifest.
func decodeHierarchySec(payload []byte, count int) (levels []uint16, parents []int32, npois []int64, err error) {
	r := bytes.NewReader(payload)
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, nil, nil, fmt.Errorf("hierarchy section header: %w", err)
	}
	if n != int64(count) {
		return nil, nil, nil, fmt.Errorf("hierarchy section covers %d members, manifest declares %d", n, count)
	}
	levels = make([]uint16, count)
	parents = make([]int32, count)
	npois = make([]int64, count)
	var rec [14]byte
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, nil, nil, fmt.Errorf("hierarchy entry %d: %w", i, err)
		}
		levels[i] = binary.LittleEndian.Uint16(rec[0:])
		parents[i] = int32(binary.LittleEndian.Uint32(rec[2:]))
		npois[i] = int64(binary.LittleEndian.Uint64(rec[6:]))
	}
	if err := expectDrained(r, "hierarchy section"); err != nil {
		return nil, nil, nil, err
	}
	return levels, parents, npois, nil
}

// decodePortalsSec parses the raw portal link list; ordering and id
// assignment are validated in buildHierMeta.
func decodePortalsSec(payload []byte) ([]PortalLink, error) {
	r := bytes.NewReader(payload)
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("portal section header: %w", err)
	}
	if n < 0 || n > maxPortalLinks {
		return nil, fmt.Errorf("portal section declares %d links (max %d)", n, maxPortalLinks)
	}
	links := make([]PortalLink, n)
	var rec [16]byte
	for i := range links {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, fmt.Errorf("portal link %d: %w", i, err)
		}
		links[i] = PortalLink{
			A:   int32(binary.LittleEndian.Uint32(rec[0:])),
			B:   int32(binary.LittleEndian.Uint32(rec[4:])),
			IDA: int32(binary.LittleEndian.Uint32(rec[8:])),
			IDB: int32(binary.LittleEndian.Uint32(rec[12:])),
		}
	}
	if err := expectDrained(r, "portal section"); err != nil {
		return nil, err
	}
	return links, nil
}

// --- global id space ----------------------------------------------------------

// SupportsGlobal reports whether id-addressed queries on the multi index may
// use the global id space: the container carried a hierarchy section, so
// every level-0 member's POI count is known without decoding it.
func (sh *ShardedIndex) SupportsGlobal() bool {
	return sh.hier != nil && sh.hier.total > 0 && len(sh.members) > 1
}

// NumGlobalIDs returns the size of the global id space (the level-0 members'
// real POIs, concatenated in manifest order), or 0 for a legacy multi.
func (sh *ShardedIndex) NumGlobalIDs() int {
	if sh.hier == nil {
		return 0
	}
	return int(sh.hier.total)
}

// GlobalID maps a member name and member-local POI id to the global id, or
// false when the index has no hierarchy, the member is unknown or coarse, or
// the local id is a portal or out of range.
func (sh *ShardedIndex) GlobalID(member string, local int32) (int32, bool) {
	if sh.hier == nil {
		return 0, false
	}
	k, ok := sh.byName[member]
	if !ok {
		return 0, false
	}
	ord := int32(sh.ord[k])
	for j, fo := range sh.hier.fineOrd {
		if fo == ord {
			if local < 0 || int64(local) >= sh.hier.npois[ord] {
				return 0, false
			}
			return int32(sh.hier.fineBase[j]) + local, true
		}
	}
	return 0, false
}

// MemberOf maps a global id to its owning member name and member-local id,
// or false when the index has no hierarchy or the id is out of range.
func (sh *ShardedIndex) MemberOf(global int32) (string, int32, bool) {
	if sh.hier == nil || global < 0 || int64(global) >= sh.hier.total {
		return "", 0, false
	}
	j := sort.Search(len(sh.hier.fineOrd), func(i int) bool { return sh.hier.fineBase[i+1] > int64(global) })
	return sh.ordName[sh.hier.fineOrd[j]], global - int32(sh.hier.fineBase[j]), true
}

// resolveGlobal maps a global id to (member slice index, local id). A global
// id owned by a quarantined member resolves to an error naming it — the id
// space is a function of the manifest, not of load health, so ids stay
// stable across degraded loads.
func (sh *ShardedIndex) resolveGlobal(id int32) (int, int32, error) {
	h := sh.hier
	if id < 0 || int64(id) >= h.total {
		return 0, 0, fmt.Errorf("core: POI id %d out of range [0,%d)", id, h.total)
	}
	j := sort.Search(len(h.fineOrd), func(i int) bool { return h.fineBase[i+1] > int64(id) })
	ord := h.fineOrd[j]
	k := sh.memAt[ord]
	if k < 0 {
		return 0, 0, fmt.Errorf("core: POI id %d belongs to quarantined member %q", id, sh.ordName[ord])
	}
	return k, id - int32(h.fineBase[j]), nil
}

// surfacePointOf returns a member's local POI surface point, faulting lazy
// members and inflating flat point tables as needed.
func surfacePointOf(idx DistanceIndex, local int32) (terrain.SurfacePoint, error) {
	switch v := idx.(type) {
	case *Oracle:
		return surfacePointOf(v.flat, local)
	case *FlatOracle:
		pts, err := v.Points()
		if err != nil {
			return terrain.SurfacePoint{}, err
		}
		if local < 0 || int(local) >= len(pts) {
			return terrain.SurfacePoint{}, fmt.Errorf("core: POI id %d outside the member point table (%d points)", local, len(pts))
		}
		return pts[local], nil
	case *lazyMember:
		inner, err := v.get()
		if err != nil {
			return terrain.SurfacePoint{}, err
		}
		return surfacePointOf(inner, local)
	default:
		return terrain.SurfacePoint{}, fmt.Errorf("core: member kind %s carries no point table", idx.Stats().Kind)
	}
}

// globalPoint is resolveGlobal + surfacePointOf, the isochrone workload's
// point callback (errors cannot occur for ids the query path already
// answered; they return a zero point).
func (sh *ShardedIndex) globalPoint(id int32) terrain.SurfacePoint {
	k, local, err := sh.resolveGlobal(id)
	if err != nil {
		return terrain.SurfacePoint{}
	}
	p, _ := surfacePointOf(sh.members[k].Index, local)
	return p
}

// --- routing ------------------------------------------------------------------
//
// Every pair query on a multi index — ids or planar coordinates, distance or
// path — is answered in two steps: route names how the pair is answered, and
// answer runs that route. There are three routes:
//
//   - routeMember: one member answers alone. An id pair whose endpoints share
//     a member (or any id pair on a single-member multi), and a coordinate
//     pair whose endpoints share a member that answers points.
//   - routePortal: an id pair straddling two fine members that share
//     boundary portals and whose span is short enough for the portal detour:
//     min over shared portals p of Q(s, p_A) + Q(p_B, t).
//   - routeCoarse: the coarse level answers — long-range or portal-less id
//     pairs, and every coordinate pair no single member can answer. An id
//     pair whose coarse answer fails falls back to its shared portals.

// routeKind names how a multi index answers one pair.
type routeKind uint8

const (
	routeMember routeKind = iota
	routePortal
	routeCoarse
)

// pointIndex is the point capability of a member: a2a members answer point
// distances and point paths alike.
type pointIndex interface {
	PointIndex
	PointPathIndex
}

// route is one pair's routing decision.
type route struct {
	kind   routeKind
	ka, kb int   // member slice indexes of the id endpoints
	la, lb int32 // their member-local ids
	// pa, pb are the endpoints' surface points, read only for a cross-member
	// id pair (its span picks the route, and the coarse level answers them).
	pa, pb terrain.SurfacePoint
	links  []PortalLink // portals the two members share (cross-member id pairs)
	// pt answers the pair in point form: the coarse member on routeCoarse,
	// the owning member on a coordinate routeMember, nil otherwise.
	pt pointIndex
}

// route decides how the multi index answers the id pair (s, t), or the
// planar pair xy = (sx, sy, tx, ty) when xy is non-nil, into the zeroed r.
// It fills r in place because returning the value copied it twice, a
// quarter of a same-tile query's CPU. It fails with the structured errors
// the serving layer maps to statuses: a CrossMemberError
// when no route joins the endpoints, a quarantined or out-of-range id, or
// the legacy ambiguity (id pairs on a multi without a global id space).
// Routing never faults a lazy member just to learn that it cannot answer
// points, and a same-member id pair never reads a point table.
func (sh *ShardedIndex) route(r *route, s, t int32, xy *[4]float64) error {
	if xy != nil {
		ms, _ := sh.Locate(xy[0], xy[1])
		mt, _ := sh.Locate(xy[2], xy[3])
		same := ms.Name == mt.Name
		if same {
			if r.pt = pointMember(ms.Index); r.pt != nil {
				return nil
			}
		}
		if r.pt = sh.coarseFor(math.Hypot(xy[2]-xy[0], xy[3]-xy[1])); r.pt != nil {
			r.kind = routeCoarse
			return nil
		}
		if same {
			return fmt.Errorf("core: member %q (kind %s) answers no point queries", ms.Name, ms.Index.Stats().Kind)
		}
		return &CrossMemberError{SMember: ms.Name, TMember: mt.Name,
			Reason: "coordinate endpoints straddle members and the container has no coarse level"}
	}
	if len(sh.members) == 1 {
		r.la, r.lb = s, t
		return nil
	}
	if sh.hier == nil {
		return fmt.Errorf("core: multi index holds %d members; address one by name (ids are member-local)", len(sh.members))
	}
	var err error
	if r.ka, r.la, err = sh.resolveGlobal(s); err != nil {
		return err
	}
	if r.kb, r.lb, err = sh.resolveGlobal(t); err != nil {
		return err
	}
	if r.ka == r.kb {
		return nil
	}
	if r.pa, err = surfacePointOf(sh.members[r.ka].Index, r.la); err != nil {
		return err
	}
	if r.pb, err = surfacePointOf(sh.members[r.kb].Index, r.lb); err != nil {
		return err
	}
	h := sh.hier
	r.kind = routePortal
	r.links = h.linksBetween(int32(sh.ord[r.ka]), int32(sh.ord[r.kb]))
	span := math.Hypot(r.pa.P.X-r.pb.P.X, r.pa.P.Y-r.pb.P.Y)
	if len(r.links) == 0 || (span > h.spanCut && len(h.coarseOrd) > 0) {
		if r.pt = sh.coarseFor(span); r.pt != nil {
			r.kind = routeCoarse
		} else if len(r.links) == 0 {
			return &CrossMemberError{
				SMember: sh.members[r.ka].Name, TMember: sh.members[r.kb].Name,
				Reason: "members share no boundary portals and the container has no coarse level",
			}
		}
	}
	return nil
}

// coarseFor picks the coarse member answering a query of the given planar
// span, or nil when none can: the level the span selects (with L coarse
// levels, spans beyond 2^l × spanCut select level l+1), then the finer
// levels, then the coarser ones, skipping quarantined members and members
// that answer no point queries.
func (sh *ShardedIndex) coarseFor(span float64) pointIndex {
	h := sh.hier
	if h == nil {
		return nil
	}
	want := 0
	for cut := h.spanCut; want < len(h.coarseOrd)-1 && span > 2*cut; cut *= 2 {
		want++
	}
	for off := 0; off < len(h.coarseOrd); off++ {
		i := want - off // the selected level, then the finer ones
		if i < 0 {
			i = off // then the coarser ones
		}
		if k := sh.memAt[h.coarseOrd[i]]; k >= 0 {
			if pi := pointMember(sh.members[k].Index); pi != nil {
				return pi
			}
		}
	}
	return nil
}

// answer routes one pair (see route for s, t and xy) and answers it: the
// distance, plus the surface path when path is set. It is the one place the
// portal and coarse counters move, each once per answer its route gave.
func (sh *ShardedIndex) answer(s, t int32, xy *[4]float64, path bool) ([]terrain.SurfacePoint, float64, error) {
	var r route
	if err := sh.route(&r, s, t, xy); err != nil {
		return nil, 0, err
	}
	if r.pt == nil && r.kind == routeMember {
		if path {
			return sh.memberPath(r.ka, r.la, r.lb)
		}
		d, err := sh.members[r.ka].Index.Query(r.la, r.lb)
		return nil, d, err
	}
	if r.pt != nil {
		var pts []terrain.SurfacePoint
		var d float64
		var err error
		switch {
		case xy != nil && path:
			pts, d, err = r.pt.QueryPathXY(xy[0], xy[1], xy[2], xy[3])
		case xy != nil:
			d, err = r.pt.QueryXY(xy[0], xy[1], xy[2], xy[3])
		case path:
			pts, d, err = r.pt.QueryPathPoints(r.pa, r.pb)
		default:
			d, err = r.pt.QueryPoints(r.pa, r.pb)
		}
		if err == nil && r.kind == routeCoarse {
			sh.coarseQueries.Add(1)
		}
		if err == nil || len(r.links) == 0 {
			return pts, d, err
		}
		// A failed coarse answer falls back to the shared portals.
	}
	d, ida, idb, err := sh.bestPortal(&r)
	if err != nil {
		return nil, 0, err
	}
	if path && ida < 0 {
		return nil, 0, fmt.Errorf("core: no usable portal between members %q and %q", sh.members[r.ka].Name, sh.members[r.kb].Name)
	}
	sh.portalQueries.Add(1)
	if !path {
		return nil, d, nil
	}
	pathA, _, err := sh.memberPath(r.ka, r.la, ida)
	if err != nil {
		return nil, 0, fmt.Errorf("core: portal path in member %q: %w", sh.members[r.ka].Name, err)
	}
	pathB, _, err := sh.memberPath(r.kb, idb, r.lb)
	if err != nil {
		return nil, 0, fmt.Errorf("core: portal path in member %q: %w", sh.members[r.kb].Name, err)
	}
	// The two member paths meet at the (bit-identical) portal point.
	joined := make([]terrain.SurfacePoint, 0, len(pathA)+len(pathB))
	for _, p := range pathA {
		joined = appendPathPoint(joined, p)
	}
	for _, p := range pathB {
		joined = appendPathPoint(joined, p)
	}
	return joined, segLength(joined), nil
}

// bestPortal stitches a straddling id pair through the portals its two
// members share: the least Q(s, p_A) + Q(p_B, t), and the best portal's
// local id in each member (-1 when no portal gives a finite distance; ties
// go to the first link in canonical order, deterministic across loads).
func (sh *ShardedIndex) bestPortal(r *route) (best float64, ida, idb int32, err error) {
	ordA := int32(sh.ord[r.ka])
	best, ida, idb = math.Inf(1), -1, -1
	for _, ln := range r.links {
		a, b := ln.IDA, ln.IDB
		if ln.A != ordA {
			a, b = b, a
		}
		da, err := sh.members[r.ka].Index.Query(r.la, a)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("core: portal leg in member %q: %w", sh.members[r.ka].Name, err)
		}
		db, err := sh.members[r.kb].Index.Query(b, r.lb)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("core: portal leg in member %q: %w", sh.members[r.kb].Name, err)
		}
		if d := da + db; d < best {
			best, ida, idb = d, a, b
		}
	}
	return best, ida, idb, nil
}

// memberPath is one member's id path.
func (sh *ShardedIndex) memberPath(k int, s, t int32) ([]terrain.SurfacePoint, float64, error) {
	pi, ok := sh.members[k].Index.(PathIndex)
	if !ok {
		return nil, 0, fmt.Errorf("core: member %q (kind %s) cannot report paths", sh.members[k].Name, sh.members[k].Index.Stats().Kind)
	}
	return pi.QueryPath(s, t)
}

// --- observability ------------------------------------------------------------

// TileStats is the hierarchy / resident-set observability block of a multi
// index: how many members exist and are decoded, the memory budget and its
// use, fault/eviction churn, and the cross-tile routing split. The serving
// layer renders it as the /statsz "tiles" block.
type TileStats struct {
	Members       int   `json:"members"`
	Levels        int   `json:"levels"`
	Portals       int   `json:"portals"`
	Resident      int   `json:"resident"`
	ResidentBytes int64 `json:"resident_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
	Faults        int64 `json:"faults"`
	Evictions     int64 `json:"evictions"`
	PortalQueries int64 `json:"portal_queries"`
	CoarseQueries int64 `json:"coarse_queries"`
}

// TileStats reports the hierarchy and resident-set counters. ok is false for
// a plain eager single-level multi, which has nothing beyond Stats to report.
func (sh *ShardedIndex) TileStats() (TileStats, bool) {
	if sh.hier == nil && sh.rs == nil {
		return TileStats{}, false
	}
	ts := TileStats{
		Members:       len(sh.members),
		Levels:        1,
		PortalQueries: sh.portalQueries.Load(),
		CoarseQueries: sh.coarseQueries.Load(),
	}
	if sh.hier != nil {
		ts.Portals = len(sh.hier.portals)
		seen := uint16(0)
		for _, ord := range sh.hier.coarseOrd {
			if lv := sh.hier.levels[ord]; lv != seen {
				seen = lv
				ts.Levels++
			}
		}
	}
	if sh.rs != nil {
		res, bytes := sh.rs.residency()
		ts.Resident = res
		ts.ResidentBytes = bytes
		ts.BudgetBytes = sh.rs.budget
		ts.Faults = sh.rs.faults.Load()
		ts.Evictions = sh.rs.evictions.Load()
		for _, m := range sh.members {
			if _, lazy := m.Index.(*lazyMember); !lazy {
				ts.Resident++ // built or eagerly decoded members are pinned
			}
		}
	} else {
		ts.Resident = len(sh.members)
	}
	return ts, true
}

// memberNearest answers one member's Nearest. On a hierarchical index the
// member's synthetic portal POIs are filtered out (they are routing
// infrastructure, not indexed endpoints): enough neighbors are requested to
// step over every portal.
func (sh *ShardedIndex) memberNearest(k int, x, y float64) (int32, terrain.SurfacePoint, float64, error) {
	m := sh.members[k]
	if sh.hier != nil {
		ord := int32(sh.ord[k])
		if pc := sh.hier.portalCount(ord); pc > 0 {
			ns, err := sh.memberNearestK(k, x, y, 1)
			if err != nil {
				return -1, terrain.SurfacePoint{}, 0, err
			}
			return ns[0].ID, ns[0].At, ns[0].Planar, nil
		}
	}
	nf, ok := m.Index.(NearestFinder)
	if !ok {
		return -1, terrain.SurfacePoint{}, 0, fmt.Errorf("core: member %q answers no nearest queries", m.Name)
	}
	return nf.Nearest(x, y)
}

// memberNearestK answers one member's NearestK with portal POIs filtered
// out, returning at least one real POI or an error.
func (sh *ShardedIndex) memberNearestK(k int, x, y float64, want int) ([]Neighbor, error) {
	m := sh.members[k]
	nf, ok := m.Index.(NearestKFinder)
	if !ok {
		return nil, fmt.Errorf("core: member %q answers no nearest-k queries", m.Name)
	}
	ask := want
	var npois int64 = -1
	if sh.hier != nil {
		ord := int32(sh.ord[k])
		npois = sh.hier.npois[ord]
		ask += int(sh.hier.portalCount(ord))
	}
	ns, err := nf.NearestK(x, y, ask)
	if err != nil {
		return nil, err
	}
	if npois >= 0 {
		kept := ns[:0]
		for _, n := range ns {
			if int64(n.ID) < npois {
				kept = append(kept, n)
			}
		}
		ns = kept
	}
	if len(ns) > want {
		ns = ns[:want]
	}
	if len(ns) == 0 {
		return nil, fmt.Errorf("core: member %q holds only portal POIs near (%g, %g)", m.Name, x, y)
	}
	return ns, nil
}

// --- coordinate queries ---------------------------------------------------
//
// A multi index answers arbitrary-point (PointIndex / PointPathIndex)
// queries through route: a pair whose endpoints share a member that answers
// points goes to that member, and every other pair — a straddling pair, or a
// member kind without arbitrary-point support — goes to the coarse level
// when the container has one. Without a coarse level a straddling pair fails
// with CrossMemberError, the structured form the serving layer maps to 422,
// and a same-member pair fails naming the member's kind.

// pointMember returns a member's point capability, nil when it has none. A
// lazy member implements it for every kind, so it is judged by its manifest
// kind instead — only a2a bodies answer point queries — and routing never
// faults a member in just to learn that it cannot answer.
func pointMember(idx DistanceIndex) pointIndex {
	if lm, ok := idx.(*lazyMember); ok && lm.kind != KindA2A {
		return nil
	}
	pi, _ := idx.(pointIndex)
	return pi
}

// QueryPoints answers the ε-approximate distance between two arbitrary
// surface points through the owning member or the coarse level. Part of
// PointIndex.
func (sh *ShardedIndex) QueryPoints(s, t terrain.SurfacePoint) (float64, error) {
	return sh.QueryXY(s.P.X, s.P.Y, t.P.X, t.P.Y)
}

// Project lifts planar coordinates onto the surface through the owning
// member, falling back to the coarse level. Part of PointIndex.
func (sh *ShardedIndex) Project(x, y float64) (terrain.SurfacePoint, bool) {
	m, _ := sh.Locate(x, y)
	if pi := pointMember(m.Index); pi != nil {
		if p, ok := pi.Project(x, y); ok {
			return p, true
		}
	}
	if pi := sh.coarseFor(0); pi != nil {
		return pi.Project(x, y)
	}
	return terrain.SurfacePoint{}, false
}

// QueryXY answers the planar-coordinate query form. Part of PointIndex.
func (sh *ShardedIndex) QueryXY(sx, sy, tx, ty float64) (float64, error) {
	_, d, err := sh.answer(0, 0, &[4]float64{sx, sy, tx, ty}, false)
	return d, err
}

// QueryPathPoints reports the surface path between two arbitrary surface
// points. Part of PointPathIndex.
func (sh *ShardedIndex) QueryPathPoints(s, t terrain.SurfacePoint) ([]terrain.SurfacePoint, float64, error) {
	return sh.QueryPathXY(s.P.X, s.P.Y, t.P.X, t.P.Y)
}

// QueryPathXY reports the surface path between planar coordinates through
// the owning member or the coarse level. Part of PointPathIndex.
func (sh *ShardedIndex) QueryPathXY(sx, sy, tx, ty float64) ([]terrain.SurfacePoint, float64, error) {
	return sh.answer(0, 0, &[4]float64{sx, sy, tx, ty}, true)
}
