package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"seoracle/internal/terrain"
)

// lazy.go — the lazy member table of a budgeted multi load. When LoadBytesOpts
// runs with a memory budget (LoadOptions.MemBudget > 0), member bodies are
// not decoded at load time: each member becomes a lazyMember holding only
// its byte range of the container image, and the body decodes on first
// touch ("faults in"). Decoded members are tracked by a residentSet — a
// strict-LRU clock over decoded heap bytes — which evicts the
// least-recently-used member when the budget is exceeded. Multi containers
// write their SE tiles in the flat layout, so a tile fault is a CRC check of
// the member's bytes plus a slab validation; a resident tile is charged its
// struct plus its point slab as it will be once inflated (coordinate, path
// and nearest queries inflate it; distance queries never do), a fraction of
// a decoded se tile. A coarse A2A member faults the same way, slicing its
// flat inner body, and decodes only its mesh, face-site lists and site
// table. What the resident set still decodes in full is the se tiles and
// se-body coarse members of containers written before members were flat.
// An unfaulted flat member reports its shape (ε, POIs, pairs, height) from
// its flat header, read at load with the header CRC checked.
//
// Concurrency protocol (the race-soak test hammers this):
//
//   - lazyMember.cur is an atomic pointer to the decoded entry. Readers
//     Load it once and use that snapshot for the whole call; eviction only
//     swaps the pointer to nil, so an in-flight reader keeps its decoded
//     index alive through the reference and the GC reclaims it when the
//     last reader returns. There are no torn reads by construction.
//   - Faulting takes lm.mu (per member), re-checks cur, decodes outside any
//     global lock, then admits under rs.mu. Lock order is strictly
//     lm.mu → rs.mu; rs.mu never acquires any member's mu (eviction only
//     touches other members' atomic cur pointers), so the pair cannot
//     deadlock.
//   - A fault failure is sticky: corrupt bytes stay corrupt, so the error
//     is cached and every later touch returns it wrapped in ErrMemberFault
//     (the serving layer's 503), without re-paying the decode.

// residentEntry is one decoded member body plus its budget charge.
type residentEntry struct {
	idx   DistanceIndex
	bytes int64
}

// residentSet tracks which lazy members are decoded and enforces the memory
// budget by LRU eviction. One residentSet serves one ShardedIndex.
type residentSet struct {
	budget int64 // decoded-heap budget in bytes; always > 0

	mu      sync.Mutex // guards members' cur transitions and bytes
	members []*lazyMember
	bytes   int64 // decoded heap bytes currently admitted

	faults    atomic.Int64
	evictions atomic.Int64
	clock     atomic.Int64 // LRU tick; monotone, incremented per touch

	// The shared terrain mesh decodes lazily too (it can dwarf a tile): the
	// raw section bytes are kept and decoded once, on the first member fault
	// that needs it. The mesh itself is never evicted — every SE member
	// aliases it, so it is de facto pinned while anything is resident.
	rawMesh    []byte
	sharedOnce sync.Once
	shared     *terrain.Mesh
	sharedErr  error
}

// sharedMesh returns the decoded shared terrain mesh, decoding it on first
// use. A multi with no shared mesh section returns (nil, nil).
func (rs *residentSet) sharedMesh() (*terrain.Mesh, error) {
	if rs.rawMesh == nil {
		return nil, nil
	}
	rs.sharedOnce.Do(func() {
		m, err := decodeMesh(rs.rawMesh)
		if err != nil {
			rs.sharedErr = fmt.Errorf("shared mesh section: %w", err)
			return
		}
		rs.shared = m
	})
	return rs.shared, rs.sharedErr
}

// admit publishes a freshly decoded entry for lm and evicts
// least-recently-used members until the budget holds again. The faulting
// member itself is never its own eviction victim (progress guarantee: a
// member larger than the whole budget still serves, alone).
func (rs *residentSet) admit(lm *lazyMember, e *residentEntry) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	lm.cur.Store(e)
	rs.bytes += e.bytes
	rs.faults.Add(1)
	for rs.bytes > rs.budget {
		var victim *lazyMember
		oldest := int64(0)
		for _, m := range rs.members {
			if m == lm || m.cur.Load() == nil {
				continue
			}
			if u := m.lastUse.Load(); victim == nil || u < oldest {
				victim, oldest = m, u
			}
		}
		if victim == nil {
			break
		}
		if old := victim.cur.Swap(nil); old != nil {
			rs.bytes -= old.bytes
			rs.evictions.Add(1)
		}
	}
}

// residency reports how many lazy members are decoded and their admitted
// heap bytes.
func (rs *residentSet) residency() (resident int, bytes int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, m := range rs.members {
		if m.cur.Load() != nil {
			resident++
		}
	}
	return resident, rs.bytes
}

// lazyMember is one undecoded member of a budgeted multi load: the byte
// range of its container section, decoded through decodeMember on first
// touch and evictable afterwards. It implements the capabilities every
// member kind has; an a2a member's shell (lazyPointMember) adds the point
// capability only a2a bodies have, so a type assertion judges a lazy member
// as it judges the eagerly decoded body, without faulting it in.
type lazyMember struct {
	rs      *residentSet
	name    string
	kind    Kind // manifest kind, enforced against the body at fault time
	payload []byte
	keep    any // retained by zero-copy (flat) bodies; see LoadBytesOpts

	// npois is the hierarchy's real-POI count (level-0 members), -1 when
	// the container has no hierarchy section. expectPts additionally counts
	// appended portals; -1 disables the fault-time point check.
	npois     int64
	expectPts int64
	// shape is what an unfaulted member reports: a flat member's header
	// fields (see flatShape), else just the manifest kind.
	shape IndexStats

	cur     atomic.Pointer[residentEntry]
	lastUse atomic.Int64

	mu       sync.Mutex // serializes faulting; ordered before rs.mu
	faultErr error      // sticky first fault failure, guarded by mu
}

// lazyPointMember is the shell of an a2a member: a lazyMember that also
// answers point distances and point paths.
type lazyPointMember struct{ *lazyMember }

// newLazyMember registers an undecoded member with rs and returns its shell:
// a lazyPointMember for an a2a manifest kind, else a lazyMember.
func newLazyMember(rs *residentSet, lm *lazyMember) DistanceIndex {
	lm.rs = rs
	lm.shape = flatShape(lm.payload, lm.kind)
	rs.members = append(rs.members, lm)
	if lm.kind == KindA2A {
		return lazyPointMember{lm}
	}
	return lm
}

// lazyOf returns the lazy shell behind a member of a budgeted load, nil for
// a decoded member.
func lazyOf(idx DistanceIndex) *lazyMember {
	switch v := idx.(type) {
	case *lazyMember:
		return v
	case lazyPointMember:
		return v.lazyMember
	}
	return nil
}

// touch stamps the member's LRU recency.
func (lm *lazyMember) touch() { lm.lastUse.Store(lm.rs.clock.Add(1)) }

// get returns the decoded member body, faulting it in on first touch.
func (lm *lazyMember) get() (DistanceIndex, error) {
	if e := lm.cur.Load(); e != nil {
		lm.touch()
		return e.idx, nil
	}
	return lm.fault()
}

// fault decodes the member body, validates it against the manifest and the
// hierarchy, and admits it to the resident set.
func (lm *lazyMember) fault() (DistanceIndex, error) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if e := lm.cur.Load(); e != nil { // lost the race to another faulter
		lm.touch()
		return e.idx, nil
	}
	if lm.faultErr != nil {
		return nil, lm.faultErr
	}
	idx, err := decodeMember(lm.payload, lm.keep, lm.kind, lm.npois, lm.expectPts, lm.rs.sharedMesh)
	if err != nil {
		lm.faultErr = fmt.Errorf("%w: member %q: %v", ErrMemberFault, lm.name, err)
		return nil, lm.faultErr
	}
	lm.touch()
	lm.rs.admit(lm, &residentEntry{idx: idx, bytes: budgetCharge(idx)})
	return idx, nil
}

// budgetCharge is the heap a freshly decoded member is charged against the
// budget. A flat member is charged its fully inflated size up front, since
// its point and mesh slabs inflate on later queries, outside any fault;
// every other kind holds its heap already (a flat-body a2a member inflates
// its site table at decode).
func budgetCharge(idx DistanceIndex) int64 {
	if f, ok := idx.(*FlatOracle); ok {
		return f.inflatedBytes()
	}
	return idx.MemoryBytes()
}

// --- DistanceIndex ------------------------------------------------------------

// Query answers through the decoded body, faulting it in as needed.
func (lm *lazyMember) Query(s, t int32) (float64, error) {
	idx, err := lm.get()
	if err != nil {
		return 0, err
	}
	return idx.Query(s, t)
}

// QueryBatch answers through the decoded body (one fault for the whole
// batch).
func (lm *lazyMember) QueryBatch(pairs [][2]int32, dst []float64) ([]float64, error) {
	idx, err := lm.get()
	if err != nil {
		return nil, err
	}
	return idx.QueryBatch(pairs, dst)
}

// MemoryBytes reports the decoded body's heap bytes while resident, else
// just the lazy shell.
func (lm *lazyMember) MemoryBytes() int64 {
	if e := lm.cur.Load(); e != nil {
		return e.idx.MemoryBytes() + 128
	}
	return 128
}

// MappedBytes reports the member's byte range of the retained container
// image — mapped whether or not the body is decoded. Part of MappedIndex.
func (lm *lazyMember) MappedBytes() int64 { return int64(len(lm.payload)) }

// Stats reports the decoded body's stats while resident; evicted members
// report the shape read at load (a flat member's header: ε, POIs, pairs,
// height; else the hierarchy's POI count) plus the kind and mapped bytes,
// so aggregate stats stay stable across eviction.
func (lm *lazyMember) Stats() IndexStats {
	if e := lm.cur.Load(); e != nil {
		return e.idx.Stats()
	}
	st := lm.shape
	st.MappedBytes = int64(len(lm.payload))
	if st.Points == 0 && lm.npois > 0 {
		st.Points = int(lm.npois)
	}
	return st
}

// flatShape reads the stats an unfaulted member reports from its container
// bytes without faulting it in: for a flat member, the flat header's ε, POI
// count, pair count and height, validated by the header CRC. Any other kind,
// and a member whose envelope or header fails to validate, reports only its
// manifest kind — the damage surfaces at the fault, as before.
func flatShape(payload []byte, kind Kind) IndexStats {
	st := IndexStats{Kind: kind}
	if kind != KindFlat {
		return st
	}
	k, secs, err := sliceContainer(payload)
	if err != nil || k != KindFlat {
		return st
	}
	f, _, err := decodeFlatHeader(secs[secFlat])
	if err != nil {
		return st
	}
	st.Epsilon, st.Points, st.Pairs, st.Height = f.eps, f.npoi, f.nPairs, f.height
	return st
}

// EncodeTo writes the member's container bytes verbatim — the body is
// already a tagged container, so re-encode is a copy whether or not it is
// decoded.
func (lm *lazyMember) EncodeTo(w io.Writer) error {
	_, err := w.Write(lm.payload)
	return err
}

// --- capability pass-throughs ---------------------------------------------
//
// Each asserts the capability on the decoded body at call time. Every member
// kind has the capabilities below, so the assertions hold for any body that
// passed decodeMember's kind check.

// QueryPath reports the surface path behind an id-addressed query. Part of
// PathIndex.
func (lm *lazyMember) QueryPath(s, t int32) ([]terrain.SurfacePoint, float64, error) {
	idx, err := lm.get()
	if err != nil {
		return nil, 0, err
	}
	pi, ok := idx.(PathIndex)
	if !ok {
		return nil, 0, fmt.Errorf("core: member %q (kind %s) reports no paths", lm.name, lm.kind)
	}
	return pi.QueryPath(s, t)
}

// Nearest reports the indexed endpoint nearest a planar position. Part of
// NearestFinder.
func (lm *lazyMember) Nearest(x, y float64) (int32, terrain.SurfacePoint, float64, error) {
	idx, err := lm.get()
	if err != nil {
		return -1, terrain.SurfacePoint{}, 0, err
	}
	nf, ok := idx.(NearestFinder)
	if !ok {
		return -1, terrain.SurfacePoint{}, 0, fmt.Errorf("core: member %q (kind %s) answers no nearest queries", lm.name, lm.kind)
	}
	return nf.Nearest(x, y)
}

// NearestK reports the k nearest indexed endpoints. Part of NearestKFinder.
func (lm *lazyMember) NearestK(x, y float64, k int) ([]Neighbor, error) {
	idx, err := lm.get()
	if err != nil {
		return nil, err
	}
	nf, ok := idx.(NearestKFinder)
	if !ok {
		return nil, fmt.Errorf("core: member %q (kind %s) answers no nearest queries", lm.name, lm.kind)
	}
	return nf.NearestK(x, y, k)
}

// QueryMatrix answers a many-to-many matrix through the decoded body. Part
// of MatrixIndex.
func (lm *lazyMember) QueryMatrix(sources, targets []int32, dst []float64) ([]float64, error) {
	idx, err := lm.get()
	if err != nil {
		return nil, err
	}
	if mi, ok := idx.(MatrixIndex); ok {
		return mi.QueryMatrix(sources, targets, dst)
	}
	return MatrixViaBatch(idx, sources, targets, dst)
}

// Reachable answers a reachability query through the decoded body. Part of
// Reachability.
func (lm *lazyMember) Reachable(src int32, d float64) ([]Reached, error) {
	idx, err := lm.get()
	if err != nil {
		return nil, err
	}
	ri, ok := idx.(Reachability)
	if !ok {
		return nil, fmt.Errorf("core: member %q (kind %s) answers no reachability queries", lm.name, lm.kind)
	}
	return ri.Reachable(src, d)
}

// --- the a2a point capability ---------------------------------------------

// points faults the a2a body in and returns its point capability.
func (lp lazyPointMember) points() (pointIndex, error) {
	idx, err := lp.get()
	if err != nil {
		return nil, err
	}
	pi, ok := idx.(pointIndex)
	if !ok {
		return nil, fmt.Errorf("core: member %q (kind %s) answers no point queries", lp.name, lp.kind)
	}
	return pi, nil
}

// QueryPoints answers an arbitrary-point query. Part of PointIndex.
func (lp lazyPointMember) QueryPoints(s, t terrain.SurfacePoint) (float64, error) {
	pi, err := lp.points()
	if err != nil {
		return 0, err
	}
	return pi.QueryPoints(s, t)
}

// Project lifts planar coordinates onto the member's surface. Part of
// PointIndex; a fault failure reports "outside the terrain".
func (lp lazyPointMember) Project(x, y float64) (terrain.SurfacePoint, bool) {
	pi, err := lp.points()
	if err != nil {
		return terrain.SurfacePoint{}, false
	}
	return pi.Project(x, y)
}

// QueryXY answers the planar-coordinate query form. Part of PointIndex.
func (lp lazyPointMember) QueryXY(sx, sy, tx, ty float64) (float64, error) {
	pi, err := lp.points()
	if err != nil {
		return 0, err
	}
	return pi.QueryXY(sx, sy, tx, ty)
}

// QueryPathPoints reports the surface path between arbitrary points. Part
// of PointPathIndex.
func (lp lazyPointMember) QueryPathPoints(s, t terrain.SurfacePoint) ([]terrain.SurfacePoint, float64, error) {
	pi, err := lp.points()
	if err != nil {
		return nil, 0, err
	}
	return pi.QueryPathPoints(s, t)
}

// QueryPathXY reports the surface path between planar coordinates. Part of
// PointPathIndex.
func (lp lazyPointMember) QueryPathXY(sx, sy, tx, ty float64) ([]terrain.SurfacePoint, float64, error) {
	pi, err := lp.points()
	if err != nil {
		return nil, 0, err
	}
	return pi.QueryPathXY(sx, sy, tx, ty)
}
