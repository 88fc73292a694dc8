package geodesic

import (
	"math"
	"sync"

	"seoracle/internal/geom"
	"seoracle/internal/terrain"
)

// Exact is the window-propagation SSAD engine. It is safe for concurrent use
// by multiple goroutines: each DistancesTo call checks a private run state
// out of a pool (or builds a fresh one), so concurrent expansions never
// share mutable memory. Recycling the run state — window lists, the event
// queue, vertex labels, window storage — is what keeps the build-dominating
// SSAD fan-out out of the allocator; results remain a pure function of
// (src, targets, stop) because begin() resets every recycled field.
type Exact struct {
	mesh *terrain.Mesh
	// apex[h] is the planar position of the third vertex of h's face when
	// the face is laid out with h as the base (origin at h.Org, h.Dst on the
	// positive x-axis); apex[h].Y > 0 for non-degenerate faces.
	apex []geom.Vec2
	// spawn[v] reports whether geodesics may bend around vertex v: saddle
	// vertices (total incident angle > 2*pi) and boundary vertices.
	spawn []bool
	// runs recycles per-expansion scratch across DistancesTo calls; one run
	// is checked out per in-flight expansion (per-goroutine in practice).
	runs sync.Pool
}

// NewExact prepares an exact SSAD engine for m.
func NewExact(m *terrain.Mesh) *Exact {
	e := &Exact{mesh: m}
	nh := m.NumHalfedges()
	e.apex = make([]geom.Vec2, nh)
	angle := make([]float64, m.NumVerts())
	for h := int32(0); h < int32(nh); h++ {
		he := m.Halfedge(h)
		h1 := m.NextInFace(h)
		h2 := m.NextInFace(h1)
		a := m.Halfedge(h1).Len // |dst - apex|
		b := m.Halfedge(h2).Len // |apex - org|
		e.apex[h] = geom.TriApex(he.Len, a, b)
		// The interior angle of the face at h.Org sits between edges h
		// (length he.Len) and h2 (length b), opposite the side of length a.
		angle[he.Org] += geom.AngleFromSides(a, he.Len, b)
	}
	e.spawn = make([]bool, m.NumVerts())
	for v := range e.spawn {
		e.spawn[v] = m.IsBoundaryVert(int32(v)) || angle[v] > 2*math.Pi+1e-9
	}
	return e
}

// Mesh returns the mesh the engine was built for.
func (e *Exact) Mesh() *terrain.Mesh { return e.mesh }

// DistancesTo implements Engine.
func (e *Exact) DistancesTo(src terrain.SurfacePoint, targets []terrain.SurfacePoint, stop Stop) []float64 {
	r := e.getRun()
	r.begin(src, targets, stop)
	r.propagate()
	out := make([]float64, len(targets))
	r.results(out)
	e.putRun(r)
	return out
}

// VertexDistances runs a full (or radius-bounded) expansion from src and
// returns the geodesic distance to every mesh vertex. Vertices beyond the
// radius are +Inf.
func (e *Exact) VertexDistances(src terrain.SurfacePoint, stop Stop) []float64 {
	stop.CoverTargets = false
	r := e.getRun()
	r.begin(src, nil, stop)
	r.propagate()
	out := make([]float64, len(r.label))
	copy(out, r.label)
	if stop.Radius > 0 {
		for i, d := range out {
			if d > stop.Radius {
				out[i] = inf()
			}
		}
	}
	e.putRun(r)
	return out
}

// run holds the state of one SSAD expansion. Runs are recycled through
// Exact.runs: begin() must reset every field a previous expansion may have
// dirtied, because any leak across runs would break the engine's
// pure-function (and hence build-determinism) contract.
type run struct {
	e    *Exact
	m    *terrain.Mesh
	stop Stop
	src  terrain.SurfacePoint

	lists [][]*window // live windows per half-edge
	label []float64   // per-vertex distance upper bounds (exact at settle)
	queue qheap
	arena winArena

	targets     []terrain.SurfacePoint
	est         []float64
	tcoords     [][3]geom.Vec2 // per target: coords in each frame of its face
	faceTargets map[int32][]int
	vertTargets map[int32][]int
	theap       estHeap
	settledN    int
	settled     []bool

	// vfrom[v] / tfrom[i] record how the current best label of vertex v /
	// estimate of target i was achieved — the predecessor links PathTo's
	// backtrace walks (path.go). Entries are only read for vertices and
	// targets whose distance is finite, which this run must have written, so
	// recycled stale entries (including dangling window pointers into a
	// reset arena) are never followed.
	vfrom []origin
	tfrom []origin

	// insert/clip scratch (see trim.go); safe because insert never re-enters.
	ivA, ivB []iv
	snap     []*window

	maxKey float64
	// expanded counts the windows unfolded across their face this run — the
	// work the goal-directed prune (see propagate) saves.
	expanded int
}

// getRun checks a run out of the pool, or builds one sized for the mesh.
func (e *Exact) getRun() *run {
	if v := e.runs.Get(); v != nil {
		return v.(*run)
	}
	m := e.mesh
	return &run{
		e:           e,
		m:           m,
		lists:       make([][]*window, m.NumHalfedges()),
		label:       make([]float64, m.NumVerts()),
		vfrom:       make([]origin, m.NumVerts()),
		faceTargets: make(map[int32][]int),
		vertTargets: make(map[int32][]int),
	}
}

// putRun returns a run to the pool. The caller's target slice is dropped so
// the pool does not pin caller memory between expansions.
func (e *Exact) putRun(r *run) {
	r.targets = nil
	e.runs.Put(r)
}

// begin resets the run for a new expansion and seeds it from src.
func (r *run) begin(src terrain.SurfacePoint, targets []terrain.SurfacePoint, stop Stop) {
	r.stop = stop
	r.src = src
	for i := range r.lists {
		r.lists[i] = r.lists[i][:0]
	}
	for i := range r.label {
		r.label[i] = inf()
	}
	r.queue = r.queue[:0]
	r.theap = r.theap[:0]
	r.arena.reset()
	r.settledN = 0
	r.maxKey = 0
	r.expanded = 0
	r.initTargets(targets)
	r.initSource(src)
}

// grow returns s resized to n entries, reusing its backing array when it is
// large enough. Contents are unspecified; callers must overwrite.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (r *run) initTargets(targets []terrain.SurfacePoint) {
	r.targets = targets
	r.est = grow(r.est, len(targets))
	r.settled = grow(r.settled, len(targets))
	r.tcoords = grow(r.tcoords, len(targets))
	r.tfrom = grow(r.tfrom, len(targets))
	clear(r.faceTargets)
	clear(r.vertTargets)
	for i, t := range targets {
		r.est[i] = inf()
		r.settled[i] = false
		if t.Vert >= 0 {
			r.vertTargets[t.Vert] = append(r.vertTargets[t.Vert], i)
			// A vertex target also benefits from window evaluations on any
			// incident face; registering its own face is enough because its
			// label-based estimate is exact.
			continue
		}
		f := t.Face
		r.faceTargets[f] = append(r.faceTargets[f], i)
		for k := 0; k < 3; k++ {
			h := r.m.HalfedgeID(f, k)
			r.tcoords[i][k] = r.frameCoords(h, t.P)
		}
	}
}

// frameCoords maps a 3-D point assumed to lie on h's face into h's local
// frame (origin at h.Org, x-axis towards h.Dst, face above the axis).
func (r *run) frameCoords(h int32, p geom.Vec3) geom.Vec2 {
	he := r.m.Halfedge(h)
	o := r.m.Verts[he.Org]
	d := r.m.Verts[he.Dst]
	L := he.Len
	do := p.Dist(o)
	dd := p.Dist(d)
	x := (L*L + do*do - dd*dd) / (2 * L)
	y2 := do*do - x*x
	if y2 < 0 {
		y2 = 0
	}
	return geom.Vec2{X: x, Y: math.Sqrt(y2)}
}

func (r *run) initSource(src terrain.SurfacePoint) {
	if src.Vert >= 0 {
		r.updateLabel(src.Vert, 0, originSource())
		return
	}
	f := src.Face
	fa := r.m.Faces[f]
	// Labels of the face's corners (straight segments inside the face).
	for _, v := range fa {
		r.updateLabel(v, src.P.Dist(r.m.Verts[v]), originSource())
	}
	// Targets on the same face: the straight segment is a geodesic.
	for _, ti := range r.faceTargets[f] {
		r.updateEstimate(ti, src.P.Dist(r.targets[ti].P), originSource())
	}
	// One full-edge window through each side of the face.
	for k := 0; k < 3; k++ {
		h := r.m.HalfedgeID(f, k)
		he := r.m.Halfedge(h)
		if he.Twin < 0 {
			continue
		}
		// Frame of twin(h): origin at h.Dst, x-axis towards h.Org, and the
		// source (inside f) below the axis.
		L := he.Len
		dq := src.P.Dist(r.m.Verts[he.Dst])
		dp := src.P.Dist(r.m.Verts[he.Org])
		x := (L*L + dq*dq - dp*dp) / (2 * L)
		y2 := dq*dq - x*x
		if y2 < 0 {
			y2 = 0
		}
		r.insert(he.Twin, 0, L, x, -math.Sqrt(y2), 0, nil, -1)
	}
}

// propagate drains the queue until the stop condition fires.
//
// A call bounded by both Radius and CoverTargets only has to get right the
// targets within Radius, so it prunes goal-directed: every path that
// continues a window (or leaves a pseudo-source vertex) is at least its
// distance at the edge (vertex) plus the straight 3-D chord from there to
// the nearest target, because an unfolded geodesic is never shorter than
// the chord. A popped window whose key plus that gap exceeds Radius, and a
// vertex event whose label does, has no descendant within Radius and is
// dropped — marked propagated, like a normal pop. Nothing is reordered, so
// the surviving work pops exactly as before. The gap is shrunk by a
// relative margin so rounding can never prune a path that ends within
// Radius.
func (r *run) propagate() {
	prune := r.stop.Radius > 0 && r.stop.CoverTargets && len(r.targets) > 0
	for len(r.queue) > 0 {
		it := r.queue.pop()
		if r.stop.Radius > 0 && it.key > r.stop.Radius {
			return
		}
		r.maxKey = it.key
		r.settleTargets(it.key)
		if r.stop.CoverTargets && len(r.targets) > 0 && r.settledN == len(r.targets) {
			return
		}
		if it.win != nil {
			w := it.win
			if !w.alive || w.propagated {
				continue
			}
			w.propagated = true
			if prune && it.key+r.windowGap(w) > r.stop.Radius {
				continue
			}
			r.expanded++
			r.propagateWindow(w)
			continue
		}
		// Vertex event.
		v := it.vert
		if it.key > r.label[v]+1e-12*(1+r.label[v]) {
			continue // stale
		}
		if prune && r.label[v]+r.chordGap(r.m.Verts[v], geom.Vec3{}, 0, 0) > r.stop.Radius {
			continue
		}
		r.spawnFromVertex(v, r.label[v])
	}
	// Queue exhausted: everything reachable is settled.
	r.settleTargets(inf())
}

// pruneMargin shrinks the prune's chord lower bounds so that a few ulps of
// rounding in the chord (or in the distances it is added to) cannot push a
// path that ends within Radius over it.
const pruneMargin = 1 - 1e-9

// windowGap returns a lower bound on the straight 3-D distance from any
// point of w's edge interval [b0,b1] to the nearest target.
func (r *run) windowGap(w *window) float64 {
	he := r.m.Halfedge(w.he)
	o := r.m.Verts[he.Org]
	return r.chordGap(o, r.m.Verts[he.Dst].Sub(o).Scale(1/he.Len), w.b0, w.b1)
}

// chordGap returns the straight 3-D distance from the segment o + s·u,
// s in [s0,s1], to the nearest target (from the point o when u is zero),
// shrunk by pruneMargin.
func (r *run) chordGap(o, u geom.Vec3, s0, s1 float64) float64 {
	best := inf()
	for i := range r.targets {
		rel := r.targets[i].P.Sub(o)
		s := math.Max(s0, math.Min(s1, rel.Dot(u)))
		if d := rel.Sub(u.Scale(s)).Norm(); d < best {
			best = d
		}
	}
	return best * pruneMargin
}

// settleTargets marks targets whose estimate can no longer improve.
func (r *run) settleTargets(key float64) {
	for len(r.theap) > 0 && r.theap[0].est <= key {
		it := r.theap.pop()
		if !r.settled[it.idx] && r.est[it.idx] <= key {
			r.settled[it.idx] = true
			r.settledN++
		}
	}
}

// results writes one distance per target into out (len(out) == len(targets)).
func (r *run) results(out []float64) {
	for i := range r.targets {
		d := r.est[i]
		if r.stop.Radius > 0 && d > r.stop.Radius {
			d = inf()
		}
		out[i] = d
	}
}

// updateEstimate lowers a target's distance estimate, recording where the
// improvement came from so the path backtrace can replay it.
func (r *run) updateEstimate(ti int, d float64, from origin) {
	if d < r.est[ti] {
		r.est[ti] = d
		r.tfrom[ti] = from
		r.theap.push(estItem{est: d, idx: ti})
	}
}

// updateLabel lowers a vertex label and schedules the dependent work: a
// pseudo-source event (when the vertex can bend geodesics), estimate updates
// for targets on incident faces, and (on event pop) edge relaxations.
func (r *run) updateLabel(v int32, d float64, from origin) {
	if d >= r.label[v] {
		return
	}
	r.label[v] = d
	r.vfrom[v] = from
	pushVertex(&r.queue, v, d)
	for _, ti := range r.vertTargets[v] {
		r.updateEstimate(ti, d, originVert(v))
	}
	if len(r.faceTargets) > 0 {
		for _, f := range r.m.VertFaces(v) {
			for _, ti := range r.faceTargets[f] {
				r.updateEstimate(ti, d+r.m.Verts[v].Dist(r.targets[ti].P), originVert(v))
			}
		}
	}
}

// spawnFromVertex creates pseudo-source windows on the edges opposite v in
// each incident face, and relaxes v's neighbors along mesh edges.
func (r *run) spawnFromVertex(v int32, d float64) {
	vp := r.m.Verts[v]
	for _, f := range r.m.VertFaces(v) {
		var ho int32 = -1
		for k := 0; k < 3; k++ {
			h := r.m.HalfedgeID(f, k)
			he := r.m.Halfedge(h)
			if he.Org != v && he.Dst != v {
				ho = h
			}
			// Relax along the edges incident to v. Both directions are
			// needed: boundary edges exist as a single half-edge, so the
			// edge to a neighbor may only appear with v as its destination.
			if he.Org == v {
				r.updateLabel(he.Dst, d+he.Len, originVert(v))
			} else if he.Dst == v {
				r.updateLabel(he.Org, d+he.Len, originVert(v))
			}
		}
		if ho < 0 {
			continue
		}
		if !r.e.spawn[v] && d > 0 {
			// Non-saddle interior vertices do not bend geodesics; only the
			// true source (d == 0) must spawn.
			continue
		}
		he := r.m.Halfedge(ho)
		if he.Twin < 0 {
			continue
		}
		// v's position in the frame of twin(ho): base from he.Dst to he.Org,
		// v below the axis.
		L := he.Len
		db := vp.Dist(r.m.Verts[he.Dst])
		da := vp.Dist(r.m.Verts[he.Org])
		x := (L*L + db*db - da*da) / (2 * L)
		y2 := db*db - x*x
		if y2 < 0 {
			y2 = 0
		}
		r.insert(he.Twin, 0, L, x, -math.Sqrt(y2), d, nil, v)
	}
}

// propagateWindow unfolds w across its face and creates candidate windows on
// the two opposite edges.
func (r *run) propagateWindow(w *window) {
	h := w.he
	he := r.m.Halfedge(h)
	L := he.Len
	apex := r.e.apex[h]
	ps := geom.Vec2{X: w.px, Y: w.py}
	h1 := r.m.NextInFace(h)  // dst -> apex
	h2 := r.m.NextInFace(h1) // apex -> org
	A1 := geom.Vec2{X: L, Y: 0}
	B1 := apex
	A2 := apex
	B2 := geom.Vec2{X: 0, Y: 0}

	// The face corner that is NOT on the target edge, used to orient the
	// twin frame: B2 (the base origin) for edge h1, A1 (the base
	// destination) for edge h2.
	opp1 := B2
	opp2 := A1

	if w.py >= -1e-14*L {
		// Degenerate pseudo-source on the edge line.
		if w.px > w.b0+1e-14*L && w.px < w.b1-1e-14*L {
			// Point source on the edge interior: the whole face is visible.
			r.propagateOntoEdge(w, h1, A1, B1, 0, 1, ps, opp1)
			r.propagateOntoEdge(w, h2, A2, B2, 0, 1, ps, opp2)
			r.updateLabel(r.m.OppositeVert(h), w.sigma+ps.Dist(apex), originWin(w, apex))
		}
		// Grazing windows carry no area; endpoint labels were already
		// handled at insertion time.
		return
	}

	// Visible x-interval on the base through which rays can reach each edge.
	xA1 := r.crossX(ps, A1)
	xB1 := r.crossX(ps, B1)
	xA2 := r.crossX(ps, A2)
	xB2 := r.crossX(ps, B2)

	if lo, hi, ok := clipRange(xA1, xB1, w.b0, w.b1, L); ok {
		u0 := r.paramAt(ps, lo, A1, B1, xA1, xB1)
		u1 := r.paramAt(ps, hi, A1, B1, xA1, xB1)
		r.propagateOntoEdge(w, h1, A1, B1, math.Min(u0, u1), math.Max(u0, u1), ps, opp1)
	}
	if lo, hi, ok := clipRange(xA2, xB2, w.b0, w.b1, L); ok {
		u0 := r.paramAt(ps, lo, A2, B2, xA2, xB2)
		u1 := r.paramAt(ps, hi, A2, B2, xA2, xB2)
		r.propagateOntoEdge(w, h2, A2, B2, math.Min(u0, u1), math.Max(u0, u1), ps, opp2)
	}

	// Direct apex label when the apex is inside the visible cone.
	if x := r.crossX(ps, apex); x >= w.b0-1e-12*L && x <= w.b1+1e-12*L {
		r.updateLabel(r.m.OppositeVert(h), w.sigma+ps.Dist(apex), originWin(w, apex))
	}
}

// crossX returns the x-coordinate where the segment ps->q crosses the base
// axis (y == 0). It requires q.Y >= 0 >= ps.Y with q.Y - ps.Y > 0.
func (r *run) crossX(ps, q geom.Vec2) float64 {
	den := q.Y - ps.Y
	if den <= 0 {
		return q.X
	}
	u := -ps.Y / den
	return ps.X + u*(q.X-ps.X)
}

// clipRange intersects the base x-range spanned by an opposite edge with the
// window interval.
func clipRange(xA, xB, b0, b1, L float64) (lo, hi float64, ok bool) {
	lo = math.Max(b0, math.Min(xA, xB))
	hi = math.Min(b1, math.Max(xA, xB))
	if hi-lo <= 1e-12*L {
		return 0, 0, false
	}
	return lo, hi, true
}

// paramAt returns the parameter u in [0,1] along segment A->B hit by the ray
// from ps through (x, 0).
func (r *run) paramAt(ps geom.Vec2, x float64, A, B geom.Vec2, xA, xB float64) float64 {
	dir := geom.Vec2{X: x - ps.X, Y: -ps.Y}
	_, u, ok := geom.LineIntersect(ps, dir, A, B.Sub(A))
	if !ok {
		// Ray parallel to the edge: snap to the nearer end of the span.
		if math.Abs(x-xA) < math.Abs(x-xB) {
			return 0
		}
		return 1
	}
	return math.Max(0, math.Min(1, u))
}

// propagateOntoEdge creates a candidate window on the twin of edge hk (a
// half-edge of w's face) covering parameters [ulo,uhi] of the segment A->B,
// with pseudo-source ps given in the frame of w's half-edge. opp is the face
// corner not on this edge; it pins down which side of the edge the old face
// lies on.
func (r *run) propagateOntoEdge(w *window, hk int32, A, B geom.Vec2, ulo, uhi float64, ps, opp geom.Vec2) {
	he := r.m.Halfedge(hk)
	if he.Twin < 0 {
		return
	}
	L1 := he.Len
	if uhi-ulo <= 1e-12 {
		return
	}
	// Frame of twin(hk): origin at B (hk's destination), x-axis towards A.
	// Points of w's face (the side where opp lies) must land below the
	// twin's axis, because the new window propagates away from it.
	u := A.Sub(B).Scale(1 / L1)
	n := geom.Vec2{X: -u.Y, Y: u.X}
	if opp.Sub(B).Dot(n) > 0 {
		n = n.Scale(-1)
	}
	psT := geom.Vec2{X: ps.Sub(B).Dot(u), Y: ps.Sub(B).Dot(n)}
	if psT.Y > 0 {
		psT.Y = 0
	}
	nb0 := (1 - uhi) * L1
	nb1 := (1 - ulo) * L1
	r.insert(he.Twin, nb0, nb1, psT.X, psT.Y, w.sigma, w, -1)
}
