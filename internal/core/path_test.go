package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// checkPath asserts the shared QueryPath contract: the polyline runs
// exactly from s's point to t's point, every vertex lies on a mesh face,
// and the reported distance equals the polyline's summed segment length to
// 1e-9 relative.
func checkPath(t *testing.T, m *terrain.Mesh, path []terrain.SurfacePoint, dist float64,
	s, tp terrain.SurfacePoint) {
	t.Helper()
	if len(path) < 2 {
		t.Fatalf("path has %d points, want >= 2", len(path))
	}
	if d := path[0].P.Dist(s.P); d > 1e-9 {
		t.Fatalf("path starts %g away from the source point", d)
	}
	if d := path[len(path)-1].P.Dist(tp.P); d > 1e-9 {
		t.Fatalf("path ends %g away from the target point", d)
	}
	sum := 0.0
	for i := 1; i < len(path); i++ {
		sum += path[i].P.Dist(path[i-1].P)
	}
	if math.Abs(sum-dist) > 1e-9*(1+dist) {
		t.Fatalf("summed polyline length %.15g != reported distance %.15g", sum, dist)
	}
	for i, p := range path {
		if err := m.Validate(p); err != nil {
			t.Fatalf("path vertex %d: %v", i, err)
		}
	}
}

// pathQueryParity asserts QueryPath against Query on an id-addressed
// PathIndex: self-parity plus the ε-band the highway path guarantees (the
// stitched path includes the center chains, so its length can exceed
// Query's pair-hop scalar by at most the well-separation slack ≈ 4ε·d, and
// can never be meaningfully shorter than the stored exact pair distance).
func pathQueryParity(t *testing.T, m *terrain.Mesh, idx interface {
	Query(s, q int32) (float64, error)
	QueryPath(s, q int32) ([]terrain.SurfacePoint, float64, error)
}, pts []terrain.SurfacePoint, eps float64, s, q int32) {
	t.Helper()
	want, err := idx.Query(s, q)
	if err != nil {
		t.Fatal(err)
	}
	path, got, err := idx.QueryPath(s, q)
	if err != nil {
		t.Fatalf("QueryPath(%d,%d): %v", s, q, err)
	}
	checkPath(t, m, path, got, pts[s], pts[q])
	// The pair hop re-runs the geodesic the pair distance was measured
	// with, but in a single-target expansion whose window pruning differs
	// at the engine's internal tolerances — allow ~1e-7 of FP slack below,
	// the ε slack of the center chains above.
	tol := 1e-7 * (1 + want)
	if got < want-tol {
		t.Fatalf("pair (%d,%d): path length %.15g below Query %.15g", s, q, got, want)
	}
	if got > want*(1+4*eps)+tol {
		t.Fatalf("pair (%d,%d): path length %.15g exceeds Query %.15g beyond the ε band", s, q, got, want)
	}
}

// roundTrip encodes an index and loads it back.
func roundTrip(t *testing.T, idx DistanceIndex) DistanceIndex {
	t.Helper()
	var buf bytes.Buffer
	if err := idx.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(&buf, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// Property test over the SE oracle: for random pairs the highway path obeys
// the shared contract, both on the freshly built oracle and — bit for bit —
// on one that went through an encode → load round trip.
func TestQueryPathSEOracle(t *testing.T) {
	w := newTestWorld(t, 11, 22, 401)
	const eps = 0.25
	built := w.build(t, Options{Epsilon: eps, Seed: 403})
	loaded := roundTrip(t, built).(*Oracle)
	if loaded.Mesh() == nil {
		t.Fatal("loaded SE oracle lost its mesh section")
	}
	rng := rand.New(rand.NewSource(405))
	n := int32(built.NumPOIs())
	for i := 0; i < 60; i++ {
		s, q := rng.Int31n(n), rng.Int31n(n)
		if s == q {
			continue
		}
		pathQueryParity(t, w.mesh, built, w.pois, eps, s, q)
		bp, bd, err := built.QueryPath(s, q)
		if err != nil {
			t.Fatal(err)
		}
		lp, ld, err := loaded.QueryPath(s, q)
		if err != nil {
			t.Fatalf("loaded QueryPath(%d,%d): %v", s, q, err)
		}
		if bd != ld {
			t.Fatalf("pair (%d,%d): built path length %v, loaded %v", s, q, bd, ld)
		}
		if len(bp) != len(lp) {
			t.Fatalf("pair (%d,%d): built path has %d points, loaded %d", s, q, len(bp), len(lp))
		}
		for k := range bp {
			if bp[k].P != lp[k].P {
				t.Fatalf("pair (%d,%d) point %d: built %v, loaded %v", s, q, k, bp[k].P, lp[k].P)
			}
		}
	}
	// Self pairs degenerate to the POI point with zero length.
	path, d, err := built.QueryPath(3, 3)
	if err != nil || d != 0 {
		t.Fatalf("self path: %v, %v", d, err)
	}
	checkPath(t, w.mesh, path, d, w.pois[3], w.pois[3])
}

// An se container holding only the oracle body carries neither points nor
// mesh; path queries must fail loudly, not panic.
func TestQueryPathLegacyStreamUnavailable(t *testing.T) {
	w := newTestWorld(t, 9, 10, 411)
	o := w.build(t, Options{Epsilon: 0.3, Seed: 413})
	bare, ok := loadIndex(t, oracleOnlyContainer(t, o)).(*Oracle)
	if !ok {
		t.Fatal("se container did not load as *Oracle")
	}
	if _, _, err := bare.QueryPath(0, 1); err == nil {
		t.Fatal("geometry-less oracle answered a path query")
	}
}

// Property test over the A2A oracle: site-id paths ride the inner oracle,
// and arbitrary-point paths obey the contract for projected planar points,
// both before and after a round trip.
func TestQueryPathSiteOracle(t *testing.T) {
	m, err := gen.Fractal(gen.FractalSpec{NX: 7, NY: 7, CellDX: 10, Amp: 18, Seed: 421})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.3
	so, err := BuildSiteOracle(geodesic.NewExact(m), m, SiteOptions{Options: Options{Epsilon: eps, Seed: 423}})
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, so).(*SiteOracle)
	rng := rand.New(rand.NewSource(425))
	n := int32(so.NumSites())
	for i := 0; i < 25; i++ {
		s, q := rng.Int31n(n), rng.Int31n(n)
		if s == q {
			continue
		}
		pathQueryParity(t, m, so, so.q.pts, eps, s, q)
		pathQueryParity(t, m, loaded, loaded.q.pts, eps, s, q)
	}
	st := m.ComputeStats()
	for i := 0; i < 25; i++ {
		sx := st.BBoxMin.X + rng.Float64()*(st.BBoxMax.X-st.BBoxMin.X)
		sy := st.BBoxMin.Y + rng.Float64()*(st.BBoxMax.Y-st.BBoxMin.Y)
		tx := st.BBoxMin.X + rng.Float64()*(st.BBoxMax.X-st.BBoxMin.X)
		ty := st.BBoxMin.Y + rng.Float64()*(st.BBoxMax.Y-st.BBoxMin.Y)
		for _, oracle := range []*SiteOracle{so, loaded} {
			sp, ok1 := oracle.Project(sx, sy)
			tp, ok2 := oracle.Project(tx, ty)
			if !ok1 || !ok2 {
				continue
			}
			path, d, err := oracle.QueryPathXY(sx, sy, tx, ty)
			if err != nil {
				t.Fatalf("QueryPathXY(%g,%g,%g,%g): %v", sx, sy, tx, ty, err)
			}
			checkPath(t, m, path, d, sp, tp)
			// The path length must stay within the A2A answer's ε band: it
			// can only differ from QueryXY by the highway-chain slack.
			want, err := oracle.QueryXY(sx, sy, tx, ty)
			if err != nil {
				t.Fatal(err)
			}
			if d < want-1e-7*(1+want) || d > want*(1+4*eps)+1e-9 {
				t.Fatalf("point pair: path length %g outside ε band of QueryXY %g", d, want)
			}
		}
	}
}

// Property test over the dynamic oracle: base-resident pairs stitch through
// the base highway path, overflow pairs re-run the exact geodesic — whose
// length must match Query (the stored exact row) to 1e-9 — and both survive
// a round trip, including a post-load insert.
func TestQueryPathDynamicOracle(t *testing.T) {
	w := newTestWorld(t, 9, 14, 431)
	const eps = 0.3
	d, err := NewDynamicOracle(w.eng, w.mesh, w.pois, Options{Epsilon: eps, Seed: 433})
	if err != nil {
		t.Fatal(err)
	}
	// One insert lands in the overflow set (RebuildFactor 0.25 tolerates it).
	d.RebuildFactor = 10 // keep the overflow row resident for the test
	extra, err := gen.UniformPOIs(w.mesh, 3, 435)
	if err != nil {
		t.Fatal(err)
	}
	newID, err := d.Insert(extra[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, over := d.overflow[newID]; !over {
		t.Fatalf("inserted POI %d did not land in the overflow set", newID)
	}
	check := func(d *DynamicOracle, label string) {
		t.Helper()
		rng := rand.New(rand.NewSource(437))
		ids := d.LiveIDs()
		for i := 0; i < 30; i++ {
			s, q := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if s == q {
				continue
			}
			want, err := d.Query(s, q)
			if err != nil {
				t.Fatal(err)
			}
			path, got, err := d.QueryPath(s, q)
			if err != nil {
				t.Fatalf("%s QueryPath(%d,%d): %v", label, s, q, err)
			}
			checkPath(t, w.mesh, path, got, d.pois[s], d.pois[q])
			_, sOver := d.overflow[s]
			_, qOver := d.overflow[q]
			tol := 1e-9 * (1 + want)
			if sOver || qOver {
				// Overflow rows are exact; the re-run geodesic must agree.
				if math.Abs(got-want) > tol {
					t.Fatalf("%s overflow pair (%d,%d): path length %.15g, Query %.15g", label, s, q, got, want)
				}
			} else if got < want-1e-7*(1+want) || got > want*(1+4*eps)+tol {
				t.Fatalf("%s pair (%d,%d): path length %g outside ε band of Query %g", label, s, q, got, want)
			}
		}
		// The overflow endpoint itself must path against a base endpoint.
		path, got, err := d.QueryPath(newID, ids[0])
		if err != nil {
			t.Fatalf("%s overflow path: %v", label, err)
		}
		want, err := d.Query(newID, ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("%s overflow pair: path length %.15g, Query %.15g", label, got, want)
		}
		checkPath(t, w.mesh, path, got, d.pois[newID], d.pois[ids[0]])
	}
	check(d, "built")
	loaded := roundTrip(t, d).(*DynamicOracle)
	loaded.RebuildFactor = 10
	check(loaded, "loaded")
	// A post-load insert must be path-queryable through the rebuilt engine.
	id2, err := loaded.Insert(extra[1])
	if err != nil {
		t.Fatal(err)
	}
	path, got, err := loaded.QueryPath(id2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := loaded.Query(id2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("post-load insert: path length %.15g, Query %.15g", got, want)
	}
	checkPath(t, w.mesh, path, got, loaded.pois[id2], loaded.pois[0])
}

// Property test over the sharded index: a single-member container routes
// QueryPath to its member (and survives a round trip); a multi-member
// container rejects unaddressed path queries but answers through an
// explicitly addressed member.
func TestQueryPathSharded(t *testing.T) {
	w := newTestWorld(t, 11, 24, 441)
	const eps = 0.25
	single, err := BuildShardedSE(w.eng, w.mesh, w.pois, 1, Options{Epsilon: eps, Seed: 443})
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, single).(*ShardedIndex)
	rng := rand.New(rand.NewSource(445))
	pts := single.Members()[0].Index.(*Oracle).Points()
	n := int32(len(pts))
	for i := 0; i < 30; i++ {
		s, q := rng.Int31n(n), rng.Int31n(n)
		if s == q {
			continue
		}
		pathQueryParity(t, w.mesh, single, pts, eps, s, q)
		pathQueryParity(t, w.mesh, loaded, pts, eps, s, q)
	}

	multi, err := BuildShardedSE(w.eng, w.mesh, w.pois, 2, Options{Epsilon: eps, Seed: 443})
	if err != nil {
		t.Fatal(err)
	}
	if multi.NumMembers() < 2 {
		t.Skipf("tiling produced %d members", multi.NumMembers())
	}
	if _, _, err := multi.QueryPath(0, 1); err == nil {
		t.Fatal("multi-member QueryPath accepted member-local ids without an address")
	}
	// A round trip writes the SE members flat; they report the same paths.
	for _, sh := range []*ShardedIndex{multi, roundTrip(t, multi).(*ShardedIndex)} {
		for i, m := range sh.Members() {
			pts := multi.Members()[i].Index.(*Oracle).Points()
			mn := int32(len(pts))
			if mn < 2 {
				continue
			}
			pathQueryParity(t, w.mesh, m.Index.(PathIndex), pts, eps, 0, mn-1)
		}
	}
}
