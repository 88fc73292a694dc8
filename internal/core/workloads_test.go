package core

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"seoracle/internal/geom"
	"seoracle/internal/terrain"
)

// workloads_test.go — the matrix / k-nearest / isochrone workloads: exact
// agreement with the pairwise Query surface, determinism across encode →
// load, and the sharded routing semantics.

// matrixAgreesWithQuery asserts every cell of QueryMatrix equals the
// pairwise Query answer exactly (the matrix is a batching of Query, not an
// approximation of it).
func matrixAgreesWithQuery(t *testing.T, idx MatrixIndex, sources, targets []int32) {
	t.Helper()
	got, err := idx.QueryMatrix(sources, targets, nil)
	if err != nil {
		t.Fatalf("QueryMatrix: %v", err)
	}
	if len(got) != len(sources)*len(targets) {
		t.Fatalf("matrix has %d cells, want %d", len(got), len(sources)*len(targets))
	}
	for i, s := range sources {
		for j, tt := range targets {
			want, err := idx.Query(s, tt)
			if err != nil {
				t.Fatalf("Query(%d,%d): %v", s, tt, err)
			}
			if got[i*len(targets)+j] != want {
				t.Errorf("cell (%d,%d) = %g, Query says %g", i, j, got[i*len(targets)+j], want)
			}
		}
	}
}

// TestQueryMatrixMatchesQuery: every kind's matrix cells equal pairwise
// Query exactly, including non-square and destination-reusing calls.
func TestQueryMatrixMatchesQuery(t *testing.T) {
	w := newTestWorld(t, 11, 18, 1101)
	o := w.build(t, Options{Epsilon: 0.2, Seed: 1102})
	sources := []int32{0, 3, 7, 7}
	targets := []int32{1, 0, 5, 9, 2}

	t.Run("se", func(t *testing.T) { matrixAgreesWithQuery(t, o, sources, targets) })
	t.Run("dynamic", func(t *testing.T) {
		d, err := NewDynamicOracle(w.eng, w.mesh, w.pois, Options{Epsilon: 0.2, Seed: 1103})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Insert(w.mesh.VertexPoint(12)); err != nil {
			t.Fatal(err)
		}
		ids := d.LiveIDs()
		matrixAgreesWithQuery(t, d, ids[:3], ids[len(ids)-3:])
	})
	t.Run("a2a", func(t *testing.T) {
		so, err := BuildSiteOracle(w.eng, w.mesh, SiteOptions{Options: Options{Epsilon: 0.3, Seed: 1104}})
		if err != nil {
			t.Fatal(err)
		}
		n := int32(so.NumSites())
		matrixAgreesWithQuery(t, so, []int32{0, n - 1}, []int32{1, n / 2, 0})
	})
	t.Run("multi-single-member", func(t *testing.T) {
		sh, err := NewShardedIndex([]ShardMember{{Name: "only", BBox: BBox2D{MaxX: 200, MaxY: 200}, Index: o}})
		if err != nil {
			t.Fatal(err)
		}
		matrixAgreesWithQuery(t, sh, sources, targets)
	})

	// A reusable destination is filled in place with no reallocation.
	dst := make([]float64, 0, len(sources)*len(targets))
	got, err := o.QueryMatrix(sources, targets, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[:1][0] {
		t.Error("QueryMatrix reallocated a destination with sufficient capacity")
	}
}

// TestQueryMatrixErrors: empty axes and invalid ids fail with the offending
// row named; a multi-member sharded index refuses id-addressed matrices.
func TestQueryMatrixErrors(t *testing.T) {
	w := newTestWorld(t, 9, 10, 1105)
	o := w.build(t, Options{Epsilon: 0.3, Seed: 1106})
	if _, err := o.QueryMatrix(nil, []int32{0}, nil); err == nil {
		t.Error("empty sources accepted")
	}
	if _, err := o.QueryMatrix([]int32{0}, nil, nil); err == nil {
		t.Error("empty targets accepted")
	}
	_, err := o.QueryMatrix([]int32{0, 99}, []int32{0}, nil)
	if err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Errorf("bad id error %v, want row 1 named", err)
	}
	sh := buildSharded(t, w, 2, Options{Epsilon: 0.3, Seed: 1107})
	if sh.NumMembers() < 2 {
		t.Skipf("world produced %d members", sh.NumMembers())
	}
	if _, err := sh.QueryMatrix([]int32{0}, []int32{1}, nil); err == nil || !strings.Contains(err.Error(), "member") {
		t.Errorf("multi-member matrix = %v, want member-addressing error", err)
	}
}

// bruteNearestK sorts every live point by (planar distance, id) and returns
// the first k — the specification NearestK must match exactly.
func bruteNearestK(pts []terrain.SurfacePoint, skip func(int32) bool, x, y float64, k int) []Neighbor {
	var all []Neighbor
	for i, p := range pts {
		if skip != nil && skip(int32(i)) {
			continue
		}
		dx, dy := p.P.X-x, p.P.Y-y
		all = append(all, Neighbor{ID: int32(i), At: p, Planar: math.Sqrt(dx*dx + dy*dy)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Planar != all[j].Planar {
			return all[i].Planar < all[j].Planar
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func neighborsEqual(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Planar != b[i].Planar || a[i].At != b[i].At {
			return false
		}
	}
	return true
}

// TestNearestKMatchesBruteForce: the B+-tree candidate generation returns
// exactly the brute-force (distance, id) top k for every k up to beyond the
// point count, at probes on, near and far from the POI set.
func TestNearestKMatchesBruteForce(t *testing.T) {
	w := newTestWorld(t, 11, 25, 1110)
	o := w.build(t, Options{Epsilon: 0.25, Seed: 1111})
	probes := [][2]float64{{0, 0}, {50, 50}, {-30, 120}, {w.pois[3].P.X, w.pois[3].P.Y}}
	for _, pr := range probes {
		for _, k := range []int{1, 2, 5, len(w.pois), len(w.pois) + 7} {
			got, err := o.NearestK(pr[0], pr[1], k)
			if err != nil {
				t.Fatalf("NearestK(%v, %d): %v", pr, k, err)
			}
			want := bruteNearestK(o.Points(), nil, pr[0], pr[1], k)
			if !neighborsEqual(got, want) {
				t.Errorf("NearestK(%v, %d) = %v, want %v", pr, k, got, want)
			}
		}
	}
	if _, err := o.NearestK(0, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestNearestK1EqualsNearest: NearestK with k = 1 returns exactly the
// NearestFinder answer on every kind that implements both.
func TestNearestK1EqualsNearest(t *testing.T) {
	w := newTestWorld(t, 11, 20, 1112)
	o := w.build(t, Options{Epsilon: 0.25, Seed: 1113})
	d, err := NewDynamicOracle(w.eng, w.mesh, w.pois, Options{Epsilon: 0.25, Seed: 1114})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(0); err != nil {
		t.Fatal(err)
	}
	so, err := BuildSiteOracle(w.eng, w.mesh, SiteOptions{Options: Options{Epsilon: 0.3, Seed: 1115}})
	if err != nil {
		t.Fatal(err)
	}
	finders := []struct {
		name string
		f    NearestKFinder
	}{{"se", o}, {"dynamic", d}, {"a2a", so}}
	for _, tc := range finders {
		for _, pr := range [][2]float64{{0, 0}, {47, 61}, {w.pois[0].P.X, w.pois[0].P.Y}} {
			id, at, planar, err := tc.f.Nearest(pr[0], pr[1])
			if err != nil {
				t.Fatalf("%s Nearest(%v): %v", tc.name, pr, err)
			}
			ns, err := tc.f.NearestK(pr[0], pr[1], 1)
			if err != nil {
				t.Fatalf("%s NearestK(%v, 1): %v", tc.name, pr, err)
			}
			if len(ns) != 1 || ns[0].ID != id || ns[0].Planar != planar || ns[0].At != at {
				t.Errorf("%s NearestK(%v, 1) = %+v, Nearest says id=%d d=%g", tc.name, pr, ns, id, planar)
			}
		}
	}
}

// TestNearestKTiesDeterministicAcrossEncodeLoad: a probe exactly
// equidistant from several POIs (a flat integer grid makes the planar ties
// exact in floating point) picks the lower ids, identically before and
// after an encode → load round trip.
func TestNearestKTiesDeterministicAcrossEncodeLoad(t *testing.T) {
	m, eng := flatGridWorld(t, 5)
	// Four vertices symmetric around (2,2): ids in POI order 0..3.
	pois := []terrain.SurfacePoint{
		m.VertexPoint(2*5 + 1), // (1,2)
		m.VertexPoint(2*5 + 3), // (3,2)
		m.VertexPoint(1*5 + 2), // (2,1)
		m.VertexPoint(3*5 + 2), // (2,3)
	}
	o, err := Build(eng, pois, Options{Epsilon: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := o.NearestK(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 || want[0].ID != 0 || want[1].ID != 1 || want[2].ID != 2 {
		t.Fatalf("tie order %+v, want ids 0,1,2", want)
	}
	for _, n := range want {
		if n.Planar != 1.0 {
			t.Fatalf("tie setup broken: distance %g, want exactly 1.0", n.Planar)
		}
	}
	var buf bytes.Buffer
	if err := o.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	idx, _, err := Load(&buf, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := idx.(NearestKFinder).NearestK(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !neighborsEqual(got, want) {
		t.Fatalf("loaded NearestK = %+v, built oracle said %+v", got, want)
	}
}

// TestNearestKAcrossMergesMembers: the sharded fan-out equals a brute-force
// (distance, member name, id) merge over every member's points, including
// probes near tile boundaries where one member contributes several of the
// top k.
func TestNearestKAcrossMergesMembers(t *testing.T) {
	w := newTestWorld(t, 11, 28, 1116)
	sh := buildSharded(t, w, 4, Options{Epsilon: 0.25, Seed: 1117})
	brute := func(x, y float64, k int) []MemberNeighbor {
		var all []MemberNeighbor
		for _, m := range sh.Members() {
			for i, p := range m.Index.(*Oracle).Points() {
				dx, dy := p.P.X-x, p.P.Y-y
				all = append(all, MemberNeighbor{Member: m.Name,
					Neighbor: Neighbor{ID: int32(i), At: p, Planar: math.Sqrt(dx*dx + dy*dy)}})
			}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Planar != all[j].Planar {
				return all[i].Planar < all[j].Planar
			}
			if all[i].Member != all[j].Member {
				return all[i].Member < all[j].Member
			}
			return all[i].ID < all[j].ID
		})
		if len(all) > k {
			all = all[:k]
		}
		return all
	}
	for _, pr := range [][2]float64{{0, 0}, {60, 60}, {55, 10}, {-15, 130}} {
		for _, k := range []int{1, 3, 8} {
			got, err := sh.NearestKAcross(pr[0], pr[1], k)
			if err != nil {
				t.Fatalf("NearestKAcross(%v, %d): %v", pr, k, err)
			}
			want := brute(pr[0], pr[1], k)
			if len(got) != len(want) {
				t.Fatalf("NearestKAcross(%v, %d) returned %d, want %d", pr, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("NearestKAcross(%v, %d)[%d] = %+v, want %+v", pr, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReachableConsistentWithQuery: isochrone membership is exactly the
// Query(src, t) <= d predicate — every reached id satisfies it, every
// unreached id violates it, and the reported distances are Query's answers.
func TestReachableConsistentWithQuery(t *testing.T) {
	w := newTestWorld(t, 11, 22, 1120)
	o := w.build(t, Options{Epsilon: 0.2, Seed: 1121})
	// Pick budgets spanning empty-ish to everything.
	var maxDist float64
	for i := range w.pois {
		d, err := o.Query(0, int32(i))
		if err != nil {
			t.Fatal(err)
		}
		maxDist = math.Max(maxDist, d)
	}
	for _, budget := range []float64{0, maxDist / 4, maxDist / 2, maxDist * 2} {
		got, err := o.Reachable(0, budget)
		if err != nil {
			t.Fatalf("Reachable(0, %g): %v", budget, err)
		}
		reached := make(map[int32]float64, len(got))
		for i, r := range got {
			if i > 0 && got[i-1].ID >= r.ID {
				t.Fatalf("Reachable ids not ascending: %+v", got)
			}
			reached[r.ID] = r.Distance
		}
		for i := range w.pois {
			d, err := o.Query(0, int32(i))
			if err != nil {
				t.Fatal(err)
			}
			rd, in := reached[int32(i)]
			if in != (d <= budget) {
				t.Errorf("budget %g: POI %d reached=%v but Query=%g", budget, i, in, d)
			}
			if in && rd != d {
				t.Errorf("budget %g: POI %d reported %g, Query says %g", budget, i, rd, d)
			}
		}
		if _, ok := reached[0]; !ok {
			t.Errorf("budget %g: source not in its own isochrone", budget)
		}
	}
	if _, err := o.Reachable(0, math.Inf(1)); err == nil {
		t.Error("infinite budget accepted")
	}
	if _, err := o.Reachable(0, -1); err == nil {
		t.Error("negative budget accepted")
	}
}

// TestReachableDynamicSkipsTombstones: deleted POIs never appear in an
// isochrone, and live ones agree with Query.
func TestReachableDynamicSkipsTombstones(t *testing.T) {
	w := newTestWorld(t, 11, 16, 1122)
	d, err := NewDynamicOracle(w.eng, w.mesh, w.pois, Options{Epsilon: 0.25, Seed: 1123})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(3); err != nil {
		t.Fatal(err)
	}
	got, err := d.Reachable(0, math.MaxFloat64/4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(w.pois)-1 {
		t.Fatalf("reached %d POIs, want %d live", len(got), len(w.pois)-1)
	}
	for _, r := range got {
		if r.ID == 3 {
			t.Fatal("tombstoned POI 3 appeared in the isochrone")
		}
	}
}

// TestShardedReachableDelegation: a single-member multi answers through its
// member; more members refuse with the addressing error.
func TestShardedReachableDelegation(t *testing.T) {
	w := newTestWorld(t, 9, 14, 1124)
	o := w.build(t, Options{Epsilon: 0.3, Seed: 1125})
	one, err := NewShardedIndex([]ShardMember{{Name: "only", BBox: BBox2D{MaxX: 200, MaxY: 200}, Index: o}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := o.Reachable(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	got, err := one.Reachable(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("delegated isochrone has %d POIs, member says %d", len(got), len(want))
	}
	sh := buildSharded(t, w, 2, Options{Epsilon: 0.3, Seed: 1126})
	if sh.NumMembers() < 2 {
		t.Skipf("world produced %d members", sh.NumMembers())
	}
	if _, err := sh.Reachable(0, 100); err == nil || !strings.Contains(err.Error(), "member") {
		t.Errorf("multi-member Reachable = %v, want member-addressing error", err)
	}
}

// TestPlanarHull: the monotone chain handles general position, collinear
// and degenerate inputs, and every input point lies inside or on the hull.
func TestPlanarHull(t *testing.T) {
	pt := func(x, y float64) terrain.SurfacePoint {
		return terrain.SurfacePoint{Face: 0, Vert: -1, P: geom.Vec3{X: x, Y: y}}
	}
	t.Run("square-with-interior", func(t *testing.T) {
		pts := []terrain.SurfacePoint{pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4), pt(2, 2), pt(1, 3)}
		hull := PlanarHull(pts)
		if len(hull) != 4 {
			t.Fatalf("hull has %d vertices, want 4: %+v", len(hull), hull)
		}
		// CCW from the lexicographically smallest corner.
		want := [][2]float64{{0, 0}, {4, 0}, {4, 4}, {0, 4}}
		for i, h := range hull {
			if h.P.X != want[i][0] || h.P.Y != want[i][1] {
				t.Errorf("hull[%d] = (%g,%g), want %v", i, h.P.X, h.P.Y, want[i])
			}
		}
	})
	t.Run("collinear", func(t *testing.T) {
		hull := PlanarHull([]terrain.SurfacePoint{pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3)})
		if len(hull) != 2 || hull[0].P.X != 0 || hull[1].P.X != 3 {
			t.Fatalf("collinear hull %+v, want the two endpoints", hull)
		}
	})
	t.Run("duplicates-and-single", func(t *testing.T) {
		if hull := PlanarHull([]terrain.SurfacePoint{pt(1, 1), pt(1, 1), pt(1, 1)}); len(hull) != 1 {
			t.Fatalf("duplicate-point hull %+v, want one point", hull)
		}
		if hull := PlanarHull(nil); hull != nil {
			t.Fatalf("empty hull %+v, want nil", hull)
		}
	})
}
