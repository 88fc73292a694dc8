package core

import (
	"math"
	"math/rand"
	"testing"

	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

func buildSite(t *testing.T, nx int, eps float64, seed int64) (*SiteOracle, *terrain.Mesh, *geodesic.Exact) {
	t.Helper()
	m, err := gen.Fractal(gen.FractalSpec{NX: nx, NY: nx, CellDX: 10, Amp: 20, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	eng := geodesic.NewExact(m)
	so, err := BuildSiteOracle(eng, m, SiteOptions{Options: Options{Epsilon: eps, Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	return so, m, eng
}

func TestSiteOracleCounts(t *testing.T) {
	so, m, _ := buildSite(t, 7, 0.25, 31)
	per := SitesPerEdgeForEps(0.25)
	want := m.NumVerts() + per*m.NumEdges()
	if so.NumSites() != want {
		t.Errorf("NumSites = %d, want %d", so.NumSites(), want)
	}
	if so.NeighborhoodSize() != 3+3*per {
		t.Errorf("NeighborhoodSize = %d, want %d", so.NeighborhoodSize(), 3+3*per)
	}
	if so.MemoryBytes() <= so.Inner().MemoryBytes() {
		t.Error("site oracle must account for site tables")
	}
}

func TestSitesPerEdgeForEps(t *testing.T) {
	if got := SitesPerEdgeForEps(0.25); got != 2 {
		t.Errorf("eps=0.25: %d, want 2", got)
	}
	if got := SitesPerEdgeForEps(0.04); got != 5 {
		t.Errorf("eps=0.04: %d, want 5", got)
	}
	if got := SitesPerEdgeForEps(0); got != 8 {
		t.Errorf("eps=0: %d, want 8", got)
	}
}

// A2A answers must stay within ε of the exact geodesic distance for random
// arbitrary-point queries (the experiment of Fig. 12).
func TestSiteOracleErrorBound(t *testing.T) {
	eps := 0.25
	so, m, eng := buildSite(t, 9, eps, 32)
	loc := terrain.NewLocator(m)
	st := m.ComputeStats()
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 25; i++ {
		sx := st.BBoxMin.X + rng.Float64()*(st.BBoxMax.X-st.BBoxMin.X)
		sy := st.BBoxMin.Y + rng.Float64()*(st.BBoxMax.Y-st.BBoxMin.Y)
		tx := st.BBoxMin.X + rng.Float64()*(st.BBoxMax.X-st.BBoxMin.X)
		ty := st.BBoxMin.Y + rng.Float64()*(st.BBoxMax.Y-st.BBoxMin.Y)
		s, ok1 := loc.Project(sx, sy)
		tt, ok2 := loc.Project(tx, ty)
		if !ok1 || !ok2 {
			continue
		}
		want := eng.DistancesTo(s, []terrain.SurfacePoint{tt}, geodesic.Stop{CoverTargets: true})[0]
		got, err := so.QueryPoints(s, tt)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if want < 1e-9 {
			continue
		}
		if re := math.Abs(got-want) / want; re > eps*(1+1e-9) {
			t.Errorf("query %d: got %v want %v relerr %v", i, got, want, re)
		}
	}
}

func TestSiteOracleVertexQueries(t *testing.T) {
	// A2A generalizes V2V: querying two vertices must work and respect ε.
	eps := 0.25
	so, m, eng := buildSite(t, 7, eps, 34)
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 15; i++ {
		a := int32(rng.Intn(m.NumVerts()))
		b := int32(rng.Intn(m.NumVerts()))
		if a == b {
			continue
		}
		sa, sb := m.VertexPoint(a), m.VertexPoint(b)
		want := eng.DistancesTo(sa, []terrain.SurfacePoint{sb}, geodesic.Stop{CoverTargets: true})[0]
		got, err := so.QueryPoints(sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		if re := math.Abs(got-want) / want; re > eps*(1+1e-9) {
			t.Errorf("V2V (%d,%d): got %v want %v", a, b, got, want)
		}
	}
}

func TestSiteOracleQueryXY(t *testing.T) {
	so, _, _ := buildSite(t, 7, 0.3, 36)
	d, err := so.QueryXY(5, 5, 45, 45)
	if err != nil {
		t.Fatalf("QueryXY: %v", err)
	}
	if d <= 0 {
		t.Errorf("QueryXY distance = %v", d)
	}
	if _, err := so.QueryXY(-1000, 0, 5, 5); err == nil {
		t.Error("outside source accepted")
	}
	if _, err := so.QueryXY(5, 5, 1e9, 1e9); err == nil {
		t.Error("outside target accepted")
	}
}

func TestSiteOracleSelfQuery(t *testing.T) {
	so, m, _ := buildSite(t, 7, 0.25, 37)
	p := m.FacePoint(3, 0.5, 0.25, 0.25)
	d, err := so.QueryPoints(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 || d > 1e-9 {
		t.Errorf("self A2A distance = %v", d)
	}
}

// Two interior points of one face are answered by their straight segment,
// without a site scan or the short-range exact regime, through both the
// distance and the path query; a bad face id still errors.
func TestSiteOracleSameFace(t *testing.T) {
	so, m, _ := buildSite(t, 7, 0.25, 38)
	for f := int32(0); f < int32(m.NumFaces()); f += 7 {
		s, tt := m.FacePoint(f, 0.6, 0.3, 0.1), m.FacePoint(f, 0.1, 0.2, 0.7)
		d, err := so.QueryPoints(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		path, pd, err := so.QueryPathPoints(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		if want := s.P.Dist(tt.P); d != want || pd != want || len(path) != 2 {
			t.Fatalf("face %d: QueryPoints %v, QueryPathPoints %v over %d points; want the segment %v", f, d, pd, len(path), want)
		}
	}
	if n := so.LocalQueries(); n != 0 {
		t.Fatalf("same-face pairs took the short-range regime %d times", n)
	}
	bad := terrain.SurfacePoint{Face: int32(m.NumFaces()), Vert: -1}
	if _, err := so.QueryPoints(bad, bad); err == nil {
		t.Error("QueryPoints accepted an out-of-range face id")
	}
	if _, _, err := so.QueryPathPoints(bad, bad); err == nil {
		t.Error("QueryPathPoints accepted an out-of-range face id")
	}
}
