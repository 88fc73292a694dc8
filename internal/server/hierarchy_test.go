package server

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seoracle/internal/core"
	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
)

// lodWorld builds a 2-level hierarchical sharded index (4 fine tiles, one
// coarse member, boundary portals) over the shared test terrain.
func lodWorld(t testing.TB) *core.ShardedIndex {
	t.Helper()
	m, pois, eng := testWorld(t)
	sh, err := core.BuildShardedLOD(eng, m, pois, 4, core.LODOptions{
		Options:        core.Options{Epsilon: 0.25, Seed: 81},
		Levels:         2,
		PortalsPerEdge: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sh.SupportsGlobal() {
		t.Fatal("LOD build must support global routing")
	}
	return sh
}

// crossGlobalPair returns two global ids owned by different members.
func crossGlobalPair(t testing.TB, sh *core.ShardedIndex) (int32, int32) {
	t.Helper()
	first, _, ok := sh.MemberOf(0)
	if !ok {
		t.Fatal("global id 0 unresolvable")
	}
	for g := 1; g < sh.NumGlobalIDs(); g++ {
		if name, _, _ := sh.MemberOf(int32(g)); name != first {
			return 0, int32(g)
		}
	}
	t.Fatal("all global ids in one member")
	return 0, 0
}

// straddlingPOIs returns the surface coordinates of two POIs located in
// different member tiles.
func straddlingPOIs(t *testing.T, sh *core.ShardedIndex) (sx, sy, tx, ty float64) {
	t.Helper()
	gs, gt := crossGlobalPair(t, sh)
	ps := globalPoint(t, sh, gs)
	pt := globalPoint(t, sh, gt)
	return ps[0], ps[1], pt[0], pt[1]
}

func globalPoint(t *testing.T, sh *core.ShardedIndex, g int32) [2]float64 {
	t.Helper()
	name, local, ok := sh.MemberOf(g)
	if !ok {
		t.Fatalf("global id %d unresolvable", g)
	}
	for _, m := range sh.Members() {
		if m.Name == name {
			p := m.Index.(*core.Oracle).Points()[local]
			return [2]float64{p.P.X, p.P.Y}
		}
	}
	t.Fatalf("member %q not found", name)
	return [2]float64{}
}

// tilesBlock fetches /statsz and returns its "tiles" block.
func tilesBlock(t *testing.T, ts *httptest.Server) map[string]interface{} {
	t.Helper()
	var st struct {
		Tiles map[string]interface{} `json:"tiles"`
	}
	if code := get(t, ts, "/statsz", &st); code != 200 {
		t.Fatalf("statsz = %d", code)
	}
	if st.Tiles == nil {
		t.Fatal("statsz has no tiles block")
	}
	return st.Tiles
}

// Unnamed id-addressed requests on a hierarchical multi address the global
// id space: /v1/query, /v1/path, /v1/batch and /v1/isochrone all answer
// without an index name, including across tiles, and the answers match the
// index's own global routing.
func TestLODGlobalIDRouting(t *testing.T) {
	sh := lodWorld(t)
	ts := httptest.NewServer(New(sh).Handler())
	defer ts.Close()

	gs, gt := crossGlobalPair(t, sh)
	want, err := sh.Query(gs, gt)
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Distance float64 `json:"distance"`
		Kind     string  `json:"kind"`
	}
	url := fmt.Sprintf("/v1/query?s=%d&t=%d", gs, gt)
	if code := get(t, ts, url, &qr); code != 200 {
		t.Fatalf("unnamed global query = %d", code)
	}
	if qr.Distance != want || qr.Kind != "multi" {
		t.Fatalf("global query got %+v, want distance %g kind multi", qr, want)
	}

	var pr struct {
		Properties struct {
			Distance float64 `json:"distance"`
			Vertices int     `json:"vertices"`
		} `json:"properties"`
	}
	if code := get(t, ts, fmt.Sprintf("/v1/path?s=%d&t=%d", gs, gt), &pr); code != 200 {
		t.Fatalf("unnamed global path = %d", code)
	}
	if pr.Properties.Vertices < 2 || pr.Properties.Distance <= 0 {
		t.Fatalf("global path: %+v", pr.Properties)
	}

	var br struct {
		Distances []float64 `json:"distances"`
	}
	body := map[string]interface{}{"pairs": [][2]int32{{gs, gt}, {gt, gs}}}
	if code := post(t, ts, "/v1/batch", body, &br); code != 200 {
		t.Fatalf("unnamed global batch = %d", code)
	}
	if len(br.Distances) != 2 || br.Distances[0] != want {
		t.Fatalf("global batch: %+v, want first %g", br.Distances, want)
	}

	var ir struct {
		Type string `json:"type"`
	}
	if code := get(t, ts, "/v1/isochrone?s=0&d=1e9", &ir); code != 200 {
		t.Fatalf("unnamed global isochrone = %d", code)
	}

	// The routing shows up in the tiles block: cross-tile queries went
	// through portals or the coarse level.
	tiles := tilesBlock(t, ts)
	if tiles["portals"].(float64) <= 0 {
		t.Fatalf("tiles reports no portals: %+v", tiles)
	}
	if int(tiles["levels"].(float64)) != 2 {
		t.Fatalf("tiles levels = %v, want 2", tiles["levels"])
	}
	if tiles["portal_queries"].(float64)+tiles["coarse_queries"].(float64) <= 0 {
		t.Fatalf("no cross-tile routing counted: %+v", tiles)
	}
}

// A coordinate pair straddling two member tiles routes through the multi
// root instead of the source member, and the answer matches the index's own
// cross-tile stitching.
func TestLODCoordinateStitch(t *testing.T) {
	sh := lodWorld(t)
	ts := httptest.NewServer(New(sh).Handler())
	defer ts.Close()

	sx, sy, tx, ty := straddlingPOIs(t, sh)
	want, err := sh.QueryXY(sx, sy, tx, ty)
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Distance float64 `json:"distance"`
	}
	url := fmt.Sprintf("/v1/query?sx=%g&sy=%g&tx=%g&ty=%g", sx, sy, tx, ty)
	if code := get(t, ts, url, &qr); code != 200 {
		t.Fatalf("straddling coordinate query = %d", code)
	}
	if qr.Distance != want {
		t.Fatalf("straddling query = %g, want %g", qr.Distance, want)
	}
	var pr struct {
		Properties struct {
			Vertices int `json:"vertices"`
		} `json:"properties"`
	}
	if code := get(t, ts, fmt.Sprintf("/v1/path?sx=%g&sy=%g&tx=%g&ty=%g", sx, sy, tx, ty), &pr); code != 200 {
		t.Fatalf("straddling coordinate path = %d", code)
	}
	if pr.Properties.Vertices < 2 {
		t.Fatalf("straddling path: %+v", pr.Properties)
	}
}

// On a legacy (flat-grid) multi a straddling coordinate pair has no route:
// the server answers a structured 422 naming both members and counts it in
// /statsz as cross_member_rejections.
func TestLegacyCrossMember422(t *testing.T) {
	sh, _ := shardedWorld(t)
	ts := httptest.NewServer(New(sh).Handler())
	defer ts.Close()

	// Find two member POIs in different tiles.
	ms := sh.Members()
	ps := ms[0].Index.(*core.Oracle).Points()[0]
	pt := ms[1].Index.(*core.Oracle).Points()[0]
	var er struct {
		Error string `json:"error"`
	}
	url := fmt.Sprintf("/v1/query?sx=%g&sy=%g&tx=%g&ty=%g", ps.P.X, ps.P.Y, pt.P.X, pt.P.Y)
	code := get(t, ts, url, &er)
	if code != 422 {
		t.Fatalf("legacy straddling query = %d (%s), want 422", code, er.Error)
	}
	if !strings.Contains(er.Error, ms[0].Name) || !strings.Contains(er.Error, ms[1].Name) {
		t.Fatalf("422 error must name both members, got %q", er.Error)
	}

	var st struct {
		CrossMemberRejections int64 `json:"cross_member_rejections"`
	}
	if code := get(t, ts, "/statsz", &st); code != 200 || st.CrossMemberRejections != 1 {
		t.Fatalf("statsz cross_member_rejections = %d (status %d), want 1", st.CrossMemberRejections, code)
	}
}

// A lazy-loaded hierarchical container under a tiny memory budget serves
// every query correctly while faulting members in and evicting them, the
// churn visible in the /statsz tiles block — and a hot reload swaps in a
// fresh epoch whose resident set starts cold without breaking in-flight
// serving.
func TestLODEvictionUnderBudgetAndReload(t *testing.T) {
	sh := lodWorld(t)
	var buf bytes.Buffer
	if err := sh.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lod.sedx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	load := func() (core.DistanceIndex, []core.Quarantined, error) {
		return LoadIndexOpts(path, false, core.LoadOptions{MemBudget: 1})
	}
	idx, quarantined, err := load()
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 0 {
		t.Fatalf("clean container quarantined %v", quarantined)
	}
	s := NewWithOptions(idx, Options{Loader: load})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gs, gt := crossGlobalPair(t, sh)
	want, err := sh.Query(gs, gt)
	if err != nil {
		t.Fatal(err)
	}
	query := func(stage string) {
		var qr struct {
			Distance float64 `json:"distance"`
		}
		url := fmt.Sprintf("/v1/query?s=%d&t=%d", gs, gt)
		if code := get(t, ts, url, &qr); code != 200 {
			t.Fatalf("%s: global query = %d", stage, code)
		}
		if qr.Distance != want {
			t.Fatalf("%s: lazy answer %g, want %g", stage, qr.Distance, want)
		}
	}
	// Several single-pair rounds: under a 1-byte budget every round must
	// fault members in and evict them again.
	for i := 0; i < 4; i++ {
		query("pre-reload")
	}
	tiles := tilesBlock(t, ts)
	if tiles["budget_bytes"].(float64) != 1 {
		t.Fatalf("budget_bytes = %v, want 1", tiles["budget_bytes"])
	}
	if tiles["faults"].(float64) <= 0 || tiles["evictions"].(float64) <= 0 {
		t.Fatalf("expected fault/eviction churn under a 1-byte budget: %+v", tiles)
	}

	// Hot reload: the fresh epoch loads lazily under the same budget and
	// keeps answering; its resident-set counters start over.
	var rr struct {
		Generation uint64 `json:"generation"`
	}
	if code := post(t, ts, "/admin/reload", map[string]string{}, &rr); code != 200 || rr.Generation != 1 {
		t.Fatalf("reload = %d generation %d", code, rr.Generation)
	}
	query("post-reload")
	fresh := tilesBlock(t, ts)
	if fresh["faults"].(float64) <= 0 {
		t.Fatalf("post-reload epoch never faulted a member: %+v", fresh)
	}
	if fresh["faults"].(float64) >= tiles["faults"].(float64)+tiles["evictions"].(float64) {
		t.Fatalf("post-reload counters did not reset: pre %+v post %+v", tiles, fresh)
	}
}

// faultIndex simulates a multi member whose lazy decode failed: every query
// returns core.ErrMemberFault, which the serving layer maps to 503.
type faultIndex struct{ stubIndex }

func (f *faultIndex) Query(a, b int32) (float64, error) {
	return 0, fmt.Errorf("%w: member \"tile-0-0\": simulated decode failure", core.ErrMemberFault)
}

func (f *faultIndex) QueryBatch(pairs [][2]int32, dst []float64) ([]float64, error) {
	return core.BatchViaQuery(f.Query, pairs, dst)
}

// A sticky member fault surfaces as 503 (the data exists but this process
// cannot decode it), not as a client error.
func TestMemberFault503(t *testing.T) {
	ts := httptest.NewServer(New(&faultIndex{}).Handler())
	defer ts.Close()
	var er struct {
		Error string `json:"error"`
	}
	if code := get(t, ts, "/v1/query?s=0&t=1", &er); code != 503 {
		t.Fatalf("member-fault query = %d (%s), want 503", code, er.Error)
	}
	if !strings.Contains(er.Error, "tile-0-0") {
		t.Fatalf("fault error must name the member, got %q", er.Error)
	}
}

// Every unnamed coordinate pair on a LOD container routes through the multi
// root, so a pair whose endpoints share a fine tile is answered (by the
// coarse level) instead of 400 from the SE tile, which answers no point
// queries. Over HTTP, in eager, budgeted and mmap loads, every answer is 200
// and equals ShardedIndex.QueryXY / QueryPathXY bit for bit.
func TestLODCoordinatePairsMatchCore(t *testing.T) {
	m, err := gen.Fractal(gen.FractalSpec{NX: 11, NY: 11, CellDX: 10, Amp: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pois, err := gen.UniformPOIs(m, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := core.BuildShardedLOD(geodesic.NewExact(m), m, gen.Dedup(pois, 1e-9), 4, core.LODOptions{
		Options: core.Options{Epsilon: 0.25, Seed: 3}, Levels: 2, SitesPerEdge: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lod.sedx")
	var buf bytes.Buffer
	if err := sh.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	pairs := [][4]float64{
		{10, 10, 20, 15}, {12.5, 31, 40, 7}, // same tile
		{60, 60, 90, 75}, {55.25, 88, 97, 52}, // same tile
		{10, 10, 90, 90}, {45, 20, 55, 20}, {20, 80, 80, 20}, // straddling
	}
	same := 0
	for _, p := range pairs {
		ms, _ := sh.Locate(p[0], p[1])
		mt, _ := sh.Locate(p[2], p[3])
		if ms.Name == mt.Name {
			same++
		}
	}
	if same < 4 {
		t.Fatalf("only %d of the pairs share a tile, want 4", same)
	}

	for _, mode := range []struct {
		name string
		mmap bool
		opt  core.LoadOptions
	}{{"eager", false, core.LoadOptions{}}, {"budgeted", false, core.LoadOptions{MemBudget: 1}}, {"mmap", true, core.LoadOptions{}}} {
		idx, _, err := LoadIndexOpts(path, mode.mmap, mode.opt)
		if err != nil {
			t.Fatalf("%s: load: %v", mode.name, err)
		}
		ts := httptest.NewServer(New(idx).Handler())
		for _, p := range pairs {
			q := fmt.Sprintf("sx=%g&sy=%g&tx=%g&ty=%g", p[0], p[1], p[2], p[3])
			want, err := sh.QueryXY(p[0], p[1], p[2], p[3])
			if err != nil {
				t.Fatalf("%s %s: core QueryXY: %v", mode.name, q, err)
			}
			var qr struct {
				Distance float64 `json:"distance"`
				Error    string  `json:"error"`
			}
			if code := get(t, ts, "/v1/query?"+q, &qr); code != 200 || qr.Distance != want {
				t.Errorf("%s /v1/query?%s = %d %+v, want 200 distance %v", mode.name, q, code, qr, want)
			}
			_, wantPD, err := sh.QueryPathXY(p[0], p[1], p[2], p[3])
			if err != nil {
				t.Fatalf("%s %s: core QueryPathXY: %v", mode.name, q, err)
			}
			var pr struct {
				Properties struct {
					Distance float64 `json:"distance"`
				} `json:"properties"`
				Error string `json:"error"`
			}
			if code := get(t, ts, "/v1/path?"+q, &pr); code != 200 || pr.Properties.Distance != wantPD {
				t.Errorf("%s /v1/path?%s = %d %+v, want 200 distance %v", mode.name, q, code, pr, wantPD)
			}
		}
		ts.Close()
		if c, ok := idx.(interface{ Close() error }); ok {
			c.Close()
		}
	}

	// On a multi with no coarse level, a same-tile coordinate pair has no
	// member that answers points: a 4xx from core's error, never a 5xx.
	plain, err := core.BuildShardedSE(geodesic.NewExact(m), m, gen.Dedup(pois, 1e-9), 4, core.Options{Epsilon: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(plain).Handler())
	defer ts.Close()
	for _, ep := range []string{"/v1/query", "/v1/path"} {
		var er struct {
			Error string `json:"error"`
		}
		if code := get(t, ts, ep+"?sx=10&sy=10&tx=20&ty=15", &er); code < 400 || code >= 500 {
			t.Errorf("non-LOD multi same-tile %s = %d (%q), want 4xx", ep, code, er.Error)
		}
	}
}
