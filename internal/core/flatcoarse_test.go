package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// sharesImage reports whether slab b is a slice of the image img (their
// backing arrays end at the same byte), i.e. it is read in place, not
// copied.
func sharesImage(b, img []byte) bool {
	return len(b) > 0 && &b[:cap(b)][cap(b)-1] == &img[:cap(img)][cap(img)-1]
}

// checkFlatSite fails unless idx is a site oracle loaded from a flat body:
// no inner *Oracle (no se body decoded, no hash laid out) and hot slabs that
// alias img.
func checkFlatSite(t *testing.T, what string, idx DistanceIndex, img []byte) *SiteOracle {
	t.Helper()
	so, ok := idx.(*SiteOracle)
	if !ok {
		t.Fatalf("%s: loaded %T, want *SiteOracle", what, idx)
	}
	if so.Inner() != nil {
		t.Fatalf("%s: decoded an inner se oracle", what)
	}
	for name, slab := range map[string][]byte{"leaf": so.q.leaf, "paths": so.q.paths, "nodes": so.q.nodes, "disp": so.q.disp, "slots": so.q.slots} {
		if !sharesImage(slab, img) {
			t.Fatalf("%s: %s slab is a heap copy, not a slice of the image", what, name)
		}
	}
	return so
}

// Loading a flat-body a2a container runs no decodeBody and no
// perfecthash.BuildCompact: the inner engine slices its hot slabs from the
// image, and the load allocates a fraction of what the legacy se-body load
// of the same oracle does. The coarse member of a LOD container loads the
// same way at its lazy fault.
func TestFlatSiteOracleLoadsInPlace(t *testing.T) {
	w := newTestWorld(t, 9, 18, 2001)
	so, err := BuildSiteOracle(w.eng, w.mesh, SiteOptions{Options: Options{Epsilon: 0.3, Seed: 2003}, SitesPerEdge: 1})
	if err != nil {
		t.Fatal(err)
	}
	flat := encodeIndex(t, so)
	legacy, err := encodeLegacyA2A(so)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(img []byte) (DistanceIndex, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		idx, _, err := LoadBytesOpts(img, nil, LoadOptions{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return idx, after.TotalAlloc - before.TotalAlloc
	}
	idx, flatAlloc := allocs(flat)
	checkFlatSite(t, "a2a container", idx, flat)
	_, legacyAlloc := allocs(legacy)
	if flatAlloc*4 > legacyAlloc {
		t.Errorf("flat-body load allocated %d bytes, legacy load %d: want under a quarter", flatAlloc, legacyAlloc)
	}

	_, _, lod, _ := flatTileWorld(t)
	lidx, _, err := LoadBytesOpts(lod, nil, LoadOptions{MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	coarse := 0
	for _, m := range lidx.(*ShardedIndex).Members() {
		if lm := lazyOf(m.Index); lm.kind == KindA2A {
			body, err := lm.get()
			if err != nil {
				t.Fatal(err)
			}
			checkFlatSite(t, m.Name, body, lod)
			coarse++
		}
	}
	if coarse == 0 {
		t.Fatal("LOD fixture has no coarse member")
	}
}

// The tiled-budget serving fixture (11×11 steep terrain, 80 POIs, nine
// tiles, one coarse level at one site per edge, ε = 0.25) answers bit for
// bit across the built index, the flat container loaded eagerly and under a
// 1-byte budget, and the legacy container loaded eagerly (under a budget it
// re-decodes the coarse member at every coarse query; TestFlatTileParity
// covers that mode on a smaller fixture): every site pair of the coarse
// member, every global-id pair, a seeded set of coordinate queries and
// paths, and an id matrix.
func TestFlatCoarseParityTiledBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the coarse route's exact SSADs take minutes under -race; TestFlatTileParity covers the same paths")
	}
	w := newSteepWorld(t, 11, 80, 1701, 1705)
	sh := buildLOD(t, w, 9, LODOptions{Options: Options{Epsilon: 0.25, Seed: 1}, Levels: 2, SitesPerEdge: 1})
	flat, legacy := encodeIndex(t, sh), encodeLegacy(t, sh)
	loaded := map[string]*ShardedIndex{}
	for name, c := range map[string]struct {
		img []byte
		opt LoadOptions
	}{"flat/eager": {flat, LoadOptions{}}, "flat/budget": {flat, LoadOptions{MemBudget: 1}}, "legacy/eager": {legacy, LoadOptions{}}} {
		idx, _, err := LoadBytesOpts(c.img, nil, c.opt)
		if err != nil {
			t.Fatalf("%s load: %v", name, err)
		}
		loaded[name] = idx.(*ShardedIndex)
	}
	same := func(what string, want, got any) {
		t.Helper()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: loaded index answers %v, built %v", what, got, want)
		}
	}
	bits := func(d float64, err error) any {
		if err != nil {
			return "error"
		}
		return math.Float64bits(d)
	}

	coarseOf := func(l *ShardedIndex) *SiteOracle {
		for _, m := range l.Members() {
			idx := m.Index
			if lm := lazyOf(idx); lm != nil {
				var err error
				if idx, err = lm.get(); err != nil {
					t.Fatal(err)
				}
			}
			if so, ok := idx.(*SiteOracle); ok {
				return so
			}
		}
		t.Fatal("no coarse member")
		return nil
	}
	built := coarseOf(sh)
	sites := int32(built.NumSites())
	for name, l := range loaded {
		so := coarseOf(l)
		for p := int32(0); p < sites; p++ {
			for q := int32(0); q < sites; q++ {
				if want, got := bits(built.Query(p, q)), bits(so.Query(p, q)); want != got {
					t.Fatalf("%s coarse member Query(%d,%d) = %v, built %v", name, p, q, got, want)
				}
			}
		}
	}

	n := int32(sh.NumGlobalIDs())
	before, _ := sh.TileStats()
	for s := int32(0); s < n; s++ {
		for q := int32(0); q < n; q++ {
			want := bits(sh.Query(s, q))
			for name, l := range loaded {
				same(name+" Query", want, bits(l.Query(s, q)))
			}
		}
	}
	if after, _ := sh.TileStats(); after.CoarseQueries == before.CoarseQueries {
		t.Fatal("no global-id pair took the coarse route")
	}
	before, _ = sh.TileStats()
	minX, minY, maxX, maxY := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
	for _, v := range w.mesh.Verts {
		minX, maxX = math.Min(minX, v.X), math.Max(maxX, v.X)
		minY, maxY = math.Min(minY, v.Y), math.Max(maxY, v.Y)
	}
	rng := rand.New(rand.NewSource(7))
	xy := func() (float64, float64) {
		return minX + rng.Float64()*(maxX-minX), minY + rng.Float64()*(maxY-minY)
	}
	for i := 0; i < 16; i++ {
		sx, sy := xy()
		tx, ty := xy()
		want := bits(sh.QueryXY(sx, sy, tx, ty))
		wantPath, wantLen, wantErr := sh.QueryPathXY(sx, sy, tx, ty)
		for name, l := range loaded {
			same(name+" QueryXY", want, bits(l.QueryXY(sx, sy, tx, ty)))
			path, length, err := l.QueryPathXY(sx, sy, tx, ty)
			same(name+" QueryPathXY", []any{wantPath, bits(wantLen, wantErr)}, []any{path, bits(length, err)})
		}
	}
	if after, _ := sh.TileStats(); after.CoarseQueries == before.CoarseQueries {
		t.Error("no coordinate query took the coarse route")
	}
	ids := make([]int32, 8)
	for i := range ids {
		ids[i] = int32(rng.Intn(int(n)))
	}
	want, wantErr := sh.QueryMatrix(ids, ids, nil)
	for name, l := range loaded {
		got, err := l.QueryMatrix(ids, ids, nil)
		same(name+" QueryMatrix", []any{want, wantErr == nil}, []any{got, err == nil})
	}
}
