package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"seoracle/internal/terrain"
)

// buildLOD builds a 2-level hierarchical index over the test world with a
// dense portal fence (cross-tile parity needs small portal spacing).
func buildLOD(t *testing.T, w *testWorld, shards int, opt LODOptions) *ShardedIndex {
	t.Helper()
	sh, err := BuildShardedLOD(w.eng, w.mesh, w.pois, shards, opt)
	if err != nil {
		t.Fatalf("BuildShardedLOD: %v", err)
	}
	return sh
}

// lodOpt is the test suite's standard hierarchical build configuration.
func lodOpt(eps float64, seed int64) LODOptions {
	return LODOptions{Options: Options{Epsilon: eps, Seed: seed}, Levels: 2, PortalsPerEdge: 12}
}

// globalToPOI maps every global id back to its index in the original POI set
// (the builder never perturbs coordinates).
func globalToPOI(t *testing.T, sh *ShardedIndex, w *testWorld) []int {
	t.Helper()
	out := make([]int, sh.NumGlobalIDs())
	for g := range out {
		name, local, ok := sh.MemberOf(int32(g))
		if !ok {
			t.Fatalf("MemberOf(%d) failed", g)
		}
		m, ok := sh.Member(name)
		if !ok {
			t.Fatalf("member %q missing", name)
		}
		p, err := surfacePointOf(m.Index, local)
		if err != nil {
			t.Fatalf("surfacePointOf(%s, %d): %v", name, local, err)
		}
		out[g] = poiIndexOf(t, w.pois, p)
	}
	return out
}

// maxPortalSpacing returns the widest on-edge gap between adjacent portals of
// the plan — the additive detour bound of portal stitching.
func maxPortalSpacing(sh *ShardedIndex, per int) float64 {
	spacing := 0.0
	for _, m := range sh.members {
		w := math.Max(m.BBox.MaxX-m.BBox.MinX, m.BBox.MaxY-m.BBox.MinY)
		if s := w / float64(per+1); s > spacing {
			spacing = s
		}
	}
	return spacing
}

func TestLODBuildShape(t *testing.T) {
	w := newTestWorld(t, 11, 30, 41)
	sh := buildLOD(t, w, 4, lodOpt(0.2, 42))
	if !sh.SupportsGlobal() {
		t.Fatal("hierarchical index must support global ids")
	}
	if got := sh.NumGlobalIDs(); got != len(w.pois) {
		t.Fatalf("global id space %d, want %d (the real POIs)", got, len(w.pois))
	}
	var fine, coarse int
	for i := range sh.members {
		if sh.hier.levels[sh.ord[i]] == 0 {
			fine++
		} else {
			coarse++
		}
	}
	if fine < 2 || coarse != 1 {
		t.Fatalf("want >= 2 fine tiles and exactly 1 coarse member, got %d/%d", fine, coarse)
	}
	if _, ok := sh.Member("coarse-1"); !ok {
		t.Fatal("coarse member coarse-1 missing")
	}
	if len(sh.hier.portals) == 0 {
		t.Fatal("adjacent tiles produced no portal links")
	}
	ts, ok := sh.TileStats()
	if !ok {
		t.Fatal("TileStats must report on a hierarchical index")
	}
	if ts.Levels != 2 || ts.Portals != len(sh.hier.portals) || ts.Members != sh.NumMembers() {
		t.Fatalf("TileStats %+v inconsistent with the hierarchy", ts)
	}
	// Global id round trip through both direction maps.
	for g := 0; g < sh.NumGlobalIDs(); g++ {
		name, local, ok := sh.MemberOf(int32(g))
		if !ok {
			t.Fatalf("MemberOf(%d) failed", g)
		}
		back, ok := sh.GlobalID(name, local)
		if !ok || back != int32(g) {
			t.Fatalf("GlobalID(%s, %d) = %d, %v; want %d", name, local, back, ok, g)
		}
	}
	// Portal ids must sit outside the global id space.
	for _, m := range sh.members {
		if sh.hier.levels[sh.ord[sh.byName[m.Name]]] != 0 {
			continue
		}
		if _, ok := sh.GlobalID(m.Name, int32(sh.hier.npois[sh.ord[sh.byName[m.Name]]])); ok {
			t.Fatalf("member %s: portal local id mapped to a global id", m.Name)
		}
	}
}

// TestLODCrossTileParity is the acceptance parity suite: every global pair —
// same-tile, portal-stitched and coarse-routed alike — answers within the ε
// band of the exact geodesic distance, up to the portal fence's additive
// detour. The lower bound is the paper's (1-ε) guarantee, which stitching
// preserves exactly (both legs are real distances).
func TestLODCrossTileParity(t *testing.T) {
	w := newTestWorld(t, 11, 30, 43)
	eps := 0.2
	opt := lodOpt(eps, 44)
	sh := buildLOD(t, w, 4, opt)
	if cross := checkLODParity(t, sh, w, eps, 4*maxPortalSpacing(sh, opt.PortalsPerEdge)); cross == 0 {
		t.Fatal("parity suite exercised no cross-tile pairs")
	}
	ts, _ := sh.TileStats()
	if ts.PortalQueries == 0 || ts.CoarseQueries == 0 {
		t.Fatalf("want both routing paths exercised, got portal=%d coarse=%d", ts.PortalQueries, ts.CoarseQueries)
	}
}

// checkLODParity queries every global pair of sh and checks it against the
// world's exact distances: never below (1-eps)·exact, never above
// (1+eps)·exact plus the portal slack. It returns the cross-tile pair count.
func checkLODParity(t *testing.T, sh *ShardedIndex, w *testWorld, eps, slack float64) (cross int) {
	t.Helper()
	g2p := globalToPOI(t, sh, w)
	for s := 0; s < sh.NumGlobalIDs(); s++ {
		for tt := 0; tt < sh.NumGlobalIDs(); tt++ {
			d, err := sh.Query(int32(s), int32(tt))
			if err != nil {
				t.Fatalf("Query(%d,%d): %v", s, tt, err)
			}
			exact := w.exact[g2p[s]][g2p[tt]]
			if d < (1-eps)*exact-1e-9 {
				t.Fatalf("Query(%d,%d) = %g below the (1-eps) bound of exact %g", s, tt, d, exact)
			}
			if d > (1+eps)*exact+slack {
				t.Fatalf("Query(%d,%d) = %g beyond (1+eps)*%g + %g portal slack", s, tt, d, exact, slack)
			}
			ms, _, _ := sh.MemberOf(int32(s))
			mt, _, _ := sh.MemberOf(int32(tt))
			if ms != mt {
				cross++
			}
		}
	}
	return cross
}

// Cross-tile paths: same bounds as Query, plus structural checks — reported
// length matches the polyline, endpoints sit at the queried POIs.
func TestLODCrossTilePath(t *testing.T) {
	w := newTestWorld(t, 11, 24, 45)
	eps := 0.2
	opt := lodOpt(eps, 46)
	sh := buildLOD(t, w, 4, opt)
	g2p := globalToPOI(t, sh, w)
	slack := 4 * maxPortalSpacing(sh, opt.PortalsPerEdge)
	cross := 0
	for s := 0; s < sh.NumGlobalIDs(); s++ {
		for tt := s + 1; tt < sh.NumGlobalIDs(); tt++ {
			path, d, err := sh.QueryPath(int32(s), int32(tt))
			if err != nil {
				t.Fatalf("QueryPath(%d,%d): %v", s, tt, err)
			}
			if len(path) < 2 {
				t.Fatalf("QueryPath(%d,%d): %d-point path", s, tt, len(path))
			}
			if got := segLength(path); math.Abs(got-d) > 1e-6*(1+d) {
				t.Fatalf("QueryPath(%d,%d): polyline %g != reported %g", s, tt, got, d)
			}
			exact := w.exact[g2p[s]][g2p[tt]]
			if d < (1-eps)*exact-1e-9 || d > (1+eps)*exact+slack {
				t.Fatalf("QueryPath(%d,%d) length %g outside bounds of exact %g", s, tt, d, exact)
			}
			ms, _, _ := sh.MemberOf(int32(s))
			mt, _, _ := sh.MemberOf(int32(tt))
			if ms != mt {
				cross++
			}
		}
	}
	if cross == 0 {
		t.Fatal("path suite exercised no cross-tile pairs")
	}
}

// The batch-shaped workloads route through the same global Query, so a
// cross-tile fleet matrix, nearest-k and isochrone all work on a
// hierarchical index where a legacy multi errors.
func TestLODWorkloadsCrossTile(t *testing.T) {
	w := newTestWorld(t, 11, 20, 47)
	sh := buildLOD(t, w, 4, lodOpt(0.25, 48))
	n := sh.NumGlobalIDs()
	srcs := []int32{0, int32(n / 2)}
	dsts := []int32{int32(n - 1), int32(n / 3), 1}
	mat, err := sh.QueryMatrix(srcs, dsts, nil)
	if err != nil {
		t.Fatalf("QueryMatrix: %v", err)
	}
	for i, s := range srcs {
		for j, d := range dsts {
			want, err := sh.Query(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if mat[i*len(dsts)+j] != want {
				t.Fatalf("matrix[%d,%d] = %g, Query = %g", i, j, mat[i*len(dsts)+j], want)
			}
		}
	}
	reached, err := sh.Reachable(0, 1e12)
	if err != nil {
		t.Fatalf("Reachable: %v", err)
	}
	if len(reached) != n {
		t.Fatalf("Reachable covered %d of %d global ids", len(reached), n)
	}
	// Nearest answers must be real POIs, never synthetic portals.
	for _, p := range w.pois[:5] {
		m, id, at, _, err := sh.NearestAcross(p.P.X, p.P.Y)
		if err != nil {
			t.Fatalf("NearestAcross: %v", err)
		}
		if _, ok := sh.GlobalID(m.Name, id); !ok {
			t.Fatalf("NearestAcross returned non-global id %d in %s", id, m.Name)
		}
		if at.P != p.P {
			t.Fatalf("NearestAcross at a POI returned %v, want %v", at.P, p.P)
		}
		ns, err := sh.NearestKAcross(p.P.X, p.P.Y, 5)
		if err != nil {
			t.Fatalf("NearestKAcross: %v", err)
		}
		for _, nb := range ns {
			if _, ok := sh.GlobalID(nb.Member, nb.ID); !ok {
				t.Fatalf("NearestKAcross leaked portal id %d in %s", nb.ID, nb.Member)
			}
		}
	}
}

// Builds must be deterministic across worker counts, and the streaming
// writer must be byte-identical to the resident build + encode.
func TestLODDeterministicEncode(t *testing.T) {
	w := newTestWorld(t, 11, 26, 49)
	opt := lodOpt(0.25, 50)
	var resident []byte
	for _, workers := range []int{1, 2, 3, 8} {
		optW := opt
		optW.Workers = workers
		var buf bytes.Buffer
		if err := buildLOD(t, w, 4, optW).EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			resident = buf.Bytes()
		} else if !bytes.Equal(resident, buf.Bytes()) {
			t.Fatalf("Workers=%d vs Workers=1 containers differ", workers)
		}
	}

	var streamed bytes.Buffer
	sum, err := WriteSharded(&streamed, w.eng, w.mesh, w.pois, 4, opt)
	if err != nil {
		t.Fatalf("WriteSharded: %v", err)
	}
	if !bytes.Equal(resident, streamed.Bytes()) {
		t.Fatal("streamed container differs from the resident EncodeTo")
	}
	if sum.Points != len(w.pois) || sum.CoarseTiles != 1 || sum.Portals == 0 {
		t.Fatalf("summary %+v inconsistent", sum)
	}

	// The plain (non-hierarchical) streaming path must equal BuildShardedSE.
	var plainResident, plainStream bytes.Buffer
	plain := buildSharded(t, w, 4, opt.Options)
	if err := plain.EncodeTo(&plainResident); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSharded(&plainStream, w.eng, w.mesh, w.pois, 4, LODOptions{Options: opt.Options}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainResident.Bytes(), plainStream.Bytes()) {
		t.Fatal("plain streamed container differs from BuildShardedSE + EncodeTo")
	}
}

// EncodeTo → LoadBytesOpts (eager and lazy) must answer identically to the built
// index and re-encode byte-identically; a lazy re-encode must not fault
// anything in.
func TestLODRoundTrip(t *testing.T) {
	w := newTestWorld(t, 11, 24, 51)
	opt := lodOpt(0.25, 52)
	sh := buildLOD(t, w, 4, opt)
	var img bytes.Buffer
	if err := sh.EncodeTo(&img); err != nil {
		t.Fatal(err)
	}

	eager, _, err := LoadBytesOpts(img.Bytes(), nil, LoadOptions{})
	if err != nil {
		t.Fatalf("LoadBytesOpts: %v", err)
	}
	lazyIdx, _, err := LoadBytesOpts(img.Bytes(), nil, LoadOptions{MemBudget: 1 << 30})
	if err != nil {
		t.Fatalf("LoadBytesOpts: %v", err)
	}
	lsh := lazyIdx.(*ShardedIndex)

	var reEager, reLazy bytes.Buffer
	if err := eager.EncodeTo(&reEager); err != nil {
		t.Fatal(err)
	}
	if err := lsh.EncodeTo(&reLazy); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Bytes(), reEager.Bytes()) {
		t.Fatal("eager round trip not byte-identical")
	}
	if !bytes.Equal(img.Bytes(), reLazy.Bytes()) {
		t.Fatal("lazy round trip not byte-identical")
	}
	if ts, _ := lsh.TileStats(); ts.Faults != 0 {
		t.Fatalf("lazy re-encode faulted %d members in", ts.Faults)
	}

	for s := 0; s < sh.NumGlobalIDs(); s++ {
		for tt := 0; tt < sh.NumGlobalIDs(); tt += 3 {
			want, err := sh.Query(int32(s), int32(tt))
			if err != nil {
				t.Fatal(err)
			}
			for name, idx := range map[string]DistanceIndex{"eager": eager, "lazy": lsh} {
				got, err := idx.Query(int32(s), int32(tt))
				if err != nil {
					t.Fatalf("%s Query(%d,%d): %v", name, s, tt, err)
				}
				if got != want {
					t.Fatalf("%s Query(%d,%d) = %g, built index says %g", name, s, tt, got, want)
				}
			}
		}
	}
	if ts, _ := lsh.TileStats(); ts.Faults == 0 {
		t.Fatal("queries faulted nothing in")
	}
}

// A budget smaller than one decoded tile must still serve every query
// (the faulting member is never its own victim) while evicting members.
func TestLODEvictionUnderBudget(t *testing.T) {
	w := newTestWorld(t, 11, 24, 53)
	sh := buildLOD(t, w, 4, lodOpt(0.25, 54))
	var img bytes.Buffer
	if err := sh.EncodeTo(&img); err != nil {
		t.Fatal(err)
	}
	lazyIdx, _, err := LoadBytesOpts(img.Bytes(), nil, LoadOptions{MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	lsh := lazyIdx.(*ShardedIndex)
	for s := 0; s < sh.NumGlobalIDs(); s++ {
		tt := (s + 7) % sh.NumGlobalIDs()
		want, err := sh.Query(int32(s), int32(tt))
		if err != nil {
			t.Fatal(err)
		}
		got, err := lsh.Query(int32(s), int32(tt))
		if err != nil {
			t.Fatalf("budgeted Query(%d,%d): %v", s, tt, err)
		}
		if got != want {
			t.Fatalf("budgeted Query(%d,%d) = %g, want %g", s, tt, got, want)
		}
	}
	ts, _ := lsh.TileStats()
	if ts.Evictions == 0 {
		t.Fatalf("1-byte budget evicted nothing: %+v", ts)
	}
	if ts.Faults <= ts.Evictions {
		t.Fatalf("faults %d must exceed evictions %d", ts.Faults, ts.Evictions)
	}
	// After the last query completes, at most the final faulting chain stays
	// admitted; the budget caps steady-state residency at one member's bytes
	// beyond the (1-byte) budget.
	res, bytes := lsh.rs.residency()
	if res > 2 {
		t.Fatalf("%d members resident under a 1-byte budget (%d bytes)", res, bytes)
	}
}

// The race-mode soak of the concurrency protocol: goroutines hammer global
// queries (faulting members in) while the 1-byte budget forces constant
// eviction. Run under -race this proves no torn reads. It soaks both tile
// layouts: the flat tiles EncodeTo writes and the se tiles of the legacy
// writer, whose faults decode and attach the shared mesh concurrently.
func TestLODEvictionSoak(t *testing.T) {
	w := newTestWorld(t, 11, 20, 55)
	sh := buildLOD(t, w, 4, lodOpt(0.3, 56))
	n := int32(sh.NumGlobalIDs())

	// Reference answers from the immutable built index.
	want := make([]float64, n*n)
	for s := int32(0); s < n; s++ {
		for tt := int32(0); tt < n; tt++ {
			d, err := sh.Query(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			want[s*n+tt] = d
		}
	}

	for _, layout := range []struct {
		name string
		img  []byte
	}{{"flat-tile", encodeIndex(t, sh)}, {"se-tile", encodeLegacy(t, sh)}} {
		lazyIdx, _, err := LoadBytesOpts(layout.img, nil, LoadOptions{MemBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		lsh := lazyIdx.(*ShardedIndex)
		const goroutines = 8
		var wg sync.WaitGroup
		errCh := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 150; i++ {
					s, tt := int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))
					d, err := lsh.Query(s, tt)
					if err != nil {
						errCh <- err
						return
					}
					if d != want[s*n+tt] {
						errCh <- errors.New("soak answer diverged from the eager reference")
						return
					}
				}
			}(int64(g) * 7919)
		}
		wg.Wait()
		close(errCh)
		if err := <-errCh; err != nil {
			t.Fatalf("%s: %v", layout.name, err)
		}
		ts, _ := lsh.TileStats()
		if ts.Evictions == 0 {
			t.Fatalf("%s: soak forced no evictions", layout.name)
		}
	}
}

// Legacy multis keep their exact semantics: member-local ids, and straddling
// coordinate queries fail with the structured CrossMemberError.
func TestLegacyCrossMemberError(t *testing.T) {
	w := newTestWorld(t, 11, 24, 57)
	sh := buildSharded(t, w, 4, Options{Epsilon: 0.25, Seed: 58})
	if sh.SupportsGlobal() || sh.NumGlobalIDs() != 0 {
		t.Fatal("legacy multi must not claim a global id space")
	}
	// Find two POIs in different members.
	var a, b terrain.SurfacePoint
	found := false
	for _, p := range w.pois {
		for _, q := range w.pois {
			mp, _ := sh.Locate(p.P.X, p.P.Y)
			mq, _ := sh.Locate(q.P.X, q.P.Y)
			if mp.Name != mq.Name {
				a, b, found = p, q, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no straddling POI pair")
	}
	_, err := sh.QueryXY(a.P.X, a.P.Y, b.P.X, b.P.Y)
	var cme *CrossMemberError
	if !errors.As(err, &cme) {
		t.Fatalf("want CrossMemberError, got %v", err)
	}
	if cme.SMember == "" || cme.TMember == "" || cme.SMember == cme.TMember {
		t.Fatalf("CrossMemberError names bogus members: %+v", cme)
	}
	if _, _, err := sh.QueryPathXY(a.P.X, a.P.Y, b.P.X, b.P.Y); !errors.As(err, &cme) {
		t.Fatalf("path form: want CrossMemberError, got %v", err)
	}
}

// On a hierarchical index the same straddling coordinate query routes to the
// coarse member instead of failing.
func TestLODCoordinateCrossTile(t *testing.T) {
	w := newTestWorld(t, 11, 24, 59)
	eps := 0.25
	sh := buildLOD(t, w, 4, lodOpt(eps, 60))
	var a, b terrain.SurfacePoint
	found := false
	for _, p := range w.pois {
		for _, q := range w.pois {
			mp, _ := sh.Locate(p.P.X, p.P.Y)
			mq, _ := sh.Locate(q.P.X, q.P.Y)
			if mp.Name != mq.Name && sh.hier.levels[sh.ord[sh.byName[mp.Name]]] == 0 &&
				sh.hier.levels[sh.ord[sh.byName[mq.Name]]] == 0 {
				a, b, found = p, q, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no straddling POI pair")
	}
	d, err := sh.QueryXY(a.P.X, a.P.Y, b.P.X, b.P.Y)
	if err != nil {
		t.Fatalf("QueryXY across tiles: %v", err)
	}
	ia, ib := poiIndexOf(t, w.pois, a), poiIndexOf(t, w.pois, b)
	exact := w.exact[ia][ib]
	// The coarse A2A route has the site oracle's own error model; allow its
	// additive site-spacing term on top of the ε band.
	if d < (1-eps)*exact-1e-9 || d > (1+eps)*exact+2*maxPortalSpacing(sh, 0) {
		t.Fatalf("coarse-routed QueryXY = %g, exact %g", d, exact)
	}
	if path, pd, err := sh.QueryPathXY(a.P.X, a.P.Y, b.P.X, b.P.Y); err != nil {
		t.Fatalf("QueryPathXY across tiles: %v", err)
	} else if len(path) < 2 || math.Abs(segLength(path)-pd) > 1e-6*(1+pd) {
		t.Fatalf("coarse path inconsistent: %d points, %g vs %g", len(path), segLength(path), pd)
	}
	ts, _ := sh.TileStats()
	if ts.CoarseQueries == 0 {
		t.Fatal("coordinate cross-tile query did not use the coarse route")
	}
}

// A damaged member of a hierarchical container quarantines under a tolerant
// load; global ids owned by it fail naming the member, other ids still
// answer, and re-encode refuses (it would renumber the id space).
func TestLODDegradedLoad(t *testing.T) {
	w := newTestWorld(t, 11, 24, 61)
	sh := buildLOD(t, w, 4, lodOpt(0.25, 62))
	var img bytes.Buffer
	if err := sh.EncodeTo(&img); err != nil {
		t.Fatal(err)
	}
	// Find a fine member's section and flip a payload byte deep inside it.
	data := append([]byte(nil), img.Bytes()...)
	_, secs, err := sliceContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	victim := secs[secMemberBase+0]
	victim[len(victim)/2] ^= 0xff

	idx, quarantined, err := LoadBytesOpts(data, nil, LoadOptions{Tolerant: true})
	if err != nil {
		t.Fatalf("tolerant LoadBytesOpts: %v", err)
	}
	if len(quarantined) != 1 {
		t.Fatalf("want 1 quarantined member, got %d", len(quarantined))
	}
	dsh := idx.(*ShardedIndex)
	badName := quarantined[0].Name
	// Ids of the quarantined member fail with its name; others answer.
	sawBad, sawGood := false, false
	for g := 0; g < sh.NumGlobalIDs(); g++ {
		name, _, _ := sh.MemberOf(int32(g))
		_, err := dsh.Query(int32(g), int32(g))
		if name == badName {
			if err == nil {
				t.Fatalf("id %d of quarantined %s answered", g, badName)
			}
			sawBad = true
		} else {
			if err != nil {
				t.Fatalf("id %d of healthy %s failed: %v", g, name, err)
			}
			sawGood = true
		}
	}
	if !sawBad || !sawGood {
		t.Fatal("degraded load did not exercise both sides")
	}
	if err := dsh.EncodeTo(&bytes.Buffer{}); err == nil {
		t.Fatal("degraded hierarchical index must refuse to re-encode")
	}
}

// Hierarchy/portal damage must be a load-time error in every mode — strict,
// tolerant and lazy — never a panic and never a quarantine (the hierarchy is
// shared state like the manifest: without it there is no trustworthy global
// id space to degrade to).
func TestHierarchyDecodeRejectsDamage(t *testing.T) {
	w := newTestWorld(t, 11, 20, 65)
	sh := buildLOD(t, w, 4, lodOpt(0.3, 66))
	var img bytes.Buffer
	if err := sh.EncodeTo(&img); err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(secs map[uint32][]byte){
		"self parent": func(secs map[uint32][]byte) {
			binary.LittleEndian.PutUint32(secs[secHierarchy][8+2:], 0)
		},
		"orphan child": func(secs map[uint32][]byte) {
			binary.LittleEndian.PutUint32(secs[secHierarchy][8+2:], 99)
		},
		"level beyond max": func(secs map[uint32][]byte) {
			binary.LittleEndian.PutUint16(secs[secHierarchy][8:], maxLODLevels+1)
		},
		"coarse member with POIs": func(secs map[uint32][]byte) {
			n := len(sh.members)
			binary.LittleEndian.PutUint64(secs[secHierarchy][8+(n-1)*14+6:], 5)
		},
		"portal count lie": func(secs map[uint32][]byte) {
			binary.LittleEndian.PutUint64(secs[secPortals][0:], 1<<19)
		},
		"portal id mismatch": func(secs map[uint32][]byte) {
			s := secs[secPortals]
			binary.LittleEndian.PutUint32(s[8+8:], binary.LittleEndian.Uint32(s[8+8:])+1)
		},
		"portal order flip": func(secs map[uint32][]byte) {
			s := secs[secPortals]
			nlinks := int(binary.LittleEndian.Uint64(s[0:]))
			a := binary.LittleEndian.Uint32(s[8:])
			last := 8 + (nlinks-1)*16
			binary.LittleEndian.PutUint32(s[8:], binary.LittleEndian.Uint32(s[last:]))
			binary.LittleEndian.PutUint32(s[last:], a)
		},
	}
	for name, mut := range mutations {
		data := append([]byte(nil), img.Bytes()...)
		_, secs, err := sliceContainer(data)
		if err != nil {
			t.Fatal(err)
		}
		mut(secs)
		if _, _, err := LoadBytesOpts(data, nil, LoadOptions{}); err == nil {
			t.Errorf("%s: strict load accepted damaged hierarchy", name)
		}
		if _, q, err := LoadBytesOpts(data, nil, LoadOptions{Tolerant: true}); err == nil || len(q) != 0 {
			t.Errorf("%s: tolerant load must fail outright (err=%v, %d quarantined)", name, err, len(q))
		}
		if _, _, err := LoadBytesOpts(data, nil, LoadOptions{MemBudget: 1 << 20}); err == nil {
			t.Errorf("%s: lazy load accepted damaged hierarchy", name)
		}
	}
}

// Sticky member faults surface as ErrMemberFault (the serving layer's 503)
// under a lazy load with a corrupt member body.
func TestLODLazyFaultSticky(t *testing.T) {
	w := newTestWorld(t, 11, 24, 63)
	sh := buildLOD(t, w, 4, lodOpt(0.25, 64))
	var img bytes.Buffer
	if err := sh.EncodeTo(&img); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), img.Bytes()...)
	_, secs, err := sliceContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	victim := secs[secMemberBase+0]
	victim[len(victim)/2] ^= 0xff

	lazyIdx, quarantined, err := LoadBytesOpts(data, nil, LoadOptions{MemBudget: 1 << 30})
	if err != nil {
		t.Fatalf("lazy load of a corrupt member must defer the failure: %v", err)
	}
	if len(quarantined) != 0 {
		t.Fatal("lazy load must not quarantine before first touch")
	}
	lsh := lazyIdx.(*ShardedIndex)
	badName := lsh.ordName[0]
	var g int32 = -1
	for i := 0; i < lsh.NumGlobalIDs(); i++ {
		if name, _, _ := lsh.MemberOf(int32(i)); name == badName {
			g = int32(i)
			break
		}
	}
	if g < 0 {
		t.Fatalf("no global id lands in %s", badName)
	}
	for i := 0; i < 2; i++ { // sticky: same error twice, one fault count
		_, err = lsh.Query(g, g)
		if !errors.Is(err, ErrMemberFault) {
			t.Fatalf("want ErrMemberFault, got %v", err)
		}
	}
	ts, _ := lsh.TileStats()
	if ts.Faults != 0 {
		t.Fatalf("failed faults must not count as admissions, got %d", ts.Faults)
	}
}
