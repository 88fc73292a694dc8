package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// flatTileWorld builds the hierarchical fixture the flat-tile tests share and
// its two encodings: the flat-tile container EncodeTo writes and the se-tile
// container of the legacy writer. One Steiner site per edge keeps the coarse
// member small: a 1-byte budget re-decodes it on every coarse query.
func flatTileWorld(t *testing.T) (w *testWorld, sh *ShardedIndex, flat, legacy []byte) {
	t.Helper()
	w = newTestWorld(t, 9, 18, 2001)
	opt := lodOpt(0.25, 2002)
	opt.SitesPerEdge = 1
	sh = buildLOD(t, w, 4, opt)
	return w, sh, encodeIndex(t, sh), encodeLegacy(t, sh)
}

// A flat-tile container, a legacy se-tile container and the built index
// answer every global-id pair and a grid of coordinate pairs bit for bit,
// loaded eagerly and under a 1-byte budget. The pairs cover the same-tile,
// portal and coarse routes.
func TestFlatTileParity(t *testing.T) {
	w, sh, flat, legacy := flatTileWorld(t)
	loaded := map[string]*ShardedIndex{}
	for name, img := range map[string][]byte{"flat": flat, "legacy": legacy} {
		for mode, opt := range map[string]LoadOptions{"eager": {}, "budget": {MemBudget: 1}} {
			idx, _, err := LoadBytesOpts(img, nil, opt)
			if err != nil {
				t.Fatalf("%s %s load: %v", name, mode, err)
			}
			loaded[name+"/"+mode] = idx.(*ShardedIndex)
		}
	}
	same := func(what string, want float64, wantErr error, got float64, err error) {
		t.Helper()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: error %v, built index says %v", what, err, wantErr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %v (%#x), built index says %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	n := int32(sh.NumGlobalIDs())
	for s := int32(0); s < n; s++ {
		for q := int32(0); q < n; q++ {
			want, wantErr := sh.Query(s, q)
			for name, l := range loaded {
				got, err := l.Query(s, q)
				same(name+" Query", want, wantErr, got, err)
			}
		}
	}
	for i := 0; i < len(w.pois); i += 2 {
		for j := 1; j < len(w.pois); j += 3 {
			a, b := w.pois[i].P, w.pois[j].P
			want, wantErr := sh.QueryXY(a.X, a.Y, b.X, b.Y)
			for name, l := range loaded {
				got, err := l.QueryXY(a.X, a.Y, b.X, b.Y)
				same(name+" QueryXY", want, wantErr, got, err)
			}
		}
	}
	for name, l := range map[string]*ShardedIndex{"built": sh, "flat/eager": loaded["flat/eager"], "legacy/budget": loaded["legacy/budget"]} {
		if ts, _ := l.TileStats(); ts.PortalQueries == 0 || ts.CoarseQueries == 0 {
			t.Errorf("%s: portal %d and coarse %d queries; the pairs must cover both routes", name, ts.PortalQueries, ts.CoarseQueries)
		}
	}
}

// Under the serving benchmark's budget — every built member but the smallest
// tile — a flat-tile container faults each member at most once and never
// evicts: a flat tile is charged only its struct and point table. The
// se-tile container of the same index, toured the same way, does evict.
func TestFlatTilesFaultOnceUnderBudget(t *testing.T) {
	_, sh, flat, legacy := flatTileWorld(t)
	var total int64
	smallest := int64(math.MaxInt64)
	for _, m := range sh.Members() {
		b := m.Index.MemoryBytes()
		total += b
		if _, tile := m.Index.(*Oracle); tile {
			smallest = min(smallest, b)
		}
	}
	budget := total - smallest
	// tour visits each tile in turn: its same-tile pairs, then one pair to
	// the next tile and one to the farthest (portal and coarse routes).
	tour := func(l *ShardedIndex) {
		t.Helper()
		n := int32(l.NumGlobalIDs())
		for round := 0; round < 2; round++ {
			for s := int32(0); s < n; s++ {
				for _, q := range []int32{s, (s + 1) % n, (s + 2) % n, n - 1 - s} {
					if _, err := l.Query(s, q); err != nil {
						t.Fatalf("Query(%d,%d): %v", s, q, err)
					}
				}
			}
		}
	}
	for name, img := range map[string][]byte{"flat": flat, "legacy": legacy} {
		idx, _, err := LoadBytesOpts(img, nil, LoadOptions{MemBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		l := idx.(*ShardedIndex)
		tour(l)
		ts, _ := l.TileStats()
		switch name {
		case "flat":
			if ts.Evictions != 0 || ts.Faults > int64(l.NumMembers()) {
				t.Errorf("flat tiles under a %d-byte budget: %d faults, %d evictions for %d members",
					budget, ts.Faults, ts.Evictions, l.NumMembers())
			}
		case "legacy":
			if ts.Evictions == 0 {
				t.Errorf("se tiles under a %d-byte budget evicted nothing (%d faults); the tour does not stress the budget", budget, ts.Faults)
			}
		}
	}
}

// A flipped byte inside a flat tile's slot slab (the distances a query reads
// in place) fails the member's CRC at the fault: every touch returns
// ErrMemberFault, and the failed fault admits nothing.
func TestFlatTileSlabFlipIsStickyFault(t *testing.T) {
	_, sh, flat, _ := flatTileWorld(t)
	data := append([]byte(nil), flat...)
	_, secs, err := sliceContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	_, inner, err := sliceContainer(secs[secMemberBase])
	if err != nil {
		t.Fatal(err)
	}
	body := inner[secFlat]
	if body == nil {
		t.Fatal("member 0 is not a flat tile")
	}
	flipped := false
	for i := 0; i < int(binary.LittleEndian.Uint32(body[flatHeaderOff+40:])); i++ {
		ent := body[flatDirOff+i*flatDirEntryLen:]
		if binary.LittleEndian.Uint32(ent) == flatSlabSlots {
			off, length := binary.LittleEndian.Uint64(ent[8:]), binary.LittleEndian.Uint64(ent[16:])
			body[off+length/2] ^= 0x01
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("flat tile has no slot slab")
	}
	idx, _, err := LoadBytesOpts(data, nil, LoadOptions{MemBudget: 1})
	if err != nil {
		t.Fatalf("a budgeted load must defer member damage to the fault: %v", err)
	}
	l := idx.(*ShardedIndex)
	bad, _, _ := sh.MemberOf(0)
	if bad != l.ordName[0] {
		t.Fatalf("global id 0 lives in %s, not member 0", bad)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.Query(0, 1); !errors.Is(err, ErrMemberFault) {
			t.Fatalf("touch %d: want ErrMemberFault, got %v", i, err)
		}
	}
	if ts, _ := l.TileStats(); ts.Faults != 0 {
		t.Fatalf("a failed fault was admitted: %d faults", ts.Faults)
	}
}

// An unfaulted flat member reports ε, points, pairs and height from its flat
// header, so a budgeted load's Stats match the eager load's before anything
// faults in. A member whose header fails its CRC reports none of them and
// faults as before.
func TestLazyFlatMemberStatsFromHeader(t *testing.T) {
	_, _, flat, _ := flatTileWorld(t)
	eager, _, err := LoadBytesOpts(flat, nil, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lazy, _, err := LoadBytesOpts(flat, nil, LoadOptions{MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := lazy.(*ShardedIndex)
	for i, m := range l.Members() {
		want := eager.(*ShardedIndex).Members()[i].Index.Stats()
		if want.Kind != KindFlat {
			continue
		}
		got := m.Index.Stats()
		if got.Kind != want.Kind || got.Epsilon != want.Epsilon || got.Points != want.Points ||
			got.Pairs != want.Pairs || got.Height != want.Height {
			t.Errorf("unfaulted %s reports %+v, eager load %+v", m.Name, got, want)
		}
	}
	if st := l.Stats(); st.Epsilon != eager.Stats().Epsilon || st.Epsilon == 0 {
		t.Errorf("budgeted load reports eps %g, eager %g", st.Epsilon, eager.Stats().Epsilon)
	}
	if ts, _ := l.TileStats(); ts.Faults != 0 {
		t.Fatalf("reading stats faulted %d members in", ts.Faults)
	}

	damaged, ok := flipSection(t, flat, secMemberBase, secFlat, flatHeaderOff+8)
	if !ok {
		t.Fatal("member 0 has no flat body")
	}
	idx, _, err := LoadBytesOpts(damaged, nil, LoadOptions{MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := idx.(*ShardedIndex).Members()[0]
	if st := m.Index.Stats(); st.Epsilon != 0 || st.Pairs != 0 || st.Height != 0 {
		t.Errorf("member with a bad header CRC reports %+v", st)
	}
	if _, err := m.Index.Query(0, 1); !errors.Is(err, ErrMemberFault) {
		t.Errorf("member with a bad header CRC: want ErrMemberFault, got %v", err)
	}
}

// A budgeted load charges a flat tile the heap it grows to, not just its
// struct: once a nearest query has inflated a tile's point slab, its charge
// still covers its heap, and so does the resident set's total. The same
// holds for the flat-body coarse member after point, path and nearest
// queries have run through it.
func TestFlatTileChargeCoversInflatedPoints(t *testing.T) {
	w, _, flat, _ := flatTileWorld(t)
	idx, _, err := LoadBytesOpts(flat, nil, LoadOptions{MemBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	l := idx.(*ShardedIndex)
	var heap int64
	tiles := 0
	for _, m := range l.Members() {
		lm := lazyOf(m.Index)
		if lm.kind == KindFlat {
			if _, _, _, err := lm.Nearest(0, 0); err != nil {
				t.Fatalf("%s: Nearest: %v", m.Name, err)
			}
			tiles++
		} else if pi, ok := m.Index.(PointPathIndex); ok {
			a, b := w.pois[0].P, w.pois[len(w.pois)-1].P
			if _, _, err := pi.QueryPathXY(a.X, a.Y, b.X, b.Y); err != nil {
				t.Fatalf("%s: QueryPathXY: %v", m.Name, err)
			}
			if _, err := m.Index.(NearestKFinder).NearestK(a.X, a.Y, 3); err != nil {
				t.Fatalf("%s: NearestK: %v", m.Name, err)
			}
			checkFlatSite(t, m.Name, lm.cur.Load().idx, flat)
		} else if _, err := lm.get(); err != nil {
			t.Fatalf("%s: fault: %v", m.Name, err)
		}
		e := lm.cur.Load()
		got := e.idx.MemoryBytes()
		if lm.kind == KindFlat && got <= flatStructBytes {
			t.Fatalf("%s: Nearest inflated no points (MemoryBytes %d)", m.Name, got)
		}
		if e.bytes < got {
			t.Errorf("%s (kind %s): charged %d bytes, holds %d", m.Name, lm.kind, e.bytes, got)
		}
		heap += got
	}
	if tiles == 0 {
		t.Fatal("no flat tiles")
	}
	if res, charged := l.rs.residency(); res != l.NumMembers() || charged < heap {
		t.Errorf("%d of %d members resident, charged %d bytes for %d of heap", res, l.NumMembers(), charged, heap)
	}
}
