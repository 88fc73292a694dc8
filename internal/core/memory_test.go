package core

import "testing"

// A built oracle and the same oracle loaded back must report the same
// MemoryBytes: a multi container's memory budget is sized from the built
// members, and a budgeted load charges the faulted ones. Covers se, a2a and
// every member of a 2-level LOD build, loaded eagerly and faulted under a
// budget, from the legacy container (se tiles, se-body coarse member). The
// flat container loads members read in place: a flat tile charges only its
// struct, a flat-body site oracle its engine struct, site table, face-site
// lists and mesh (flatSiteBytes).
func TestMemoryBytesBuiltMatchesLoaded(t *testing.T) {
	w := newTestWorld(t, 13, 40, 5101)
	se := w.build(t, Options{Epsilon: 0.25, Seed: 5102})
	so, err := BuildSiteOracle(w.eng, w.mesh, SiteOptions{Options: Options{Epsilon: 0.3, Seed: 5103}})
	if err != nil {
		t.Fatal(err)
	}
	legacyA2A, err := encodeLegacyA2A(so)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		img  []byte
		want int64
	}{
		{"se", encodeIndex(t, se), se.MemoryBytes()},
		{"a2a-se", legacyA2A, so.MemoryBytes()},
		{"a2a", encodeIndex(t, so), flatSiteBytes(so)},
	} {
		if got := loadIndex(t, c.img).MemoryBytes(); got != c.want {
			t.Errorf("%s: loaded MemoryBytes %d, want %d", c.name, got, c.want)
		}
	}

	lod := buildLOD(t, w, 4, lodOpt(0.3, 5104))
	builtMembers := lod.Members()
	for _, layout := range []struct {
		name string
		img  []byte
		// want is what a loaded member must charge for built member b.
		want func(b DistanceIndex) int64
	}{
		{"legacy", encodeLegacy(t, lod), DistanceIndex.MemoryBytes},
		{"flat", encodeIndex(t, lod), func(b DistanceIndex) int64 {
			switch v := b.(type) {
			case *Oracle:
				return flatStructBytes
			case *SiteOracle:
				return flatSiteBytes(v)
			}
			return b.MemoryBytes()
		}},
	} {
		eager, _, err := LoadBytesOpts(layout.img, nil, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lazy, _, err := LoadBytesOpts(layout.img, nil, LoadOptions{MemBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		for mode, idx := range map[string]DistanceIndex{"eager": eager, "budgeted": lazy} {
			members := idx.(*ShardedIndex).Members()
			if len(members) != len(builtMembers) {
				t.Fatalf("%s %s: %d members, built %d", layout.name, mode, len(members), len(builtMembers))
			}
			for i, m := range members {
				got := m.Index
				if lm := lazyOf(got); lm != nil {
					if got, err = lm.get(); err != nil {
						t.Fatalf("%s %s member %q: fault: %v", layout.name, mode, m.Name, err)
					}
				}
				if g, want := got.MemoryBytes(), layout.want(builtMembers[i].Index); g != want {
					t.Errorf("%s %s member %q: loaded MemoryBytes %d, built %d", layout.name, mode, m.Name, g, want)
				}
			}
		}
	}
}

// flatSiteBytes is what built site oracle so reports once loaded from its
// flat-body container: its face-site lists (what it reports beyond its
// inner oracle), the engine struct, the inflated site table and the decoded
// mesh with its locator and engine.
func flatSiteBytes(so *SiteOracle) int64 {
	faceSites := so.MemoryBytes() - so.Inner().MemoryBytes()
	return faceSites + flatStructBytes + int64(so.NumSites())*pointRecordSize + siteGeometryBytes(so.mesh)
}
