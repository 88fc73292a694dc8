package core

import "testing"

// A built oracle and the same oracle loaded back must report the same
// MemoryBytes: a multi container's memory budget is sized from the built
// members, and a budgeted load charges the faulted ones. Covers se, a2a and
// every member of a 2-level LOD build, loaded eagerly and faulted under a
// budget, from the legacy se-tile container. The flat-tile container loads
// the same coarse member; its tiles charge only what a flat oracle read in
// place charges.
func TestMemoryBytesBuiltMatchesLoaded(t *testing.T) {
	w := newTestWorld(t, 13, 40, 5101)
	se := w.build(t, Options{Epsilon: 0.25, Seed: 5102})
	so, err := BuildSiteOracle(w.eng, w.mesh, SiteOptions{Options: Options{Epsilon: 0.3, Seed: 5103}})
	if err != nil {
		t.Fatal(err)
	}
	for name, built := range map[string]DistanceIndex{"se": se, "a2a": so} {
		if got, want := loadIndex(t, encodeIndex(t, built)).MemoryBytes(), built.MemoryBytes(); got != want {
			t.Errorf("%s: loaded MemoryBytes %d, built %d", name, got, want)
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
		{"se-tile", encodeLegacy(t, lod), DistanceIndex.MemoryBytes},
		{"flat-tile", encodeIndex(t, lod), func(b DistanceIndex) int64 {
			if _, tile := b.(*Oracle); tile {
				return flatStructBytes
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
