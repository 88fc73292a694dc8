package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

func newDynamicWorld(t *testing.T) (*DynamicOracle, *testWorld) {
	t.Helper()
	w := newTestWorld(t, 11, 20, 101)
	d, err := NewDynamicOracle(w.eng, w.mesh, w.pois, Options{Epsilon: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return d, w
}

func TestDynamicMatchesStatic(t *testing.T) {
	d, w := newDynamicWorld(t)
	static := w.build(t, Options{Epsilon: 0.2, Seed: 5})
	for s := range w.pois {
		for tt := range w.pois {
			a, err1 := d.Query(int32(s), int32(tt))
			b, err2 := static.Query(int32(s), int32(tt))
			if err1 != nil || err2 != nil {
				t.Fatalf("(%d,%d): %v %v", s, tt, err1, err2)
			}
			if a != b {
				t.Fatalf("(%d,%d): dynamic %v vs static %v", s, tt, a, b)
			}
		}
	}
}

func TestDynamicInsertExact(t *testing.T) {
	d, w := newDynamicWorld(t)
	// Insert a handful of new POIs; queries touching them must be EXACT
	// (the overflow rows store true SSAD distances).
	pts, err := gen.UniformPOIs(w.mesh, 30, 202)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int32
	for i := 0; i < 3; i++ {
		id, err := d.Insert(pts[i])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, ok := d.overflow[id]; !ok {
			continue // a rebuild folded it in; covered by the eps check below
		}
		for tt := 0; tt < len(w.pois); tt++ {
			got, err := d.Query(id, int32(tt))
			if err != nil {
				t.Fatal(err)
			}
			want := w.eng.DistancesTo(d.pois[id], []terrain.SurfacePoint{w.pois[tt]},
				geodesic.Stop{CoverTargets: true})[0]
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("overflow query (%d,%d): %v vs exact %v", id, tt, got, want)
			}
		}
	}
}

func TestDynamicChurnStaysWithinEpsilon(t *testing.T) {
	d, w := newDynamicWorld(t)
	eps := d.Epsilon()
	rng := rand.New(rand.NewSource(203))
	extra, err := gen.UniformPOIs(w.mesh, 40, 204)
	if err != nil {
		t.Fatal(err)
	}
	var live []int32
	for i := range w.pois {
		live = append(live, int32(i))
	}
	// Interleave inserts and deletes, forcing several rebuilds.
	for op := 0; op < 30; op++ {
		if op%3 != 0 && len(extra) > 0 {
			p := extra[0]
			extra = extra[1:]
			id, err := d.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		} else if len(live) > 5 {
			k := rng.Intn(len(live))
			if err := d.Delete(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}
	}
	if d.Rebuilds() < 2 {
		t.Errorf("expected churn to trigger rebuilds, got %d", d.Rebuilds())
	}
	if d.Live() != len(live) {
		t.Fatalf("live count %d, want %d", d.Live(), len(live))
	}
	// Every pair of live POIs answers within eps of the exact distance.
	for trial := 0; trial < 40; trial++ {
		s := live[rng.Intn(len(live))]
		tt := live[rng.Intn(len(live))]
		got, err := d.Query(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		want := w.eng.DistancesTo(d.pois[s], []terrain.SurfacePoint{d.pois[tt]},
			geodesic.Stop{CoverTargets: true})[0]
		if s == tt {
			if got != 0 {
				t.Fatalf("self query %v", got)
			}
			continue
		}
		if re := math.Abs(got-want) / want; re > eps*(1+1e-9) {
			t.Fatalf("churned (%d,%d): err %v above eps", s, tt, re)
		}
	}
}

func TestDynamicDeleteErrors(t *testing.T) {
	d, _ := newDynamicWorld(t)
	if err := d.Delete(-1); err == nil {
		t.Error("negative id deleted")
	}
	if err := d.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(0); err == nil {
		t.Error("double delete allowed")
	}
	if _, err := d.Query(0, 1); err == nil {
		t.Error("query against deleted POI allowed")
	}
}

// TestDynamicNearestSkipsTombstones: Nearest must never return a deleted
// POI — on the live oracle, and on an oracle that went through
// Delete → EncodeTo → Load (the serving path: /v1/nearest against a
// container-loaded dynamic index).
func TestDynamicNearestSkipsTombstones(t *testing.T) {
	d, _ := newDynamicWorld(t)
	// Query exactly at POI 4's projection: it must win while live.
	x, y := d.pois[4].P.X, d.pois[4].P.Y
	id, _, planar, err := d.Nearest(x, y)
	if err != nil || id != 4 || planar != 0 {
		t.Fatalf("live Nearest = %d/%g/%v, want POI 4 at 0", id, planar, err)
	}
	if err := d.Delete(4); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, d *DynamicOracle) {
		t.Helper()
		id, _, _, err := d.Nearest(x, y)
		if err != nil {
			t.Fatalf("%s: Nearest: %v", stage, err)
		}
		if id == 4 {
			t.Fatalf("%s: Nearest returned the tombstoned POI 4", stage)
		}
		if d.deleted[id] {
			t.Fatalf("%s: Nearest returned deleted POI %d", stage, id)
		}
	}
	check("after delete", d)

	var buf bytes.Buffer
	if err := d.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	idx, _, err := Load(&buf, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d2 := idx.(*DynamicOracle)
	if got := d2.Stats().Tombstones; got != 1 {
		t.Fatalf("loaded oracle reports %d tombstones, want 1", got)
	}
	check("after encode/load round trip", d2)
}

// TestBatchErrorsCarryPairIndex: every QueryBatch implementation wraps a
// failing pair's error with its index, so bulk callers (the /v1/batch
// endpoint) can tell which pair was bad.
func TestBatchErrorsCarryPairIndex(t *testing.T) {
	d, w := newDynamicWorld(t)
	o := w.build(t, Options{Epsilon: 0.2, Seed: 5})
	bad := [][2]int32{{0, 1}, {0, 30000}}
	for name, idx := range map[string]DistanceIndex{"se": o, "dynamic": d} {
		if _, err := idx.QueryBatch(bad, nil); err == nil || !strings.Contains(err.Error(), "pair 1") {
			t.Errorf("%s: QueryBatch error %v does not name pair 1", name, err)
		}
	}
}

func TestDynamicMemoryAccounting(t *testing.T) {
	d, w := newDynamicWorld(t)
	before := d.MemoryBytes()
	if before <= 0 {
		t.Fatal("non-positive memory")
	}
	pts, err := gen.UniformPOIs(w.mesh, 1, 205)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(pts[0]); err != nil {
		t.Fatal(err)
	}
	if d.MemoryBytes() <= before {
		t.Error("insert did not grow the accounted memory")
	}
}
