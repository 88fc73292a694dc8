package seoracle

import (
	"bytes"
	"math"
	"testing"

	"seoracle/internal/gen"
)

func testTerrain(t *testing.T, seed int64) *Terrain {
	t.Helper()
	mesh, err := GenerateFractalTerrain(FractalSpec{NX: 15, NY: 15, CellDX: 10, Amp: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return mesh
}

// End-to-end through the public API: generate, build, query, verify against
// the exact engine, serialize and reload.
func TestPublicAPIEndToEnd(t *testing.T) {
	mesh := testTerrain(t, 71)
	pois, err := SampleUniformPOIs(mesh, 25, 72)
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.15
	oracle, err := Build(mesh, pois, Options{Epsilon: eps, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	exact := ExactDistances(mesh, pois[0], pois)
	for i := 1; i < len(pois); i++ {
		got, err := oracle.Query(0, int32(i))
		if err != nil {
			t.Fatal(err)
		}
		if re := math.Abs(got-exact[i]) / exact[i]; re > eps {
			t.Errorf("POI %d: error %v above eps", i, re)
		}
	}

	var buf bytes.Buffer
	if err := oracle.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	idx, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded, ok := idx.(*Oracle)
	if !ok {
		t.Fatalf("Load returned %T, want *Oracle", idx)
	}
	for i := 1; i < len(pois); i++ {
		a, _ := oracle.Query(0, int32(i))
		b, _ := loaded.Query(0, int32(i))
		if a != b {
			t.Fatalf("reloaded oracle differs at POI %d", i)
		}
	}
}

// The public container surface: every engine kind serializes with EncodeTo
// and comes back through Load as the right concrete type behind the
// DistanceIndex interface.
func TestPublicAPIContainerRoundTrip(t *testing.T) {
	mesh := testTerrain(t, 91)
	pois, err := SampleUniformPOIs(mesh, 12, 92)
	if err != nil {
		t.Fatal(err)
	}
	se, err := Build(mesh, pois, Options{Epsilon: 0.2, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := BuildDynamic(mesh, pois, Options{Epsilon: 0.2, Seed: 94})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []DistanceIndex{se, dyn} {
		var buf bytes.Buffer
		if err := idx.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.Stats().Kind != idx.Stats().Kind {
			t.Fatalf("kind changed: %s -> %s", idx.Stats().Kind, back.Stats().Kind)
		}
		a, err1 := idx.Query(0, 1)
		b, err2 := back.Query(0, 1)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("%s: %v/%v vs %v/%v", idx.Stats().Kind, a, err1, b, err2)
		}
	}
	if _, ok := interface{}(se).(DistanceIndex); !ok {
		t.Fatal("Oracle does not satisfy DistanceIndex")
	}
}

// V2V mode: every vertex is a POI (§5.2.2).
func TestPublicAPIV2V(t *testing.T) {
	mesh := testTerrain(t, 74)
	pois := VertexPOIs(mesh)
	if len(pois) != mesh.NumVerts() {
		t.Fatalf("vertex POIs: %d, want %d", len(pois), mesh.NumVerts())
	}
	oracle, err := Build(mesh, pois, Options{Epsilon: 0.25, Seed: 75})
	if err != nil {
		t.Fatal(err)
	}
	d, err := oracle.Query(0, int32(mesh.NumVerts()-1))
	if err != nil {
		t.Fatal(err)
	}
	want := ExactDistance(mesh, pois[0], pois[mesh.NumVerts()-1])
	if re := math.Abs(d-want) / want; re > 0.25 {
		t.Errorf("V2V corner query error %v", re)
	}
}

func TestPublicAPIA2A(t *testing.T) {
	mesh := testTerrain(t, 76)
	a2a, err := BuildA2A(mesh, Options{Epsilon: 0.25, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	s := mesh.FacePoint(3, 0.2, 0.5, 0.3)
	d := mesh.FacePoint(int32(mesh.NumFaces()-4), 0.6, 0.2, 0.2)
	got, err := a2a.QueryPoints(s, d)
	if err != nil {
		t.Fatal(err)
	}
	want := ExactDistance(mesh, s, d)
	if re := math.Abs(got-want) / want; re > 0.25 {
		t.Errorf("A2A error %v", re)
	}
}

func TestPublicAPITerrainIO(t *testing.T) {
	mesh := testTerrain(t, 78)
	var buf bytes.Buffer
	if err := WriteTerrainOFF(&buf, mesh); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTerrainOFF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVerts() != mesh.NumVerts() {
		t.Error("terrain roundtrip changed vertex count")
	}
}

func TestPublicAPIGridTerrain(t *testing.T) {
	mesh, err := GenerateGridTerrain(4, 4, 1, 1, make([]float64, 16))
	if err != nil {
		t.Fatal(err)
	}
	if mesh.NumFaces() != 18 {
		t.Errorf("grid faces = %d", mesh.NumFaces())
	}
	v := mesh.Verts
	mesh2, err := NewTerrain(v, mesh.Faces)
	if err != nil {
		t.Fatal(err)
	}
	if mesh2.NumEdges() != mesh.NumEdges() {
		t.Error("NewTerrain changed topology")
	}
}

// The clustered generator feeds the greedy strategy through the public API
// path used in the README.
func TestPublicAPIClusteredGreedy(t *testing.T) {
	mesh := testTerrain(t, 79)
	pois, err := gen.ClusteredPOIs(mesh, 30, 3, 0.05, 80)
	if err != nil {
		t.Fatal(err)
	}
	pois = gen.Dedup(pois, 1e-9)
	oracle, err := Build(mesh, pois, Options{Epsilon: 0.2, Selection: SelectGreedy, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// The PR 6 workload exports: one oracle answers matrices, k-nearest and
// isochrones through the root package, consistently with scalar Query.
func TestPublicAPIWorkloads(t *testing.T) {
	mesh := testTerrain(t, 91)
	pois, err := SampleUniformPOIs(mesh, 20, 92)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Build(mesh, pois, Options{Epsilon: 0.2, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	var mi MatrixIndex = oracle
	sources, targets := []int32{0, 1}, []int32{2, 3, 4}
	cells, err := mi.QueryMatrix(sources, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		for j, tgt := range targets {
			want, err := oracle.Query(s, tgt)
			if err != nil {
				t.Fatal(err)
			}
			if cells[i*len(targets)+j] != want {
				t.Errorf("matrix cell (%d,%d) disagrees with Query", i, j)
			}
		}
	}

	var nk NearestKFinder = oracle
	ns, err := nk.NearestK(pois[5].P.X, pois[5].P.Y, 1)
	if err != nil {
		t.Fatal(err)
	}
	id, _, _, err := oracle.Nearest(pois[5].P.X, pois[5].P.Y)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || ns[0].ID != id {
		t.Errorf("NearestK(1) = %v, Nearest says id %d", ns, id)
	}

	var ri Reachability = oracle
	far, err := oracle.Query(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	reached, err := ri.Reachable(0, far)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	pts := make([]SurfacePoint, len(reached))
	for i, rc := range reached {
		if rc.ID == 10 {
			found = true
		}
		pts[i] = rc.At
	}
	if !found {
		t.Errorf("Reachable(0, d(0,10)) misses POI 10")
	}
	if hull := PlanarHull(pts); len(reached) >= 3 && len(hull) < 1 {
		t.Errorf("PlanarHull empty over %d reached points", len(reached))
	}
}
