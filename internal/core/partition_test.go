package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
	"seoracle/internal/geom"
	"seoracle/internal/steiner"
	"seoracle/internal/terrain"
)

// buildTreeForTest constructs the original partition tree over a fresh
// world, returning everything needed to verify the §3.2 properties.
func buildTreeForTest(t *testing.T, sel Selection, seed int64) (*ptree, []terrain.SurfacePoint, *geodesic.Exact) {
	t.Helper()
	m, err := gen.Fractal(gen.FractalSpec{NX: 11, NY: 11, CellDX: 10, Amp: 25, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pois, err := gen.UniformPOIs(m, 25, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	pois = gen.Dedup(pois, 1e-9)
	eng := geodesic.NewExact(m)
	var calls atomic.Int64
	tr, err := buildPartitionTree(&countingEngine{Engine: eng, calls: &calls}, pois, sel, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr, pois, eng
}

// pairwise computes exact distances between all POIs.
func pairwise(eng *geodesic.Exact, pois []terrain.SurfacePoint) [][]float64 {
	d := make([][]float64, len(pois))
	for i := range pois {
		d[i] = eng.DistancesTo(pois[i], pois, geodesic.Stop{CoverTargets: true})
	}
	return d
}

// buildPartitionTreePerNode is the reference for buildPartitionTree: the
// direct reading of §3.2, one radius-bounded SSAD per tree node below the
// root, targeting the remaining POIs and the previous layer's centers.
// buildPartitionTree must build the same tree, bit for bit, from one SSAD
// per distinct center.
func buildPartitionTreePerNode(eng geodesic.Engine, pois []terrain.SurfacePoint, sel Selection, seed int64) (*ptree, error) {
	n := len(pois)
	if n == 0 {
		return nil, fmt.Errorf("core: no POIs")
	}
	rng := rand.New(rand.NewSource(seed))
	t := &ptree{leaf: make([]int32, n)}

	// Step 1: root node. One SSAD from a random POI until every POI is
	// covered gives the root radius r0.
	rootCenter := int32(rng.Intn(n))
	d := eng.DistancesTo(pois[rootCenter], pois, geodesic.Stop{CoverTargets: true})
	r0 := 0.0
	for i, x := range d {
		if math.IsInf(x, 1) {
			return nil, fmt.Errorf("core: POI %d unreachable from POI %d (disconnected surface?)", i, rootCenter)
		}
		r0 = math.Max(r0, x)
	}
	t.r0 = r0
	t.nodes = append(t.nodes, onode{center: rootCenter, layer: 0, parent: -1, radius: r0})
	t.layers = append(t.layers, []int32{0})

	if n == 1 {
		// The root is also the leaf layer.
		t.leaf[rootCenter] = 0
		t.height = 0
		return t, nil
	}

	// coveredBy[q] is the previous-layer node whose disk removed POI q; at
	// layer 1 that is the root, whose disk covers every POI.
	coveredBy := make([]int32, n)
	nextCoveredBy := make([]int32, n)

	// Step 2: non-root layers.
	for layer := int32(1); ; layer++ {
		if layer >= maxLayers {
			return nil, fmt.Errorf("core: partition tree exceeded %d layers; are POIs deduplicated?", maxLayers)
		}
		ri := r0 / math.Pow(2, float64(layer))
		prev := t.layers[layer-1]
		prevCenterSet := make(map[int32]int32, len(prev)) // POI -> prev node id
		prevCenters := make([]int32, 0, len(prev))
		for _, id := range prev {
			c := t.nodes[id].center
			prevCenterSet[c] = id
			prevCenters = append(prevCenters, c)
		}
		prevPts := make([]terrain.SurfacePoint, len(prevCenters))
		for i, c := range prevCenters {
			prevPts[i] = pois[c]
		}

		rem := newRemaining(n, rng)
		var grid *selectionGrid
		if sel == SelectGreedy {
			grid = newSelectionGrid(pois, ri, rng)
		}
		// Previous-layer centers are consumed first (PC = P' ∩ C).
		pcQueue := append([]int32(nil), prevCenters...)
		rng.Shuffle(len(pcQueue), func(i, j int) { pcQueue[i], pcQueue[j] = pcQueue[j], pcQueue[i] })

		var layerNodes []int32
		for rem.size > 0 {
			var p int32 = -1
			for len(pcQueue) > 0 {
				c := pcQueue[len(pcQueue)-1]
				pcQueue = pcQueue[:len(pcQueue)-1]
				if rem.contains(c) {
					p = c
					break
				}
			}
			if p < 0 {
				if grid != nil {
					p = grid.pick(rem)
				} else {
					p = rem.random()
				}
			}

			// One radius-bounded SSAD covers both needs: POIs within ri
			// (the new disk) and the nearest previous-layer center (the
			// parent; within 2*ri by the Covering Property).
			targets := make([]terrain.SurfacePoint, 0, rem.size+len(prevPts))
			idx := make([]int32, 0, rem.size)
			for _, q := range rem.items() {
				targets = append(targets, pois[q])
				idx = append(idx, q)
			}
			targets = append(targets, prevPts...)
			dist := eng.DistancesTo(pois[p], targets, geodesic.Stop{Radius: 2 * ri * (1 + 1e-12), CoverTargets: false})

			// Parent: minimum-distance previous-layer node.
			bestParent := int32(-1)
			bestD := math.Inf(1)
			for i := range prevCenters {
				if dd := dist[len(idx)+i]; dd < bestD {
					bestD = dd
					bestParent = prevCenterSet[prevCenters[i]]
				}
			}
			if bestParent < 0 {
				// The node whose disk removed p lies within 2*ri of p measured
				// from its own side (the Covering Property), but measured from
				// p's side the engine can put it a few ulps beyond the search
				// radius. It is a valid parent either way.
				bestParent = coveredBy[p]
			}

			id := int32(len(t.nodes))
			t.nodes = append(t.nodes, onode{center: p, layer: layer, parent: bestParent, radius: ri})
			layerNodes = append(layerNodes, id)

			// Remove covered POIs.
			for i, q := range idx {
				if dist[i] <= ri {
					nextCoveredBy[q] = id
					rem.remove(q)
					if grid != nil {
						grid.remove(q)
					}
				}
			}
			if rem.contains(p) {
				// The center always covers itself; guard against numerical
				// surprises in the engine.
				nextCoveredBy[p] = id
				rem.remove(p)
				if grid != nil {
					grid.remove(p)
				}
			}
		}
		t.layers = append(t.layers, layerNodes)
		coveredBy, nextCoveredBy = nextCoveredBy, coveredBy
		if len(layerNodes) == n {
			t.height = layer
			for _, id := range layerNodes {
				t.leaf[t.nodes[id].center] = id
			}
			return t, nil
		}
	}
}

// The per-center tree must equal the per-node reference (centers, parents,
// radii and layers) across terrains, selections, seeds and engines (Exact,
// and Steiner graphs of two densities, the engine's ε knob; the tree itself
// does not read ε), with at most one SSAD per POI plus the root's.
func TestPartitionTreeMatchesPerNodeReference(t *testing.T) {
	fractal, err := gen.Fractal(gen.FractalSpec{NX: 11, NY: 11, CellDX: 10, Amp: 25, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	hills, err := gen.Hills(11, 11, 10, 4, 30, 72)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := gen.Plane(9, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mesh *terrain.Mesh
		pois func(*terrain.Mesh) ([]terrain.SurfacePoint, error)
	}{
		{"fractal", fractal, func(m *terrain.Mesh) ([]terrain.SurfacePoint, error) { return gen.UniformPOIs(m, 40, 73) }},
		{"hills", hills, func(m *terrain.Mesh) ([]terrain.SurfacePoint, error) { return gen.ClusteredPOIs(m, 40, 3, 0.1, 74) }},
		{"plane", plane, func(m *terrain.Mesh) ([]terrain.SurfacePoint, error) { return gen.UniformPOIs(m, 24, 75) }},
	} {
		pois, err := tc.pois(tc.mesh)
		if err != nil {
			t.Fatal(err)
		}
		pois = gen.Dedup(pois, 1e-9)
		engines := []struct {
			name string
			eng  geodesic.Engine
		}{{"exact", geodesic.NewExact(tc.mesh)}}
		for _, per := range []int{1, 3} {
			g, err := steiner.NewGraph(tc.mesh, per)
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, struct {
				name string
				eng  geodesic.Engine
			}{fmt.Sprintf("steiner%d", per), steiner.NewEngine(g)})
		}
		for _, ec := range engines {
			for _, sel := range []Selection{SelectRandom, SelectGreedy} {
				for _, seed := range []int64{76, 77} {
					name := fmt.Sprintf("%s/%s/%s/seed=%d", tc.name, ec.name, sel, seed)
					want, err := buildPartitionTreePerNode(ec.eng, pois, sel, seed)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					var calls atomic.Int64
					got, err := buildPartitionTree(&countingEngine{Engine: ec.eng, calls: &calls}, pois, sel, seed)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: tree differs from the per-node reference", name)
					}
					if n := calls.Load(); n > int64(len(pois))+1 {
						t.Errorf("%s: %d tree SSADs, want at most POIs+1 = %d", name, n, len(pois)+1)
					}
				}
			}
		}
	}
}

// The three §3.2 properties, verified directly on the built tree.
func TestPartitionTreeProperties(t *testing.T) {
	for _, sel := range []Selection{SelectRandom, SelectGreedy} {
		tr, pois, eng := buildTreeForTest(t, sel, 61)
		d := pairwise(eng, pois)

		// Separation: nodes of layer i have radius r0/2^i and pairwise
		// center distance >= r0/2^i.
		for layer, ids := range tr.layers {
			want := tr.r0 / math.Pow(2, float64(layer))
			for _, id := range ids {
				if tr.nodes[id].radius != want {
					t.Fatalf("%v: layer %d node radius %v, want %v", sel, layer, tr.nodes[id].radius, want)
				}
			}
			for i := 0; i < len(ids); i++ {
				for j := i + 1; j < len(ids); j++ {
					ci, cj := tr.nodes[ids[i]].center, tr.nodes[ids[j]].center
					if d[ci][cj] < want*(1-1e-9) {
						t.Fatalf("%v: layer %d separation violated: d=%v < %v", sel, layer, d[ci][cj], want)
					}
				}
			}
		}

		// Covering: every POI lies in some layer-i disk.
		for layer, ids := range tr.layers {
			r := tr.r0 / math.Pow(2, float64(layer))
			for p := range pois {
				covered := false
				for _, id := range ids {
					if d[tr.nodes[id].center][p] <= r*(1+1e-9) {
						covered = true
						break
					}
				}
				if !covered {
					t.Fatalf("%v: POI %d not covered at layer %d", sel, p, layer)
				}
			}
		}

		// Distance: descendants' centers are within 2*radius of ancestors.
		for id := range tr.nodes {
			for anc := tr.nodes[id].parent; anc >= 0; anc = tr.nodes[anc].parent {
				da := d[tr.nodes[anc].center][tr.nodes[id].center]
				if da > 2*tr.nodes[anc].radius*(1+1e-9) {
					t.Fatalf("%v: distance property violated: %v > 2*%v", sel, da, tr.nodes[anc].radius)
				}
			}
		}

		// Bottom layer: one node per POI, centered at it.
		if len(tr.layers[tr.height]) != len(pois) {
			t.Fatalf("%v: leaf layer has %d nodes, want %d", sel, len(tr.layers[tr.height]), len(pois))
		}
		// Centers persist downward: every non-leaf layer's centers appear in
		// the next layer (the property the enhanced-edge resolver needs).
		for layer := 0; layer < int(tr.height); layer++ {
			next := map[int32]bool{}
			for _, id := range tr.layers[layer+1] {
				next[tr.nodes[id].center] = true
			}
			for _, id := range tr.layers[layer] {
				if !next[tr.nodes[id].center] {
					t.Fatalf("%v: center %d of layer %d missing from layer %d",
						sel, tr.nodes[id].center, layer, layer+1)
				}
			}
		}
	}
}

func TestCompressedTreeShape(t *testing.T) {
	tr, pois, _ := buildTreeForTest(t, SelectRandom, 62)
	ct := compress(tr)
	// O(n) bound of Lemma 9: at most 2n-1 nodes.
	if got, limit := ct.numNodes(), 2*len(pois)-1; got > limit {
		t.Errorf("compressed tree has %d nodes, Lemma 9 allows %d", got, limit)
	}
	// Exactly n leaves, radius 0, one per POI.
	leaves := 0
	for id, n := range ct.nodes {
		if len(n.children) == 0 {
			leaves++
			if n.radius != 0 {
				t.Errorf("leaf %d has radius %v", id, n.radius)
			}
		}
		if len(n.children) == 1 && int32(id) != ct.root {
			t.Errorf("node %d kept a single child", id)
		}
	}
	if leaves != len(pois) {
		t.Errorf("%d leaves, want %d", leaves, len(pois))
	}
	for p := range pois {
		leaf := ct.leaf[p]
		if ct.nodes[leaf].center != int32(p) {
			t.Errorf("leaf of POI %d centered at %d", p, ct.nodes[leaf].center)
		}
	}
}

// Lemma 2: h <= log2(dmax/dmin) + 1.
func TestHeightBound(t *testing.T) {
	tr, pois, eng := buildTreeForTest(t, SelectRandom, 63)
	d := pairwise(eng, pois)
	dmin, dmax := math.Inf(1), 0.0
	for i := range pois {
		for j := i + 1; j < len(pois); j++ {
			dmin = math.Min(dmin, d[i][j])
			dmax = math.Max(dmax, d[i][j])
		}
	}
	bound := math.Log2(dmax/dmin) + 1
	if float64(tr.height) > bound+1 { // +1 slack: r0 is measured from a random root
		t.Errorf("height %d exceeds Lemma 2 bound %v", tr.height, bound)
	}
}

// Failure injection: a disconnected surface cannot cover all POIs from one
// root, and construction must fail cleanly rather than loop.
func TestBuildFailsOnDisconnectedSurface(t *testing.T) {
	// Two triangles with no shared vertices.
	v := []geom.Vec3{
		{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1},
		{X: 10, Y: 10}, {X: 11, Y: 10}, {X: 10, Y: 11},
	}
	m, err := terrain.New(v, [][3]int32{{0, 1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	pois := []terrain.SurfacePoint{m.FacePoint(0, 1, 1, 1), m.FacePoint(1, 1, 1, 1)}
	eng := geodesic.NewExact(m)
	if _, err := Build(eng, pois, Options{Epsilon: 0.1, Seed: 1}); err == nil {
		t.Error("expected error on disconnected surface")
	}
}
