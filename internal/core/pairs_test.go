package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// enhancedEdgesPerNode is the reference for enhancedEdges: the direct
// reading of §3.5 Step 2, one radius-bounded SSAD per tree node below the
// root, each targeting only its own layer's centers, merged in node-id
// order. enhancedEdges must produce the same map, bit for bit, from one
// SSAD per center.
func enhancedEdgesPerNode(eng geodesic.Engine, t *ptree, pois []terrain.SurfacePoint, eps float64) map[uint64]float64 {
	l := 8/eps + 10
	edges := make(map[uint64]float64)
	for _, id := range t.layers[0] {
		edges[packPair(id, id)] = 0
	}
	for _, ids := range t.layers[1:] {
		targets := make([]terrain.SurfacePoint, len(ids))
		for i, id := range ids {
			targets[i] = pois[t.nodes[id].center]
		}
		for _, id := range ids {
			reach := l * t.nodes[id].radius * (1 + 1e-9)
			d := eng.DistancesTo(pois[t.nodes[id].center], targets, geodesic.Stop{Radius: reach})
			for i, other := range ids {
				if math.IsInf(d[i], 1) || d[i] > reach {
					continue
				}
				edges[packPair(id, other)] = d[i]
				edges[packPair(other, id)] = d[i]
			}
		}
	}
	return edges
}

// The per-center enhanced edges must equal the per-node reference key for
// key and bit for bit, across terrains, ε, selection strategies and worker
// counts.
func TestEnhancedEdgesMatchPerNodeReference(t *testing.T) {
	fractal, err := gen.Fractal(gen.FractalSpec{NX: 11, NY: 11, CellDX: 10, Amp: 25, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	hills, err := gen.Hills(11, 11, 10, 4, 30, 42)
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
		{"fractal", fractal, func(m *terrain.Mesh) ([]terrain.SurfacePoint, error) { return gen.UniformPOIs(m, 28, 43) }},
		{"hills", hills, func(m *terrain.Mesh) ([]terrain.SurfacePoint, error) { return gen.ClusteredPOIs(m, 28, 3, 0.1, 44) }},
		{"plane", plane, func(m *terrain.Mesh) ([]terrain.SurfacePoint, error) { return gen.UniformPOIs(m, 20, 45) }},
	} {
		pois, err := tc.pois(tc.mesh)
		if err != nil {
			t.Fatal(err)
		}
		pois = gen.Dedup(pois, 1e-9)
		eng := geodesic.NewExact(tc.mesh)
		for _, sel := range []Selection{SelectRandom, SelectGreedy} {
			tr, err := buildPartitionTree(eng, pois, sel, 46)
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range []float64{0.1, 0.25, 0.5} {
				want := enhancedEdgesPerNode(eng, tr, pois, eps)
				for _, workers := range []int{1, 8} {
					name := fmt.Sprintf("%s/%s/eps=%g/workers=%d", tc.name, sel, eps, workers)
					var calls atomic.Int64
					got := enhancedEdges(&countingEngine{Engine: eng, calls: &calls}, tr, pois, eps, newBudget(workers))
					if len(got) != len(want) {
						t.Errorf("%s: %d edges, reference %d", name, len(got), len(want))
					}
					for k, w := range want {
						g, ok := got[k]
						if !ok {
							t.Errorf("%s: edge (%d,%d) missing", name, int32(k>>32), int32(uint32(k)))
						} else if math.Float64bits(g) != math.Float64bits(w) {
							t.Errorf("%s: edge (%d,%d) = %v, reference %v", name, int32(k>>32), int32(uint32(k)), g, w)
						}
					}
					if n := calls.Load(); n != int64(len(pois)) {
						t.Errorf("%s: %d SSADs, want one per POI (%d)", name, n, len(pois))
					}
				}
			}
		}
	}
}

// An efficient build runs one partition-tree SSAD per distinct center plus
// the root's (at most n+1) and one enhanced-edge SSAD per center (at most
// n), never one per tree node or per node pair.
func TestBuildSSADCount(t *testing.T) {
	w := newTestWorld(t, 13, 40, 47)
	for _, eps := range []float64{0.1, 0.25} {
		st := w.build(t, Options{Epsilon: eps, Seed: 48}).BuildStats()
		if bound := 2*len(w.pois) + 1; st.SSADCalls > bound {
			t.Errorf("eps=%g: %d SSADs > 2·POIs+1 = %d (TreeNodes %d)", eps, st.SSADCalls, bound, st.TreeNodes)
		}
	}
}
