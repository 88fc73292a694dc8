package core

import (
	"math"
	"testing"
)

// TestCoarseRouteMatchesExact checks every coarse-routed pair of the
// tiled-budget serving fixture (11×11 steep terrain, 80 POIs, 9 tiles, one
// coarse A2A level with one site per edge) against the unbounded exact
// geodesic. On this fixture the coarse level's short-range threshold exceeds
// the terrain's span, so each coarse answer comes from the bounded exact
// SSAD and must match the unbounded run to rounding.
func TestCoarseRouteMatchesExact(t *testing.T) {
	if raceEnabled {
		t.Skip("builds the 9-tile fixture and runs ~4k bounded SSADs; the geodesic prune tests cover the engine under -race")
	}
	w := newSteepWorld(t, 11, 80, 1701, 1705)
	sh := buildLOD(t, w, 9, LODOptions{Options: Options{Epsilon: 0.25, Seed: 1}, Levels: 2, SitesPerEdge: 1})
	g2p := globalToPOI(t, sh, w)
	coarse := 0
	for s := 0; s < sh.NumGlobalIDs(); s++ {
		for tt := 0; tt < sh.NumGlobalIDs(); tt++ {
			before, _ := sh.TileStats()
			d, err := sh.Query(int32(s), int32(tt))
			if err != nil {
				t.Fatalf("Query(%d,%d): %v", s, tt, err)
			}
			if after, _ := sh.TileStats(); after.CoarseQueries == before.CoarseQueries {
				continue
			}
			coarse++
			exact := w.exact[g2p[s]][g2p[tt]]
			if math.Abs(d-exact) > 1e-12*exact {
				t.Errorf("coarse Query(%d,%d) = %.17g, exact %.17g (rel %g)", s, tt, d, exact, math.Abs(d-exact)/exact)
			}
		}
	}
	t.Logf("%d coarse-routed pairs", coarse)
	if coarse == 0 {
		t.Fatal("no pair took the coarse route")
	}
}
