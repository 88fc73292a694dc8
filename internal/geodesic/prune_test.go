package geodesic

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"seoracle/internal/gen"
	"seoracle/internal/terrain"
)

// pruneTol is the relative drift a bounded (pruned) answer may show against
// the unbounded reference: pruned windows no longer clip the survivors, which
// moves a few answers by an ulp or two.
const pruneTol = 1e-15

// mixedPoints draws n surface points of m, cycling through face-interior,
// vertex and edge points.
func mixedPoints(m *terrain.Mesh, rng *rand.Rand, n int) []terrain.SurfacePoint {
	pts := make([]terrain.SurfacePoint, 0, n)
	for len(pts) < n {
		f := int32(rng.Intn(m.NumFaces()))
		switch len(pts) % 3 {
		case 0:
			a, b := rng.Float64(), rng.Float64()
			if a+b > 1 {
				a, b = 1-a, 1-b
			}
			pts = append(pts, m.FacePoint(f, a, b, 1-a-b))
		case 1:
			pts = append(pts, m.VertexPoint(m.Faces[f][rng.Intn(3)]))
		default:
			a := 0.05 + 0.9*rng.Float64()
			pts = append(pts, m.FacePoint(f, a, 1-a, 0))
		}
	}
	return pts
}

// expandedWindows runs one expansion and reports how many windows it
// unfolded across their face.
func expandedWindows(e *Exact, src terrain.SurfacePoint, targets []terrain.SurfacePoint, stop Stop) int {
	r := e.getRun()
	defer e.putRun(r)
	r.begin(src, targets, stop)
	r.propagate()
	return r.expanded
}

// TestBoundedPruneMatchesUnbounded is the differential check of the
// goal-directed prune: on random fractal terrains, a call bounded by Radius
// and CoverTargets must return the unbounded covering run's distance (to
// last-bit rounding) when it lies within Radius and +Inf when it does not,
// for radii on both sides of the exact distance. Over the far half of the
// pairs, the bounded calls at the A2A short-range radius must unfold at
// most half the windows of the unbounded reference.
func TestBoundedPruneMatchesUnbounded(t *testing.T) {
	factors := []float64{0.5, 0.9, 0.999, 1 + 1e-9, 1.01, 1.5, 4}
	type work struct {
		exact              float64
		bounded, unbounded int // windows unfolded
	}
	var pairs []work
	for _, spec := range []gen.FractalSpec{
		{NX: 11, NY: 11, CellDX: 30, Amp: 220, Seed: 11},
		{NX: 13, NY: 9, CellDX: 25, Amp: 90, Seed: 12},
		{NX: 9, NY: 9, CellDX: 40, Amp: 400, Seed: 13},
	} {
		m, err := gen.Fractal(spec)
		if err != nil {
			t.Fatal(err)
		}
		e := NewExact(m)
		rng := rand.New(rand.NewSource(spec.Seed))
		pts := mixedPoints(m, rng, 18)
		for i := 0; i+1 < len(pts); i += 2 {
			s, tg := pts[i], pts[i+1]
			cover := Stop{CoverTargets: true}
			exact := e.DistancesTo(s, []terrain.SurfacePoint{tg}, cover)[0]
			if math.IsInf(exact, 1) || exact <= 0 {
				continue
			}
			for _, f := range factors {
				R := f * exact
				got := e.DistancesTo(s, []terrain.SurfacePoint{tg}, Stop{Radius: R, CoverTargets: true})[0]
				if exact <= R {
					if relErr(got, exact) > pruneTol {
						t.Fatalf("seed %d pair %d, R=%g·exact: bounded %v, unbounded %v (rel %g)",
							spec.Seed, i/2, f, got, exact, relErr(got, exact))
					}
				} else if !math.IsInf(got, 1) {
					t.Fatalf("seed %d pair %d, R=%g·exact: bounded %v, want +Inf beyond the radius", spec.Seed, i/2, f, got)
				}
			}
			R := exact * (1 + 1e-9)
			pairs = append(pairs, work{exact,
				expandedWindows(e, s, []terrain.SurfacePoint{tg}, Stop{Radius: R, CoverTargets: true}),
				expandedWindows(e, s, []terrain.SurfacePoint{tg}, cover)})
		}

		// Several targets in one call: each keeps its distance when within
		// the radius, whichever target is nearest.
		src := pts[0]
		targets := pts[1:7]
		exact := e.DistancesTo(src, targets, Stop{CoverTargets: true})
		sorted := append([]float64(nil), exact...)
		sort.Float64s(sorted)
		for _, R := range []float64{sorted[1], sorted[3] * 1.001, sorted[len(sorted)-1] * 2} {
			got := e.DistancesTo(src, targets, Stop{Radius: R, CoverTargets: true})
			for k := range targets {
				if exact[k] <= R {
					if relErr(got[k], exact[k]) > pruneTol {
						t.Fatalf("seed %d multi-target %d, R=%g: bounded %v, unbounded %v", spec.Seed, k, R, got[k], exact[k])
					}
				} else if !math.IsInf(got[k], 1) {
					t.Fatalf("seed %d multi-target %d, R=%g: bounded %v, want +Inf", spec.Seed, k, R, got[k])
				}
			}
		}
	}

	sort.Slice(pairs, func(i, j int) bool { return pairs[i].exact < pairs[j].exact })
	var bounded, unbounded int
	for _, p := range pairs[len(pairs)/2:] {
		bounded += p.bounded
		unbounded += p.unbounded
	}
	t.Logf("far pairs: %d windows unfolded bounded, %d unbounded", bounded, unbounded)
	if 2*bounded > unbounded {
		t.Fatalf("far pairs unfolded %d windows bounded vs %d unbounded; the prune must save at least half", bounded, unbounded)
	}
}

// TestPruneLeavesUnboundedCallsAlone checks that only calls setting both
// Radius and CoverTargets prune: a Radius-only call unfolds the same windows
// as before the prune existed, i.e. as many as it would with no targets.
func TestPruneLeavesUnboundedCallsAlone(t *testing.T) {
	m, err := gen.Fractal(gen.FractalSpec{NX: 9, NY: 9, CellDX: 30, Amp: 220, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExact(m)
	pts := mixedPoints(m, rand.New(rand.NewSource(21)), 4)
	stop := Stop{Radius: 150}
	if a, b := expandedWindows(e, pts[0], pts[1:], stop), expandedWindows(e, pts[0], nil, stop); a != b {
		t.Fatalf("Radius-only call unfolded %d windows with targets, %d without", a, b)
	}
}
