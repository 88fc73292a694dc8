// Package geodesic computes single-source all-destination (SSAD) geodesic
// distances on a terrain surface.
//
// The primary implementation, Exact, is a window-propagation algorithm in the
// continuous-Dijkstra paradigm of Mitchell, Mount and Papadimitriou (the
// paper's reference [26], with the practical bookkeeping of later MMP
// implementations). It supports the two stopping rules the paper's oracle
// construction needs (§3.2, "Implementation Detail 2"): expand until a set of
// target points is covered, or expand until the search frontier passes a
// radius.
package geodesic

import (
	"math"

	"seoracle/internal/terrain"
)

// Stop bounds an SSAD expansion.
type Stop struct {
	// Radius, when positive, halts the expansion once the search frontier's
	// distance exceeds it; targets farther than Radius are reported as +Inf.
	Radius float64
	// CoverTargets halts the expansion as soon as every target's distance is
	// settled, even if Radius has not been reached.
	//
	// With both Radius and CoverTargets set, Exact also prunes goal-directed:
	// it skips every window and pseudo-source vertex whose distance plus the
	// straight chord to the nearest target exceeds Radius, since no path
	// through it can reach a target within Radius. Targets within Radius keep
	// their distance up to last-bit rounding (pruned windows no longer clip
	// others, so a few answers move by an ulp or two); targets beyond it still
	// report +Inf. Calls that set only one of the two are not pruned.
	CoverTargets bool
}

// Unbounded expands until the whole surface is settled (or all targets, when
// CoverTargets is used by the caller).
var Unbounded = Stop{}

// Engine is the SSAD abstraction consumed by the oracle and the baselines.
// DistancesTo runs a single-source expansion from src and returns one
// geodesic distance per target, in order. Targets that were not reached
// before the stop condition fired are reported as +Inf.
//
// Concurrency contract: the oracle's parallel construction (core.Options
// with Workers > 1) issues DistancesTo calls from multiple goroutines at
// once, so implementations handed to it must be safe for concurrent use —
// per-expansion state must be private to the call (owned outright, or
// checked out of a pool the way Exact recycles its run scratch), with the
// shared struct treated as read-only after construction. Exact and
// steiner.Engine both satisfy this. Determinism matters equally:
// DistancesTo must be a pure function of (src, targets, stop) — recycled
// scratch must be reset so thoroughly that results never depend on what the
// scratch last computed — because the construction's
// bit-identical-across-worker-counts guarantee inherits it.
type Engine interface {
	DistancesTo(src terrain.SurfacePoint, targets []terrain.SurfacePoint, stop Stop) []float64
}

// inf is the local shorthand for an unreached distance.
func inf() float64 { return math.Inf(1) }
