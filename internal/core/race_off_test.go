//go:build !race

package core

// raceEnabled reports a -race build, which runs the geodesic engine
// about ten times slower.
const raceEnabled = false
