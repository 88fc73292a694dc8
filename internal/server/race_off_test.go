//go:build !race

package server

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// items at random and allocation counts stop being repeatable.
const raceEnabled = false
