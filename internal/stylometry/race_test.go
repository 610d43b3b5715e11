//go:build race

package stylometry_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
