//go:build !race

package stylometry_test

const raceEnabled = false
