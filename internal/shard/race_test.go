//go:build race

package shard

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of its Puts at random, so pooled-scratch allocation pins cannot
// hold.
const raceEnabled = true
