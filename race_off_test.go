//go:build !race

package cclbtree

// raceTestEnabled reports whether the race detector is compiled in; see
// race_on_test.go.
const raceTestEnabled = false
