//go:build race

package cclbtree

// raceTestEnabled reports whether the race detector is compiled in;
// allocation-count assertions skip under it (the detector's shadow
// bookkeeping allocates).
const raceTestEnabled = true
