package main

import (
	"slices"
	"sort"
)

// quantile returns the q-quantile (nearest rank) of an ascending slice.
func quantile[T int64 | uint32 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio is a/b, and 0 where the denominator is: a count over a phase
// that did none of that work (writes on lookup, lanes without a server).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
