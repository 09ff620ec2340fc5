package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middles for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest of the 99th, 95th, 90th, 75th and 50th
// percentiles of xs (nearest rank) that still has at least ten samples above
// it, with ok false when there are too few samples for any of them.
func tailPercentile(xs []float64) (pct int, value float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []int{99, 95, 90, 75, 50} {
		rank := int(math.Ceil(float64(p) / 100 * float64(len(s))))
		if rank >= 1 && len(s)-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}
