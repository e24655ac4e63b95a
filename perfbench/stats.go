package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile: with fewer, the percentile is one or two unlucky samples,
// not a property of the request population.
const minBeyond = 10

// nearestRank is the 1-based nearest rank of the q-quantile among n
// sorted samples.
func nearestRank(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	return min(max(rank, 1), n)
}

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank,
// and ok=false when fewer than minBeyond samples rank above it. xs need
// not be sorted; it is not modified.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := nearestRank(n, q)
	return s[rank-1], n-rank >= minBeyond
}

// minSamplesFor is the smallest sample count for which percentile(q)
// reports ok.
func minSamplesFor(q float64) int {
	n := minBeyond + 1
	for n-nearestRank(n, q) < minBeyond {
		n++
	}
	return n
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
