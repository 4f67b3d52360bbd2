package main

import (
	"slices"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted samples by
// linear interpolation between the two nearest ranks, and how many
// samples lie beyond it. A percentile is only worth reporting with at
// least ten samples beyond it.
func percentile(sorted []int32, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	hi := min(lo+1, n-1)
	frac := rank - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac, n - 1 - lo
}

// median of a small list of slice values.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median — the measure of run-to-run noise the
// acceptance check uses. Quartiles follow Python's
// statistics.quantiles(values, n=4) (the exclusive method). Fewer than
// two values have no spread.
func quartileSpread(values []float64) float64 {
	n := len(values)
	m := median(values)
	if n < 2 || m == 0 {
		return 0
	}
	s := slices.Clone(values)
	sort.Float64s(s)
	quantile := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := min(max(int(pos), 1), n-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	spread := (quantile(3) - quantile(1)) / m
	if spread < 0 {
		spread = -spread
	}
	return spread
}
