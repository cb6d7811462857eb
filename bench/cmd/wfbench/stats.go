package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// with the "exclusive" method of Python's statistics.quantiles(n=4), so
// the spreads this harness prints match the ones computed from its JSON
// output with the standard library. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := sorted(xs)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), median(s), q(3)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it. With fewer than
// 100/(100-p) samples it is the maximum.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	if sort.Float64sAreSorted(xs) {
		return xs
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
