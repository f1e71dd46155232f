package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported tail percentile;
// with fewer, the percentile is one or two unlucky jobs, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and the number of
// samples strictly beyond it. xs is not modified.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = min(max(i, 0), len(s)-1)
	return s[i], len(s) - 1 - i
}

// tail returns the q-quantile of xs, or an error when fewer than minBeyond
// samples lie beyond it.
func tail(xs []float64, q float64) (float64, error) {
	v, beyond := percentile(xs, q)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it; at least %d are needed", q*100, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// median returns the median of xs (the mean of the middle two for an even
// count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads printed here match the ones acceptance computes. It
// needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
