package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of an ascending slice:
// the smallest value with at least p percent of the samples at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var t float64
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(v, n=4) (the "exclusive" method) does, so the
// spread printed by -repeat is the number the acceptance rule uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return q(1), q(2), q(3)
}

// bestQuartile is the first quartile of v where lower is better and the
// third where higher is, kept inside the range of v (the exclusive
// method extrapolates beyond it for fewer than three values).
func bestQuartile(v []float64, better string) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	q1, _, q3 := quartiles(v)
	if better == "higher" {
		return min(q3, s[len(s)-1])
	}
	return max(q1, s[0])
}

// spread is (Q3 − Q1) ÷ median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
