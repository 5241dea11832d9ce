package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, the same rule as numpy's
// default. It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method, extrapolating at the edges of small samples),
// the rule the run-to-run spread of the benchmark is judged by. A
// sample of fewer than two values has both quartiles equal to it.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, n := len(s), 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return at(1), at(3)
}

// selfTime is a timed call's own time: its wall time minus the time
// of the nested calls it made, which ran one after another inside it.
// Nested times measured on separate runs can add up to more than the
// parent; the self time then reads 0 rather than going negative.
func selfTime(parent time.Duration, children ...time.Duration) time.Duration {
	self := parent
	for _, c := range children {
		self -= c
	}
	if self < 0 {
		return 0
	}
	return self
}

// ratio divides and returns 0 for a zero denominator, so a layer the
// workload never reaches reads 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
