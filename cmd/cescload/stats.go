package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentileLadder lists the percentiles a latency tail is reported at.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailPercentile is the highest ladder percentile that leaves at least
// ten samples beyond it, so a tail figure never rests on a handful of
// requests. It returns 0 when even the median is unsupported.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range percentileLadder {
		if float64(n)*(1-q) >= 10-1e-9 {
			best = q
		}
	}
	return best
}

// percentile returns the nearest-rank q-th percentile of the samples.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// percentileName renders 0.99 as "p99" and 0.999 as "p99.9".
func percentileName(q float64) string {
	return fmt.Sprintf("p%.10g", q*100)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat is the median of the values.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles computes the first and third quartiles with the method of
// Python's statistics.quantiles(values, n=4) (the default "exclusive"
// method), so spreads read the same here as in any tooling built on it.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	med := medianFloat(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}
