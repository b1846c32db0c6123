package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by nearest rank; xs need
// not be sorted. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99, p90 and p50 that has at least ten
// samples beyond it, so a tail figure is never read off a handful of
// points. It returns the percentile used alongside the value.
func tailQuantile(xs []float64) (float64, int) {
	for _, pct := range []int{99, 90} {
		if len(xs)*(100-pct) >= 1000 {
			return quantile(xs, float64(pct)/100), pct
		}
	}
	return quantile(xs, 0.5), 50
}

// windowedP99 splits samples (in the order they were recorded: by send
// time, or client by client in a closed loop) into consecutive windows
// of at least 1000 — so each window's p99 has ten samples beyond it —
// and returns the median of the windows' p99s. One long stall then
// moves one window, not the run's figure. With fewer than 1000 samples
// it falls back to tailQuantile.
func windowedP99(xs []float64) (float64, int) {
	const window = 1000
	if len(xs) < window {
		return tailQuantile(xs)
	}
	n := len(xs) / window
	var p99s []float64
	for i := 0; i < n; i++ {
		lo, hi := i*len(xs)/n, (i+1)*len(xs)/n
		p99s = append(p99s, quantile(xs[lo:hi], 0.99))
	}
	return median(p99s), 99
}

func sum(xs []float64) float64 {
	s := 0.0
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

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
