package main

import (
	"sort"
	"time"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. An empty sample is 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// windowRates splits [0, window) into n equal sub-windows and returns each
// one's event rate over net(lo, hi), the sub-window's length less the time
// stolen from the daemon in it. A session's events are spread evenly over
// its own duration, so one that straddles a boundary contributes to both
// sides in proportion — counting it whole on the side where it ended would
// add a session's worth of noise to every sub-window.
func windowRates(samples []sample, window time.Duration, n int, net func(a, b time.Duration) time.Duration) []float64 {
	rates := make([]float64, n)
	sub := window / time.Duration(n)
	for _, s := range samples {
		dur := s.End - s.Start
		if dur <= 0 {
			continue
		}
		for k := 0; k < n; k++ {
			lo, hi := time.Duration(k)*sub, time.Duration(k+1)*sub
			a, b := max(s.Start, lo), min(s.End, hi)
			if b > a {
				rates[k] += float64(s.Events) * float64(b-a) / float64(dur)
			}
		}
	}
	for k := range rates {
		rates[k] /= net(time.Duration(k)*sub, time.Duration(k+1)*sub).Seconds()
	}
	return rates
}

// spread is (max-min)/median: how far apart a run's own sub-windows are.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}
