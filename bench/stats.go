package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is set by a handful of outliers.
const tailSamples = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs must be sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// quantileOf returns the q-quantile of an unsorted sample (0 for an empty
// one). xs is not modified.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// highestPercentile returns the highest of the candidate percentiles
// (90, 99, 99.9) that still has at least tailSamples samples beyond it in
// a population of n, or 0 when even p90 does not qualify (n < 100).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, c := range []struct {
		p        float64
		perMille int // share of the population beyond p
	}{{90, 100}, {99, 10}, {99.9, 1}} {
		if n*c.perMille >= tailSamples*1000 {
			best = c.p
		}
	}
	return best
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMs converts and sorts a latency sample.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// medianDuration returns the median of a duration sample.
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
