package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs; 0
// for an empty sample. xs is left as it is.
func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	if !slices.IsSorted(xs) {
		xs = slices.Clone(xs)
		slices.Sort(xs)
	}
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// rungScore says how far a ladder rung is from meeting the limits: the
// largest of p99 ÷ latency limit, failure share ÷ maximum failure share,
// and generator lateness ÷ its limit. A rung meets them at score <= 1.
func rungScore(p99, limit, failFrac, maxFail, late, lateLimit float64) float64 {
	return max(p99/limit, failFrac/maxFail, late/lateLimit)
}

// scoreCap bounds a rung's score before smoothing: far past the limit
// every rung has simply failed, and one saturated rung must not outweigh
// the rest.
const scoreCap = 3

// goodput is the highest offered rate meeting the limits. The rungs'
// scores are first made non-decreasing in rate (pool-adjacent-violators
// isotonic regression, after capping), so one noisy rung cannot end the
// ladder early; the rate is then interpolated linearly between the last
// smoothed score at or under 1 and the first above it, so it moves
// smoothly instead of a whole rung at a time. rates ascend. If the first
// rung already fails, its rate is scaled down by its score; if every rung
// passes, the top rate is returned.
func goodput(rates, scores []float64) float64 {
	capped := make([]float64, len(scores))
	for i, s := range scores {
		capped[i] = min(s, scoreCap)
	}
	sm := isotonic(capped)
	for i, s := range sm {
		if s <= 1 {
			continue
		}
		if i == 0 {
			return rates[0] / s
		}
		lo := sm[i-1]
		return rates[i-1] + (rates[i]-rates[i-1])*(1-lo)/(s-lo)
	}
	return rates[len(rates)-1]
}

// isotonic is the non-decreasing sequence closest to xs in least squares.
func isotonic(xs []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	mean := func(b block) float64 { return b.sum / float64(b.n) }
	var bs []block
	for _, x := range xs {
		bs = append(bs, block{x, 1})
		for len(bs) > 1 && mean(bs[len(bs)-2]) > mean(bs[len(bs)-1]) {
			last := bs[len(bs)-1]
			bs = bs[:len(bs)-1]
			bs[len(bs)-1].sum += last.sum
			bs[len(bs)-1].n += last.n
		}
	}
	out := make([]float64, 0, len(xs))
	for _, b := range bs {
		for range b.n {
			out = append(out, mean(b))
		}
	}
	return out
}
