package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile's rank before
// the benchmark reports it: a p99 needs at least 1000 samples.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (0 < q < 1) and the
// number of samples strictly beyond that rank. It sorts xs in place.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1], len(xs) - rank
}

// median is the nearest-rank median of xs; it sorts a copy.
func median(xs []float64) float64 {
	v, _ := quantile(append([]float64(nil), xs...), 0.5)
	return v
}

// ms converts a duration to milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to microseconds with full precision.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// lateGrowth reports whether an open-loop generator fell progressively
// behind its schedule: the median lateness of the last quarter of sends
// exceeds that of the first quarter by more than limit. A phase that only
// jitters has flat lateness; one that overloads the server accumulates it.
func lateGrowth(late []float64, limit float64) bool {
	if len(late) < 8 {
		return false
	}
	q := len(late) / 4
	return median(late[len(late)-q:])-median(late[:q]) > limit
}
