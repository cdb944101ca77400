package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "type 7" estimator). xs need not be sorted; it is not
// modified. An empty sample yields NaN, which render rejects.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if s[lo] == s[hi] {
		return s[lo] // also keeps +Inf (failed requests) from turning into NaN
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

var inf = math.Inf(1)

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// bucket is one histogram bucket of a Prometheus exposition: count values
// in (lower bound of the previous bucket, le].
type bucket struct {
	le    float64
	count float64
}

// histQuantile returns the q-quantile of a bucketed distribution, linear
// within the bucket that holds the target rank (the histogram_quantile
// rule). Buckets must be sorted by le, non-cumulative, finite le only; the
// first bucket's lower edge is 0.
func histQuantile(bs []bucket, q float64) float64 {
	var total float64
	for _, b := range bs {
		total += b.count
	}
	if total == 0 {
		return math.NaN()
	}
	rank := q * total
	var acc, lower float64
	for _, b := range bs {
		if acc+b.count >= rank && b.count > 0 {
			return lower + (b.le-lower)*(rank-acc)/b.count
		}
		acc += b.count
		lower = b.le
	}
	return bs[len(bs)-1].le
}
