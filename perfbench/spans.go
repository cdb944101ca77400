package main

import "a4sim/internal/obs"

// selfTimes returns each span name's self time in µs summed over the
// trace: a span's duration minus the part of its interval covered by spans
// nested inside it. Zero-duration marks (cache_hit) contribute nothing.
func selfTimes(spans []obs.Span) map[string]float64 {
	out := map[string]float64{}
	for i, s := range spans {
		if s.DurUs <= 0 {
			continue
		}
		end := s.StartUs + s.DurUs
		var kids [][2]int64
		for j, c := range spans {
			if j == i || c.DurUs <= 0 {
				continue
			}
			ce := c.StartUs + c.DurUs
			inside := c.StartUs >= s.StartUs && ce <= end
			same := c.StartUs == s.StartUs && ce == end
			if inside && (!same || j > i) {
				kids = append(kids, [2]int64{c.StartUs, ce})
			}
		}
		out[s.Name] += float64(s.DurUs - covered(kids))
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	// Insertion sort: traces hold a handful of spans.
	for i := 1; i < len(iv); i++ {
		for j := i; j > 0 && iv[j][0] < iv[j-1][0]; j-- {
			iv[j], iv[j-1] = iv[j-1], iv[j]
		}
	}
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] <= cur[1] {
			if x[1] > cur[1] {
				cur[1] = x[1]
			}
			continue
		}
		total += cur[1] - cur[0]
		cur = x
	}
	return total + cur[1] - cur[0]
}
