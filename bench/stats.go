package main

import (
	"math"
	"slices"
)

// percentile returns the p-th percentile (0 < p <= 100) of vals by the
// nearest-rank rule; 0 for an empty input. vals is not modified.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median of vals, averaging the two middle values of an even count.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is (max − min) / median: how far the windows of one run
// disagree. 0 when the median is 0.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) == 0 || m == 0 {
		return 0
	}
	return (slices.Max(vals) - slices.Min(vals)) / math.Abs(m)
}

// share returns part/total, 0 when total is 0.
func share(part, total float64) float64 {
	if total == 0 {
		return 0
	}
	return part / total
}

// weightedMean of vals with the given weights: the pooled ratio, when
// vals are per-cycle ratios and weights their sample counts.
func weightedMean(vals, weights []float64) float64 {
	var sum, total float64
	for i, v := range vals {
		sum += v * weights[i]
		total += weights[i]
	}
	return share(sum, total)
}
