package main

import "slices"

// median is the middle sample (the mean of the two middle samples for
// an even count), 0 for no samples.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so a spread computed here matches one computed by a script
// over the same result lines.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile interpolates the p-th percentile (0..100) between the two
// closest ranks of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (rank-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentile is the highest of p50, p90, p99 and p99.9 that still
// has at least ten of n samples beyond it — the highest tail n samples
// can honestly report. It is 0 when not even the median has ten above
// it.
func tailPercentile(n int) float64 {
	best := 0
	for _, perMille := range []int{500, 900, 990, 999} {
		if n*(1000-perMille)/1000 >= 10 {
			best = perMille
		}
	}
	return float64(best) / 10
}
