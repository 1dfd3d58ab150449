// Package stats provides the statistical plumbing shared by the AgilePkgC
// simulator: online summaries, log-bucketed histograms with percentile
// queries, and the random distributions used by the workload generators
// (exponential, log-normal, bounded Pareto, and a two-state Markov
// modulated process for bursty request arrivals).
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates count, mean, variance (Welford), min and max of a
// stream of float64 observations in O(1) space.
type Summary struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddN incorporates the same observation n times.
func (s *Summary) AddN(x float64, n uint64) {
	for i := uint64(0); i < n; i++ {
		s.Add(x)
	}
}

// Count returns the number of observations.
func (s *Summary) Count() uint64 { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Var returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation, or 0 with none.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, or 0 with none.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// String renders a one-line human-readable summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Std(), s.Min(), s.Max())
}
