package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a log-bucketed histogram over positive float64 values,
// supporting approximate percentile queries with bounded relative error.
// It is used for end-to-end latency distributions and for the
// full-system-idle period distribution of paper Fig. 6(c).
//
// Buckets grow geometrically: bucket i covers [min*g^i, min*g^(i+1)) with
// growth factor g chosen from the requested relative precision. Values
// below min land in an underflow bucket; values at or above max land in
// an overflow bucket.
type Histogram struct {
	min, max  float64
	logMin    float64
	invLogG   float64
	growth    float64
	counts    []uint64
	under     uint64
	over      uint64
	total     uint64
	sum       float64
	exactMin  float64
	exactMax  float64
	haveExact bool
}

// NewHistogram builds a histogram covering [min, max) with the given
// relative precision per bucket (e.g. 0.01 for 1%). min must be > 0 and
// max > min.
func NewHistogram(min, max, precision float64) *Histogram {
	if min <= 0 || max <= min {
		panic(fmt.Sprintf("stats: invalid histogram range [%g, %g)", min, max))
	}
	if precision <= 0 || precision >= 1 {
		panic(fmt.Sprintf("stats: invalid precision %g", precision))
	}
	g := 1 + precision
	n := int(math.Ceil(math.Log(max/min) / math.Log(g)))
	if n < 1 {
		n = 1
	}
	return &Histogram{
		min:     min,
		max:     max,
		logMin:  math.Log(min),
		invLogG: 1 / math.Log(g),
		growth:  g,
		counts:  make([]uint64, n),
	}
}

// NewLatencyHistogram is a convenience constructor sized for latencies
// from 100 ns to 10 s with 1% relative precision (values in seconds).
func NewLatencyHistogram() *Histogram {
	return NewHistogram(100e-9, 10, 0.01)
}

// NewDurationHistogram is sized for idle-period durations from 1 ns to
// 100 s with 2% precision (values in seconds).
func NewDurationHistogram() *Histogram {
	return NewHistogram(1e-9, 100, 0.02)
}

// Add records one observation.
func (h *Histogram) Add(x float64) { h.AddN(x, 1) }

// AddN records an observation with multiplicity n.
func (h *Histogram) AddN(x float64, n uint64) {
	if n == 0 {
		return
	}
	h.total += n
	h.sum += x * float64(n)
	if !h.haveExact {
		h.exactMin, h.exactMax, h.haveExact = x, x, true
	} else {
		if x < h.exactMin {
			h.exactMin = x
		}
		if x > h.exactMax {
			h.exactMax = x
		}
	}
	switch {
	case x < h.min:
		h.under += n
	case x >= h.max:
		h.over += n
	default:
		i := int((math.Log(x) - h.logMin) * h.invLogG)
		if i < 0 {
			i = 0
		}
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
		h.counts[i] += n
	}
}

// Reset discards every observation while keeping the bucket layout, so
// windowed consumers (the cluster layer's per-epoch latency windows)
// can reuse one histogram instead of allocating ~2k buckets per window.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.under, h.over, h.total = 0, 0, 0
	h.sum = 0
	h.exactMin, h.exactMax, h.haveExact = 0, 0, false
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the exact mean of all observations (tracked separately
// from the buckets).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min and Max return the exact extremes observed.
func (h *Histogram) Min() float64 {
	if !h.haveExact {
		return 0
	}
	return h.exactMin
}

func (h *Histogram) Max() float64 {
	if !h.haveExact {
		return 0
	}
	return h.exactMax
}

// Quantile returns an approximation of the q-th quantile (0 ≤ q ≤ 1).
// The result has the histogram's relative precision for in-range values;
// underflow returns the exact minimum and overflow the exact maximum.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	cum := h.under
	if target <= cum {
		return h.exactMin
	}
	for i, c := range h.counts {
		cum += c
		if target <= cum {
			// Midpoint of bucket i in log space.
			lo := h.min * math.Pow(h.growth, float64(i))
			return lo * math.Sqrt(h.growth)
		}
	}
	return h.exactMax
}

// FractionBetween returns the fraction of observations with lo ≤ x < hi.
func (h *Histogram) FractionBetween(lo, hi float64) float64 {
	if h.total == 0 || hi <= lo {
		return 0
	}
	var n uint64
	if lo < h.min {
		n += h.under
	}
	for i := range h.counts {
		bLo := h.min * math.Pow(h.growth, float64(i))
		bHi := bLo * h.growth
		mid := bLo * math.Sqrt(h.growth)
		if mid >= lo && mid < hi {
			n += h.counts[i]
		}
		_ = bHi
	}
	if hi > h.max {
		n += h.over
	}
	return float64(n) / float64(h.total)
}

// Merge folds other into h. Both histograms must have identical bucket
// geometry.
func (h *Histogram) Merge(other *Histogram) {
	if h.min != other.min || h.max != other.max || len(h.counts) != len(other.counts) {
		panic("stats: merging histograms with different geometry")
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.under += other.under
	h.over += other.over
	h.total += other.total
	h.sum += other.sum
	if other.haveExact {
		if !h.haveExact {
			h.exactMin, h.exactMax, h.haveExact = other.exactMin, other.exactMax, true
		} else {
			if other.exactMin < h.exactMin {
				h.exactMin = other.exactMin
			}
			if other.exactMax > h.exactMax {
				h.exactMax = other.exactMax
			}
		}
	}
}

// ExactQuantile computes a quantile exactly from a slice (for tests and
// small data sets). The slice is copied, not modified.
func ExactQuantile(data []float64, q float64) float64 {
	if len(data) == 0 {
		return 0
	}
	c := make([]float64, len(data))
	copy(c, data)
	sort.Float64s(c)
	if q <= 0 {
		return c[0]
	}
	if q >= 1 {
		return c[len(c)-1]
	}
	idx := int(math.Ceil(q*float64(len(c)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c[idx]
}
