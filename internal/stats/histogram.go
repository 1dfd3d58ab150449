package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"agilepkgc/internal/sim"
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
	// durs is the integer-nanosecond bucket index AddDuration uses; nil
	// off the standard layouts, which keep the float path.
	durs *durIndex
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
func NewLatencyHistogram() *Histogram { return latencyLayout.new() }

// NewDurationHistogram is sized for idle-period durations from 1 ns to
// 100 s with 2% precision (values in seconds).
func NewDurationHistogram() *Histogram { return durationLayout.new() }

// layout is a standard bucket layout: its histograms share one
// integer-nanosecond index, built by the first of them.
type layout struct {
	min, max, precision float64
	once                sync.Once
	durs                *durIndex
}

var (
	latencyLayout  = &layout{min: 100e-9, max: 10, precision: 0.01}
	durationLayout = &layout{min: 1e-9, max: 100, precision: 0.02}
)

func (l *layout) new() *Histogram {
	h := NewHistogram(l.min, l.max, l.precision)
	l.once.Do(func() { l.durs = newDurIndex(h) })
	h.durs = l.durs
	return h
}

// Add records one observation.
func (h *Histogram) Add(x float64) { h.AddN(x, 1) }

// AddN records an observation with multiplicity n.
func (h *Histogram) AddN(x float64, n uint64) {
	if n == 0 {
		return
	}
	h.record(x, n, h.bucket(x))
}

// AddDuration records d as Add(d.Seconds()) does, bucket for bucket and
// bit for bit, without math.Log on the standard layouts: their index
// maps the integer nanoseconds straight to the bucket (see durIndex).
func (h *Histogram) AddDuration(d sim.Duration) {
	x := d.Seconds()
	if h.durs == nil {
		h.record(x, 1, h.bucket(x))
		return
	}
	h.record(x, 1, h.durs.bucket(int64(d)))
}

// bucket returns x's bucket index: -1 below the range and len(counts)
// at or above it.
func (h *Histogram) bucket(x float64) int {
	switch {
	case x < h.min:
		return -1
	case x >= h.max:
		return len(h.counts)
	}
	i := int((math.Log(x) - h.logMin) * h.invLogG)
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// record counts x, n times, into bucket i (as bucket numbers it).
func (h *Histogram) record(x float64, n uint64, i int) {
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
	case i < 0:
		h.under += n
	case i == len(h.counts):
		h.over += n
	default:
		h.counts[i] += n
	}
}

// durIndex is a standard layout's bucket index over integer
// nanoseconds. It is built from the layout's own float path (bucket of
// sim.Duration.Seconds), so it returns exactly what that path returns
// for every input on every host, given only that math.Log does not
// decrease as its argument grows. A lookup keys a table by the bit
// length of d and the 6 bits after its leading one — a range of
// relative width at most 1/64 — and advances from the key's first
// bucket past the boundaries at or below d: at most two at 1%
// precision.
type durIndex struct {
	// lo and hi bound the range: d < lo underflows, d >= hi overflows.
	lo, hi int64
	// bound[k] is the least d whose bucket is k or above; bound[n] = hi
	// for the layout's n buckets.
	bound []int64
	// start holds, per durKey, the bucket of the key's least in-range d.
	start [64 << 6]uint16
}

// durKey is d's bit length followed by the 6 bits after its leading
// one (zeros past d's last bit). A d of 7 bits or fewer has a key of
// its own.
func durKey(d uint64) int {
	l := bits.Len64(d)
	return l<<6 | int(d<<(65-l)>>58)
}

// bucket returns d's bucket index with h.bucket's conventions.
func (x *durIndex) bucket(d int64) int {
	switch {
	case d < x.lo:
		return -1
	case d >= x.hi:
		return len(x.bound) - 1
	}
	i := int(x.start[durKey(uint64(d))])
	// Two steps without a branch, since whether a d needs them is as
	// good as random: bound−d−1 is negative, its sign bit set, exactly
	// when d is at or past the boundary. The loop serves layouts coarser
	// than 1%.
	i += int(uint64(x.bound[i+1]-d-1) >> 63)
	i += int(uint64(x.bound[i+1]-d-1) >> 63)
	for d >= x.bound[i+1] {
		i++
	}
	return i
}

// newDurIndex builds h's index by evaluating h's float path: each
// boundary is stepped to from the closed-form estimate min·g^k, so the
// estimate's rounding never reaches the table.
func newDurIndex(h *Histogram) *durIndex {
	n := len(h.counts)
	if n >= 1<<16 {
		panic(fmt.Sprintf("stats: %d buckets overflow the duration index", n))
	}
	at := func(d int64) int { return h.bucket(sim.Duration(d).Seconds()) }
	// least is the least d >= floor whose bucket is at least k, found by
	// stepping from guess.
	least := func(k int, floor, guess int64) int64 {
		d := max(guess, floor)
		for d > floor && at(d-1) >= k {
			d--
		}
		for at(d) < k {
			d++
		}
		return d
	}
	ns := func(s float64) int64 { return int64(math.Ceil(s * float64(sim.Second))) }
	x := &durIndex{bound: make([]int64, n+1)}
	x.lo = least(0, 1, ns(h.min))
	x.hi = least(n, x.lo, ns(h.max))
	x.bound[0], x.bound[n] = x.lo, x.hi
	for k := 1; k < n; k++ {
		x.bound[k] = min(least(k, x.bound[k-1], ns(h.min*math.Pow(h.growth, float64(k)))), x.hi)
	}
	for key := range x.start {
		l, m := key>>6, int64(64|key&63)
		if l == 0 {
			continue
		}
		var d0 int64
		if l > 7 {
			d0 = m << (l - 7)
		} else {
			d0 = m >> (7 - l)
		}
		d := min(max(d0, x.lo), x.hi-1)
		x.start[key] = uint16(at(d))
	}
	return x
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
		mid := bLo * math.Sqrt(h.growth)
		if mid >= lo && mid < hi {
			n += h.counts[i]
		}
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
