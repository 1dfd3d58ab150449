package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// RNG wraps math/rand/v2 with a fixed, reproducible seed so every
// simulation run is deterministic. Two RNGs created with the same seed
// produce identical streams.
type RNG struct {
	*rand.Rand
	src *rand.PCG
}

// pcgStream derives the PCG's second seed word from the first.
const pcgStream = 0x9e3779b97f4a7c15

// NewRNG creates a deterministic generator from a seed.
func NewRNG(seed uint64) *RNG {
	src := rand.NewPCG(seed, seed^pcgStream)
	return &RNG{rand.New(src), src}
}

// Reseed restarts the stream in place: afterwards r draws exactly what
// NewRNG(seed) would, without allocating a new generator.
func (r *RNG) Reseed(seed uint64) {
	r.src.Seed(seed, seed^pcgStream)
}

// Fork derives an independent child stream; successive calls yield
// distinct streams. It is used to give each core / link / generator its
// own RNG while keeping whole-run determinism.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// Dist is a distribution over positive float64 values (typically seconds
// or nanoseconds of virtual time).
type Dist interface {
	// Sample draws one value using the provided RNG.
	Sample(r *RNG) float64
	// Mean returns the distribution's expected value.
	Mean() float64
	// String describes the distribution for experiment reports.
	String() string
}

// Deterministic is a point mass at V.
type Deterministic struct{ V float64 }

func (d Deterministic) Sample(*RNG) float64 { return d.V }
func (d Deterministic) Mean() float64       { return d.V }
func (d Deterministic) String() string      { return fmt.Sprintf("det(%g)", d.V) }

// Exponential has rate 1/MeanV.
type Exponential struct{ MeanV float64 }

func (d Exponential) Sample(r *RNG) float64 { return r.ExpFloat64() * d.MeanV }
func (d Exponential) Mean() float64         { return d.MeanV }
func (d Exponential) String() string        { return fmt.Sprintf("exp(mean=%g)", d.MeanV) }

// Uniform over [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

func (d Uniform) Sample(r *RNG) float64 { return d.Lo + r.Float64()*(d.Hi-d.Lo) }
func (d Uniform) Mean() float64         { return (d.Lo + d.Hi) / 2 }
func (d Uniform) String() string        { return fmt.Sprintf("uniform[%g,%g)", d.Lo, d.Hi) }

// LogNormal is parameterized by its *actual* mean and the sigma of the
// underlying normal, which is the natural way to express "service time
// averages 16 µs with moderate skew". Build it with NewLogNormal, which
// computes the underlying normal's mean once; a literal works too but
// pays a Log per draw.
type LogNormal struct {
	MeanV float64 // E[X]
	Sigma float64 // stddev of log X

	muV   float64 // mean of log X, cached when hasMu
	hasMu bool
}

// NewLogNormal returns the log-normal with the given mean and log-space
// sigma, its underlying normal's mean computed once.
func NewLogNormal(mean, sigma float64) LogNormal {
	d := LogNormal{MeanV: mean, Sigma: sigma}
	d.muV, d.hasMu = d.mu(), true
	return d
}

func (d LogNormal) mu() float64 { return math.Log(d.MeanV) - d.Sigma*d.Sigma/2 }

func (d LogNormal) Sample(r *RNG) float64 {
	mu := d.muV
	if !d.hasMu {
		mu = d.mu()
	}
	return math.Exp(mu + d.Sigma*r.NormFloat64())
}

func (d LogNormal) Mean() float64 { return d.MeanV }
func (d LogNormal) String() string {
	return fmt.Sprintf("lognormal(mean=%g,sigma=%g)", d.MeanV, d.Sigma)
}

// BoundedPareto is a Pareto distribution with shape Alpha truncated to
// [Lo, Hi]. Heavy-tailed service times (e.g. occasional large multigets
// or slow OLTP transactions) use it.
type BoundedPareto struct {
	Alpha  float64
	Lo, Hi float64
}

func (d BoundedPareto) Sample(r *RNG) float64 {
	// Inverse-CDF sampling for the truncated Pareto.
	u := r.Float64()
	la := math.Pow(d.Lo, d.Alpha)
	ha := math.Pow(d.Hi, d.Alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/d.Alpha)
}

func (d BoundedPareto) Mean() float64 {
	if d.Alpha == 1 {
		return d.Lo * d.Hi / (d.Hi - d.Lo) * math.Log(d.Hi/d.Lo)
	}
	a := d.Alpha
	la := math.Pow(d.Lo, a)
	return la / (1 - math.Pow(d.Lo/d.Hi, a)) * a / (a - 1) *
		(1/math.Pow(d.Lo, a-1) - 1/math.Pow(d.Hi, a-1))
}

func (d BoundedPareto) String() string {
	return fmt.Sprintf("pareto(a=%g,[%g,%g])", d.Alpha, d.Lo, d.Hi)
}

// Mixture draws from one of several component distributions with the
// given weights. Weights need not sum to one; they are normalized.
type Mixture struct {
	Components []Dist
	Weights    []float64
}

func (d Mixture) Sample(r *RNG) float64 {
	total := 0.0
	for _, w := range d.Weights {
		total += w
	}
	u := r.Float64() * total
	for i, w := range d.Weights {
		if u < w {
			return d.Components[i].Sample(r)
		}
		u -= w
	}
	return d.Components[len(d.Components)-1].Sample(r)
}

func (d Mixture) Mean() float64 {
	total, m := 0.0, 0.0
	for i, w := range d.Weights {
		total += w
		m += w * d.Components[i].Mean()
	}
	return m / total
}

func (d Mixture) String() string { return fmt.Sprintf("mixture(%d)", len(d.Components)) }

// Shifted adds a constant offset to another distribution (e.g. a fixed
// protocol-processing floor under a variable service body).
type Shifted struct {
	Base   Dist
	Offset float64
}

func (d Shifted) Sample(r *RNG) float64 { return d.Offset + d.Base.Sample(r) }
func (d Shifted) Mean() float64         { return d.Offset + d.Base.Mean() }
func (d Shifted) String() string        { return fmt.Sprintf("%v+%g", d.Base, d.Offset) }

// ArrivalProcess is an arrival law: it produces a stream of
// inter-arrival gaps. A law is immutable, so one law may feed any
// number of streams; whatever a modulated law must remember between
// draws lives in the ArrivalStream its caller owns. Implementations
// must be deterministic given the RNG stream.
type ArrivalProcess interface {
	// NextGap returns the time to the next arrival of stream st.
	NextGap(r *RNG, st *ArrivalStream) float64
	// Rate returns the long-run average arrival rate (events/second).
	Rate() float64
	String() string
}

// Poisson is a memoryless arrival process with the given rate.
type Poisson struct{ RateV float64 }

func (p Poisson) NextGap(r *RNG, _ *ArrivalStream) float64 { return r.ExpFloat64() / p.RateV }
func (p Poisson) Rate() float64                            { return p.RateV }
func (p Poisson) String() string                           { return fmt.Sprintf("poisson(%g/s)", p.RateV) }

// ArrivalStream is one stream's position in a modulated arrival law:
// the MMPP2 phase it is in and the time left in that phase. Each
// source that draws gaps owns one, so two sources fed by the same
// law never continue each other's phase. The zero value is a stream
// that has not drawn yet.
type ArrivalStream struct {
	started   bool
	inHigh    bool
	phaseLeft float64
}

// MMPP2 is a two-state Markov-modulated Poisson process: a bursty arrival
// model that alternates between a high-rate and a low-rate phase with
// exponentially distributed phase durations. Datacenter request streams
// are well known to be bursty; mutilate's ETC reproduction exhibits
// exactly this on/off structure.
type MMPP2 struct {
	RateHigh, RateLow float64 // arrival rate in each phase
	MeanHigh, MeanLow float64 // mean phase durations (seconds)
}

// NewMMPP2 builds a bursty process whose long-run rate equals rate, with
// burstiness b = RateHigh/RateLow and equal expected arrivals per phase.
func NewMMPP2(rate, burstiness, meanPhase float64) MMPP2 {
	// Choose phase rates so that time-average rate is `rate` with equal
	// time in each phase.
	high := 2 * rate * burstiness / (1 + burstiness)
	low := 2 * rate / (1 + burstiness)
	return MMPP2{RateHigh: high, RateLow: low, MeanHigh: meanPhase, MeanLow: meanPhase}
}

func (p MMPP2) Rate() float64 {
	wh, wl := p.MeanHigh, p.MeanLow
	return (p.RateHigh*wh + p.RateLow*wl) / (wh + wl)
}

func (p MMPP2) String() string {
	return fmt.Sprintf("mmpp2(high=%g/s low=%g/s)", p.RateHigh, p.RateLow)
}

// NextGap advances stream st's modulating chain and returns its next
// gap.
func (p MMPP2) NextGap(r *RNG, st *ArrivalStream) float64 {
	if !st.started {
		st.started = true
		st.inHigh = r.Float64() < 0.5
		st.phaseLeft = p.phaseDur(r, st.inHigh)
	}
	gap := 0.0
	for {
		rate := p.RateLow
		if st.inHigh {
			rate = p.RateHigh
		}
		g := r.ExpFloat64() / rate
		if g <= st.phaseLeft {
			st.phaseLeft -= g
			return gap + g
		}
		// Phase expires before the next arrival: switch phases and keep
		// accumulating elapsed time.
		gap += st.phaseLeft
		st.inHigh = !st.inHigh
		st.phaseLeft = p.phaseDur(r, st.inHigh)
	}
}

func (p MMPP2) phaseDur(r *RNG, high bool) float64 {
	if high {
		return r.ExpFloat64() * p.MeanHigh
	}
	return r.ExpFloat64() * p.MeanLow
}
