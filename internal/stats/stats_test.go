package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary should be all zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d", s.Count())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if !almost(s.Var(), 32.0/7.0, 1e-12) {
		t.Errorf("Var = %v, want %v", s.Var(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Var() != 0 || s.Std() != 0 {
		t.Error("single observation should have zero variance")
	}
	if s.Min() != 3.5 || s.Max() != 3.5 || s.Mean() != 3.5 {
		t.Error("single observation stats wrong")
	}
}

func TestSummaryAddN(t *testing.T) {
	var a, b Summary
	for i := 0; i < 5; i++ {
		a.Add(2.0)
	}
	b.AddN(2.0, 5)
	if a.Count() != b.Count() || a.Mean() != b.Mean() || a.Var() != b.Var() {
		t.Error("AddN differs from repeated Add")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1e-6, 10, 0.01)
	rng := NewRNG(1)
	var data []float64
	for i := 0; i < 100000; i++ {
		x := rng.ExpFloat64() * 0.001
		data = append(data, x)
		h.Add(x)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := ExactQuantile(data, q)
		got := h.Quantile(q)
		if !almost(got, exact, 0.03) {
			t.Errorf("q%.2f: hist %v vs exact %v", q, got, exact)
		}
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewLatencyHistogram()
	var s Summary
	rng := NewRNG(7)
	for i := 0; i < 10000; i++ {
		x := rng.Float64() * 0.01
		h.Add(x)
		s.Add(x)
	}
	if !almost(h.Mean(), s.Mean(), 1e-12) {
		t.Errorf("histogram mean %v != summary mean %v", h.Mean(), s.Mean())
	}
	if h.Min() != s.Min() || h.Max() != s.Max() {
		t.Error("exact min/max not tracked")
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	h := NewHistogram(1, 10, 0.05)
	h.Add(0.5) // underflow
	h.Add(50)  // overflow
	h.Add(5)   // in range
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Quantile(0) != 0.5 {
		t.Errorf("q0 should be exact min, got %v", h.Quantile(0))
	}
	if h.Quantile(1) != 50 {
		t.Errorf("q1 should be exact max, got %v", h.Quantile(1))
	}
}

func TestHistogramFractionBetween(t *testing.T) {
	h := NewDurationHistogram()
	// Paper Fig 6(c): fraction of idle periods between 20us and 200us.
	for i := 0; i < 600; i++ {
		h.Add(50e-6)
	}
	for i := 0; i < 400; i++ {
		h.Add(1e-3)
	}
	got := h.FractionBetween(20e-6, 200e-6)
	if !almost(got, 0.6, 0.01) {
		t.Errorf("FractionBetween = %v, want 0.6", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewLatencyHistogram()
	b := NewLatencyHistogram()
	all := NewLatencyHistogram()
	rng := NewRNG(3)
	for i := 0; i < 5000; i++ {
		x := rng.ExpFloat64() * 1e-4
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
		all.Add(x)
	}
	a.Merge(b)
	if a.Count() != all.Count() {
		t.Fatal("merged count wrong")
	}
	if !almost(a.Quantile(0.9), all.Quantile(0.9), 1e-9) {
		t.Error("merged quantile differs")
	}
}

func TestHistogramMergeGeometryPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on geometry mismatch")
		}
	}()
	NewHistogram(1, 10, 0.01).Merge(NewHistogram(1, 100, 0.01))
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 0.01) },
		func() { NewHistogram(5, 5, 0.01) },
		func() { NewHistogram(1, 10, 0) },
		func() { NewHistogram(1, 10, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid constructor args")
				}
			}()
			f()
		}()
	}
}

func TestExactQuantile(t *testing.T) {
	data := []float64{5, 1, 3, 2, 4}
	if ExactQuantile(data, 0.5) != 3 {
		t.Errorf("median = %v", ExactQuantile(data, 0.5))
	}
	if ExactQuantile(data, 0) != 1 || ExactQuantile(data, 1) != 5 {
		t.Error("extremes wrong")
	}
	if ExactQuantile(nil, 0.5) != 0 {
		t.Error("empty should be 0")
	}
	// Input must not be reordered.
	if data[0] != 5 {
		t.Error("ExactQuantile mutated input")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c, d := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("different seeds produced overlapping streams")
	}
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(5)
	a := r.Fork()
	b := r.Fork()
	if a.Uint64() == b.Uint64() {
		t.Fatal("forked streams identical")
	}
}

func TestDistMeans(t *testing.T) {
	rng := NewRNG(11)
	dists := []Dist{
		Deterministic{V: 3},
		Exponential{MeanV: 2e-5},
		Uniform{Lo: 1, Hi: 3},
		LogNormal{MeanV: 16e-6, Sigma: 0.5},
		BoundedPareto{Alpha: 1.5, Lo: 1e-6, Hi: 1e-3},
		Shifted{Base: Exponential{MeanV: 5}, Offset: 2},
		Mixture{
			Components: []Dist{Deterministic{V: 1}, Deterministic{V: 3}},
			Weights:    []float64{1, 1},
		},
	}
	for _, d := range dists {
		var s Summary
		for i := 0; i < 200000; i++ {
			x := d.Sample(rng)
			if x < 0 {
				t.Fatalf("%v produced negative sample %v", d, x)
			}
			s.Add(x)
		}
		if !almost(s.Mean(), d.Mean(), 0.05) {
			t.Errorf("%v: empirical mean %v vs analytic %v", d, s.Mean(), d.Mean())
		}
	}
}

func TestBoundedParetoRange(t *testing.T) {
	d := BoundedPareto{Alpha: 1.2, Lo: 2, Hi: 100}
	rng := NewRNG(13)
	for i := 0; i < 10000; i++ {
		x := d.Sample(rng)
		if x < d.Lo || x > d.Hi {
			t.Fatalf("sample %v outside [%v, %v]", x, d.Lo, d.Hi)
		}
	}
}

func TestPoissonRate(t *testing.T) {
	p := Poisson{RateV: 5000}
	rng := NewRNG(17)
	var total float64
	n := 100000
	for i := 0; i < n; i++ {
		total += p.NextGap(rng, nil)
	}
	rate := float64(n) / total
	if !almost(rate, 5000, 0.02) {
		t.Errorf("empirical rate %v, want 5000", rate)
	}
}

func TestMMPP2Rate(t *testing.T) {
	p := NewMMPP2(10000, 4, 0.01)
	if !almost(p.Rate(), 10000, 1e-9) {
		t.Fatalf("analytic rate %v, want 10000", p.Rate())
	}
	rng := NewRNG(19)
	var st ArrivalStream
	var total float64
	n := 200000
	for i := 0; i < n; i++ {
		g := p.NextGap(rng, &st)
		if g < 0 {
			t.Fatal("negative gap")
		}
		total += g
	}
	rate := float64(n) / total
	if !almost(rate, 10000, 0.05) {
		t.Errorf("empirical rate %v, want ~10000", rate)
	}
}

func TestMMPP2Burstiness(t *testing.T) {
	// A bursty process must have a higher coefficient of variation of
	// inter-arrival gaps than Poisson (CV=1).
	rng := NewRNG(23)
	p := NewMMPP2(10000, 10, 0.005)
	var st ArrivalStream
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(p.NextGap(rng, &st))
	}
	cv := s.Std() / s.Mean()
	if cv <= 1.05 {
		t.Errorf("MMPP CV = %v, want > 1.05 (burstier than Poisson)", cv)
	}
}

func TestMixtureWeighting(t *testing.T) {
	d := Mixture{
		Components: []Dist{Deterministic{V: 0}, Deterministic{V: 1}},
		Weights:    []float64{3, 1},
	}
	rng := NewRNG(29)
	ones := 0
	n := 100000
	for i := 0; i < n; i++ {
		if d.Sample(rng) == 1 {
			ones++
		}
	}
	frac := float64(ones) / float64(n)
	if !almost(frac, 0.25, 0.05) {
		t.Errorf("weight-1 component frequency %v, want 0.25", frac)
	}
}

// Property: histogram quantiles are monotone in q.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		h := NewLatencyHistogram()
		rng := NewRNG(seed)
		for i := 0; i < int(n%2000)+10; i++ {
			h.Add(rng.ExpFloat64() * 1e-4)
		}
		prev := 0.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramReset: a reset histogram must behave exactly like a
// fresh one — same counts, same quantiles — so windowed consumers can
// reuse the bucket allocation.
func TestHistogramReset(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i) * 1e-6)
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("reset histogram retains state: count %d sum %g", h.Count(), h.Sum())
	}
	fresh := NewLatencyHistogram()
	for _, x := range []float64{1e-6, 5e-5, 2e-3, 0.5, 20 /* overflow */, 1e-8 /* underflow */} {
		h.Add(x)
		fresh.Add(x)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if h.Quantile(q) != fresh.Quantile(q) {
			t.Errorf("q%.2f: reset %g, fresh %g", q, h.Quantile(q), fresh.Quantile(q))
		}
	}
	if h.Count() != fresh.Count() || h.Min() != fresh.Min() || h.Max() != fresh.Max() {
		t.Error("reset histogram diverges from a fresh one")
	}
}

// TestNewLogNormalMatchesLiteral pins the cached μ to the expression a
// literal LogNormal evaluates per draw: the same seed gives the same
// draws, bit for bit.
func TestNewLogNormalMatchesLiteral(t *testing.T) {
	for _, p := range [][2]float64{{12e-6, 0.45}, {50e-6, 0.5}, {120e-6, 0.6}, {300e-6, 0.6}, {1, 0}} {
		lit, ctor := LogNormal{MeanV: p[0], Sigma: p[1]}, NewLogNormal(p[0], p[1])
		a, b := NewRNG(5), NewRNG(5)
		for i := 0; i < 10000; i++ {
			if x, y := lit.Sample(a), ctor.Sample(b); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%v draw %d: literal %v, constructed %v", ctor, i, x, y)
			}
		}
		if lit.Mean() != ctor.Mean() || lit.String() != ctor.String() {
			t.Fatalf("%v: mean or name differs from the literal's", ctor)
		}
	}
}
