package workload

import (
	"math"
	"testing"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/stats"
)

func TestMemcachedSpec(t *testing.T) {
	s := Memcached(50000)
	if s.MeanQPS() != 50000 {
		t.Fatalf("MeanQPS = %v", s.MeanQPS())
	}
	// ETC-style mean service ≈ 16 µs.
	if m := s.Service.Mean(); m < 14e-6 || m > 18e-6 {
		t.Fatalf("mean service %v, want ~16us", m)
	}
	// 50k QPS on 10 cores at ~16us ≈ 8% utilization.
	u := s.ExpectedUtilization(10)
	if u < 0.06 || u > 0.10 {
		t.Fatalf("utilization %v, want ~0.08", u)
	}
	if s.String() == "" || s.Name == "" {
		t.Fatal("descriptions empty")
	}
}

func TestKafkaAndMySQLLoadCalibration(t *testing.T) {
	for _, load := range []float64{0.08, 0.16, 0.42} {
		m := MySQL(load, 10)
		if u := m.ExpectedUtilization(10); math.Abs(u-load) > 0.005 {
			t.Errorf("MySQL(%v) utilization %v", load, u)
		}
	}
	for _, load := range []float64{0.08, 0.16} {
		k := Kafka(load, 10)
		if u := k.ExpectedUtilization(10); math.Abs(u-load) > 0.005 {
			t.Errorf("Kafka(%v) utilization %v", load, u)
		}
	}
}

func TestMemcachedBurstyIsBurstier(t *testing.T) {
	rng := stats.NewRNG(1)
	measure := func(p stats.ArrivalProcess) float64 {
		var s stats.Summary
		var st stats.ArrivalStream
		for i := 0; i < 50000; i++ {
			s.Add(p.NextGap(rng, &st))
		}
		return s.Std() / s.Mean()
	}
	cvPoisson := measure(Memcached(10000).Arrivals)
	cvBursty := measure(MemcachedBursty(10000, 8).Arrivals)
	if cvBursty <= cvPoisson {
		t.Fatalf("bursty CV %v should exceed Poisson CV %v", cvBursty, cvPoisson)
	}
}

func TestGeneratorEmitsAtRate(t *testing.T) {
	eng := sim.NewEngine()
	var got []*Request
	g := NewGenerator(eng, Memcached(100000), 7, func(r *Request) { got = append(got, r) })
	g.Start(100 * sim.Millisecond)
	eng.Run(100 * sim.Millisecond)
	// Expect ~10000 requests ±5%.
	if n := len(got); n < 9500 || n > 10500 {
		t.Fatalf("generated %d requests in 100ms at 100k QPS, want ~10000", n)
	}
	if g.Generated() != uint64(len(got)) {
		t.Fatal("Generated() mismatch")
	}
}

func TestGeneratorRequestFields(t *testing.T) {
	eng := sim.NewEngine()
	spec := Memcached(50000)
	var reqs []*Request
	g := NewGenerator(eng, spec, 3, func(r *Request) { reqs = append(reqs, r) })
	g.Start(20 * sim.Millisecond)
	eng.Run(20 * sim.Millisecond)
	if len(reqs) == 0 {
		t.Fatal("no requests")
	}
	var lastID uint64
	connSeen := map[int]bool{}
	var svc stats.Summary
	for i, r := range reqs {
		if i > 0 && r.ID != lastID+1 {
			t.Fatal("IDs not sequential")
		}
		lastID = r.ID
		if r.Conn < 0 || r.Conn >= spec.Connections {
			t.Fatalf("conn %d out of range", r.Conn)
		}
		connSeen[r.Conn] = true
		if r.Service <= 0 {
			t.Fatal("non-positive service time")
		}
		if r.MemAccesses != spec.MemAccesses {
			t.Fatal("mem accesses wrong")
		}
		svc.Add(float64(r.Service))
	}
	if len(connSeen) < spec.Connections/2 {
		t.Fatalf("only %d distinct connections used", len(connSeen))
	}
	mean := svc.Mean() / float64(sim.Second)
	if math.Abs(mean-spec.Service.Mean())/spec.Service.Mean() > 0.1 {
		t.Fatalf("empirical mean service %v vs spec %v", mean, spec.Service.Mean())
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	run := func() []sim.Time {
		eng := sim.NewEngine()
		var at []sim.Time
		g := NewGenerator(eng, Memcached(20000), 42, func(r *Request) { at = append(at, r.Arrival) })
		g.Start(10 * sim.Millisecond)
		eng.Run(10 * sim.Millisecond)
		return at
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed runs diverged")
		}
	}
}

func TestGeneratorStopsAtDeadline(t *testing.T) {
	eng := sim.NewEngine()
	var last sim.Time
	g := NewGenerator(eng, Memcached(100000), 5, func(r *Request) { last = r.Arrival })
	g.Start(5 * sim.Millisecond)
	eng.Run(50 * sim.Millisecond)
	if last >= 5*sim.Millisecond {
		t.Fatalf("request emitted at %v, after deadline", last)
	}
}

func TestGeneratorNilSinkPanics(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil sink should panic")
		}
	}()
	NewGenerator(eng, Memcached(1000), 1, nil)
}

// Restarting a generator (warmup window then measurement window) must
// not leave two live arrival chains.
func TestGeneratorRestartNoDuplicates(t *testing.T) {
	eng := sim.NewEngine()
	count := 0
	g := NewGenerator(eng, Memcached(100000), 9, func(*Request) { count++ })
	g.Start(10 * sim.Millisecond)
	eng.Run(10 * sim.Millisecond)
	first := count
	g.Start(eng.Now() + 10*sim.Millisecond) // restart for a second window
	eng.Run(eng.Now() + 10*sim.Millisecond)
	second := count - first
	// Both windows are 10ms at 100k QPS: ~1000 each. A duplicated chain
	// would double the second window.
	if second > first*3/2 {
		t.Fatalf("second window emitted %d vs first %d — duplicated chain?", second, first)
	}
	if second < first/2 {
		t.Fatalf("second window emitted %d vs first %d — generator stalled", second, first)
	}
}

func TestGeneratorStop(t *testing.T) {
	eng := sim.NewEngine()
	count := 0
	g := NewGenerator(eng, Memcached(100000), 9, func(*Request) { count++ })
	g.Start(100 * sim.Millisecond)
	eng.Run(5 * sim.Millisecond)
	g.Stop()
	at := count
	eng.Run(50 * sim.Millisecond)
	if count != at {
		t.Fatalf("emissions after Stop: %d -> %d", at, count)
	}
}

func TestMemcachedAtUtil(t *testing.T) {
	for _, util := range []float64{0.05, 0.10, 0.20} {
		s := MemcachedAtUtil(util, 10)
		// Per-request core time constant folds service + kernel overhead;
		// spec-level utilization (service only) is necessarily below.
		implied := s.MeanQPS() * MemcachedPerRequestCoreTime / 10
		if math.Abs(implied-util) > 1e-9 {
			t.Errorf("util %v: implied %v", util, implied)
		}
	}
}
