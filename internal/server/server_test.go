package server_test

import (
	"testing"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// machine builds one server of kind behind cfg, fed spec by the
// one-member fleet that drives every open-loop single machine.
func machine(t *testing.T, kind soc.ConfigKind, cfg server.Config, spec workload.Spec) *cluster.Fleet {
	t.Helper()
	f, err := cluster.New(cluster.Config{
		Members: []cluster.MemberConfig{{SoC: soc.DefaultConfig(kind), Server: cfg}},
	}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// runServer serves spec on a default server for d, then drains.
func runServer(t *testing.T, kind soc.ConfigKind, spec workload.Spec, d sim.Duration) (*server.Server, *cluster.Fleet) {
	t.Helper()
	f := machine(t, kind, server.DefaultConfig(), spec)
	f.Run(d)
	return f.Server(0), f
}

func TestServesAllRequests(t *testing.T) {
	srv, f := runServer(t, soc.Cshallow, workload.Memcached(50000), 50*sim.Millisecond)
	if srv.Served() == 0 {
		t.Fatal("nothing served")
	}
	if srv.Served() != f.Generated() {
		t.Fatalf("served %d != generated %d (lost requests)", srv.Served(), f.Generated())
	}
	// ~2500 requests in 50ms at 50k QPS.
	if srv.Served() < 2200 || srv.Served() > 2800 {
		t.Fatalf("served %d, want ~2500", srv.Served())
	}
}

func TestLatencyIncludesNetworkFloor(t *testing.T) {
	srv, _ := runServer(t, soc.Cshallow, workload.Memcached(10000), 50*sim.Millisecond)
	h := srv.Latencies()
	// Minimum possible: network 117us + NIC + wake 2us + service floor.
	if h.Min() < 117e-6 {
		t.Fatalf("min latency %v below the network floor", h.Min())
	}
	// At low load on Cshallow, mean should be ~117 + ~5 + ~16 + wake ~2 ≈ 140us.
	if m := h.Mean(); m < 125e-6 || m > 175e-6 {
		t.Fatalf("mean latency %v, want ~140us", m)
	}
}

// Cdeep must exhibit visibly worse latency than Cshallow at low load —
// paper Fig. 5's headline.
func TestCdeepLatencyPenalty(t *testing.T) {
	shallow, _ := runServer(t, soc.Cshallow, workload.Memcached(20000), 100*sim.Millisecond)
	deep, _ := runServer(t, soc.Cdeep, workload.Memcached(20000), 100*sim.Millisecond)
	ms, md := shallow.Latencies().Mean(), deep.Latencies().Mean()
	if md <= ms*1.2 {
		t.Fatalf("Cdeep mean %v should be well above Cshallow %v (CC6 wakes + powersave)", md, ms)
	}
	ps, pd := shallow.Latencies().Quantile(0.99), deep.Latencies().Quantile(0.99)
	if pd <= ps {
		t.Fatalf("Cdeep p99 %v should exceed Cshallow %v", pd, ps)
	}
}

// A CPC1A system under load must still serve everything, ending in PC1A
// when idle, and its latency must be within a whisker of Cshallow —
// paper Fig. 7(c): < 0.1% degradation.
func TestPC1ALatencyImpactNegligible(t *testing.T) {
	spec := workload.Memcached(50000)
	shallow, _ := runServer(t, soc.Cshallow, spec, 200*sim.Millisecond)
	apc, f := runServer(t, soc.CPC1A, spec, 200*sim.Millisecond)

	if apc.Served() != f.Generated() {
		t.Fatal("APC system lost requests")
	}
	ms, ma := shallow.Latencies().Mean(), apc.Latencies().Mean()
	rel := (ma - ms) / ms
	if rel > 0.002 {
		t.Fatalf("PC1A latency impact %.4f%%, paper claims <0.1%% (means %v vs %v)", rel*100, ma, ms)
	}
	// And the system actually used PC1A.
	sys := apc.System()
	if sys.APMU.Entries(pmu.PC1A) == 0 {
		t.Fatal("APMU never entered PC1A under low load")
	}
	if sys.PackageState() != pmu.PC1A {
		t.Fatalf("final state %v, want PC1A after drain", sys.PackageState())
	}
}

// Power ordering under identical load: CPC1A strictly below Cshallow.
func TestPC1ASavesPowerUnderLoad(t *testing.T) {
	spec := workload.Memcached(20000)

	power := func(kind soc.ConfigKind) float64 {
		f := machine(t, kind, server.DefaultConfig(), spec)
		snap := f.Server(0).System().Meter.Snapshot()
		f.Run(100 * sim.Millisecond)
		return snap.AverageTotal()
	}
	powS := power(soc.Cshallow)
	powA := power(soc.CPC1A)

	if powA >= powS {
		t.Fatalf("CPC1A power %.2fW should be below Cshallow %.2fW", powA, powS)
	}
	saving := (powS - powA) / powS
	if saving < 0.10 {
		t.Fatalf("saving %.1f%% at 20k QPS, expect >10%%", saving*100)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, float64) {
		srv, _ := runServer(t, soc.CPC1A, workload.Memcached(30000), 30*sim.Millisecond)
		return srv.Served(), srv.Latencies().Mean()
	}
	s1, m1 := run()
	s2, m2 := run()
	if s1 != s2 || m1 != m2 {
		t.Fatalf("same-seed runs diverged: %d/%v vs %d/%v", s1, m1, s2, m2)
	}
}

func TestHighLoadSaturation(t *testing.T) {
	// 600k QPS at ~21us/req on 10 cores is ~126% offered load: the
	// system must saturate (served < generated) without deadlocking.
	srv, _ := runServer(t, soc.Cshallow, workload.Memcached(600000), 50*sim.Millisecond)
	sys := srv.System()
	if srv.Served() == 0 {
		t.Fatal("nothing served at saturation")
	}
	util := 0.0
	for _, c := range sys.Cores {
		_ = c
		util++
	}
	// p99 should be far above the unloaded floor.
	if srv.Latencies().Quantile(0.99) < 500e-6 {
		t.Fatalf("p99 %v at overload, want heavy queueing", srv.Latencies().Quantile(0.99))
	}
}

func TestClosedLoopServer(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.CPC1A))
	srv := server.NewClosedLoop(sys, server.DefaultConfig())
	cl := workload.SysbenchOLTP(sys.Engine, 16, 1e-3, 1, srv.Submit)
	cl.Start()
	sys.Engine.Run(100 * sim.Millisecond)
	cl.Stop()
	sys.Engine.Run(sys.Engine.Now() + 10*sim.Millisecond)

	if srv.Served() == 0 || cl.Completed() == 0 {
		t.Fatal("closed-loop server served nothing")
	}
	if srv.Served() < cl.Completed() {
		t.Fatalf("served %d < completed %d", srv.Served(), cl.Completed())
	}
	// Latency floor still includes the network component.
	if srv.Latencies().Min() < 117e-6 {
		t.Fatalf("min latency %v below network floor", srv.Latencies().Min())
	}
}

// Timer ticks erode the PC1A opportunity: a tickful kernel must show
// strictly less PC1A residency than a tickless one at the same load.
func TestTimerTicksErodePC1A(t *testing.T) {
	residency := func(tickHz float64) float64 {
		cfg := server.DefaultConfig()
		cfg.TimerTickHz = tickHz
		cfg.TickKernelTime = 5 * sim.Microsecond
		f := machine(t, soc.CPC1A, cfg, workload.Memcached(10000))
		f.Run(100 * sim.Millisecond)
		sys := f.Server(0).System()
		return float64(sys.APMU.Residency(pmu.PC1A)) / float64(sys.Engine.Now())
	}
	tickless := residency(0)
	tickful := residency(250)
	if tickful >= tickless {
		t.Fatalf("250Hz ticks should erode PC1A residency: %v vs %v", tickful, tickless)
	}
	if tickless-tickful < 0.01 {
		t.Fatalf("erosion implausibly small: %v vs %v", tickful, tickless)
	}
	// But the system still functions and reaches PC1A between ticks.
	if tickful < 0.3 {
		t.Fatalf("tickful residency %v collapsed entirely", tickful)
	}
}

// TestSecondWaveAllocFree checks that the per-request records are
// recycled: once a wave of concurrent requests has been served, an
// equal wave allocates nothing.
func TestSecondWaveAllocFree(t *testing.T) {
	const k = 32
	sys := soc.New(soc.DefaultConfig(soc.CPC1A))
	srv := server.NewClosedLoop(sys, server.DefaultConfig())
	reqs := make([]workload.Request, k)
	served := 0
	done := sim.Func(func() { served++ })
	wave := func() {
		for i := range reqs {
			reqs[i] = workload.Request{
				ID:          uint64(i),
				Arrival:     sys.Engine.Now(),
				Service:     20 * sim.Microsecond,
				Conn:        i,
				MemAccesses: 10,
			}
			srv.Submit(&reqs[i], done)
		}
		sys.Engine.Run(sys.Engine.Now() + 10*sim.Millisecond)
	}
	if allocs := testing.AllocsPerRun(1, wave); allocs != 0 {
		t.Errorf("second wave of %d requests: %v allocations, want 0", k, allocs)
	}
	if served != 2*k {
		t.Fatalf("served %d of %d requests", served, 2*k)
	}
}
