// Package integration tests whole-system invariants that no single
// module can check alone: the interplay of cores, links, memory
// controllers, the CLM, both PMUs, the workload and the power meter.
package integration

import (
	"math"
	"testing"
	"testing/quick"

	"agilepkgc/internal/cluster"
	apc "agilepkgc/internal/core"
	"agilepkgc/internal/cpu"
	"agilepkgc/internal/dram"
	"agilepkgc/internal/ios"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/power"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/stats"
	"agilepkgc/internal/trace"
	"agilepkgc/internal/workload"
)

// machine builds one default server of kind fed spec from a generator
// seeded with seed: the one-member fleet every open-loop single machine
// runs on. Hooks attached to the returned system before the first
// f.Run see the whole run.
func machine(t *testing.T, kind soc.ConfigKind, spec workload.Spec, seed uint64) (*cluster.Fleet, *soc.System) {
	t.Helper()
	f, err := cluster.New(cluster.Config{
		Members: []cluster.MemberConfig{{SoC: soc.DefaultConfig(kind), Server: server.DefaultConfig()}},
	}, spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return f, f.Server(0).System()
}

// invariantProbe attaches periodic whole-system checks to a CPC1A run.
type invariantProbe struct {
	t      *testing.T
	sys    *soc.System
	checks uint64
}

func (p *invariantProbe) arm(period sim.Duration) {
	var tick func()
	tick = func() {
		p.check()
		p.sys.Engine.Schedule(period, sim.Func(tick))
	}
	p.sys.Engine.Schedule(period, sim.Func(tick))
}

func (p *invariantProbe) check() {
	p.checks++
	s := p.sys
	anyCoreActive := false
	for _, c := range s.Cores {
		if !c.InCC1().Level() {
			anyCoreActive = true
		}
	}

	// Invariant 1: IO standby is forbidden while any core is awake —
	// the datacenter performance rule APC preserves.
	if anyCoreActive {
		for _, l := range s.Links {
			if l.State() == ios.L0s {
				p.t.Errorf("t=%v: link %s in L0s while a core is active", s.Engine.Now(), l.Name())
			}
		}
	}

	// Invariant 2: settled PC1A implies the full device configuration.
	// During the exit flow the state is still PC1A but InPC1A has
	// already dropped (Fig. 4's concurrent-exit requirement).
	if s.APMU != nil && s.APMU.State() == pmu.PC1A {
		if !s.CLM.PLL().Locked() {
			p.t.Errorf("t=%v: PC1A with CLM PLL off", s.Engine.Now())
		}
		if !s.APMU.Exiting() {
			if !s.CLM.Gated() {
				p.t.Errorf("t=%v: settled PC1A with CLM clock running", s.Engine.Now())
			}
			if !s.APMU.InPC1A().Level() && s.Engine.Now() > 0 {
				// The InPC1A wire rises with entry (same event), so a
				// settled PC1A must have it high — except in the same
				// nanosecond the wake landed, covered by Exiting above.
				p.t.Errorf("t=%v: settled PC1A but InPC1A low", s.Engine.Now())
			}
		}
	}

	// Invariant 3: InPC1A is never high outside PC1A.
	if s.APMU != nil && s.APMU.State() != pmu.PC1A && s.APMU.InPC1A().Level() {
		p.t.Errorf("t=%v: InPC1A high outside PC1A", s.Engine.Now())
	}

	// Invariant 4: the LLC is accessible whenever any core runs (a core
	// in CC0 may issue memory traffic at any time).
	if anyCoreActive {
		for _, c := range s.Cores {
			if c.State() == cpu.CC0 && !s.CLM.Accessible() && s.APMU != nil &&
				s.APMU.State() == pmu.PC0 {
				p.t.Errorf("t=%v: core in CC0 with CLM inaccessible in PC0", s.Engine.Now())
			}
		}
	}

	// Invariant 5: instantaneous power stays within physical bounds.
	tot := s.TotalPower()
	if tot < 10 || tot > 120 {
		p.t.Errorf("t=%v: implausible total power %.1fW", s.Engine.Now(), tot)
	}
}

func TestInvariantsUnderMemcached(t *testing.T) {
	f, sys := machine(t, soc.CPC1A, workload.Memcached(80000), 1)
	probe := &invariantProbe{t: t, sys: sys}
	probe.arm(50 * sim.Microsecond)
	srv := f.Server(0)
	f.Run(200 * sim.Millisecond)
	if probe.checks < 1000 {
		t.Fatalf("probe ran only %d times", probe.checks)
	}
	if srv.Served() != f.Generated() {
		t.Fatalf("lost requests: %d/%d", srv.Served(), f.Generated())
	}
}

func TestInvariantsUnderBurstyKafka(t *testing.T) {
	f, sys := machine(t, soc.CPC1A, workload.Kafka(0.16, 10), 1)
	probe := &invariantProbe{t: t, sys: sys}
	probe.arm(100 * sim.Microsecond)
	srv := f.Server(0)
	f.Run(200 * sim.Millisecond)
	if srv.Served() == 0 {
		t.Fatal("nothing served")
	}
}

// Energy conservation: the meter's integrated energy equals average
// power times elapsed time, and per-domain energies are consistent with
// snapshots taken mid-run.
func TestEnergyConservation(t *testing.T) {
	f, sys := machine(t, soc.CPC1A, workload.Memcached(30000), 1)
	start := sys.Meter.Snapshot()
	f.Run(50 * sim.Millisecond)
	mid := sys.Meter.Snapshot()
	f.Run(50 * sim.Millisecond)

	e1 := start.IntervalEnergy(power.Package) + start.IntervalEnergy(power.DRAM)
	e2 := mid.IntervalEnergy(power.Package) + mid.IntervalEnergy(power.DRAM)
	if e2 >= e1 {
		t.Fatalf("second-half energy %v should be less than whole-run energy %v", e2, e1)
	}
	avg := start.AverageTotal()
	elapsed := start.Elapsed().Seconds()
	if math.Abs(avg*elapsed-e1)/e1 > 1e-9 {
		t.Fatalf("energy %.6f J != avg power × time %.6f J", e1, avg*elapsed)
	}
	// Bounds: between PC1A floor and PC0 ceiling.
	if avg < 29 || avg > 99 {
		t.Fatalf("average power %.1fW outside [PC1A, PC0] envelope", avg)
	}
}

// Timer storms (thermal events, tick storms) must never wedge the APMU:
// fire GPMU wakeups at aggressive rates while load runs.
func TestTimerStormFailureInjection(t *testing.T) {
	f, sys := machine(t, soc.CPC1A, workload.Memcached(50000), 1)
	var storm func()
	storm = func() {
		sys.GPMU.FireTimer()
		sys.Engine.Schedule(37*sim.Microsecond, sim.Func(storm))
	}
	sys.Engine.Schedule(sim.Microsecond, sim.Func(storm))

	srv := f.Server(0)
	f.Run(100 * sim.Millisecond)
	if srv.Served() != f.Generated() {
		t.Fatalf("storm lost requests: %d/%d", srv.Served(), f.Generated())
	}
	// The system must still be able to reach PC1A afterwards.
	if sys.PackageState() != pmu.PC1A {
		t.Fatalf("state %v after storm + drain, want PC1A", sys.PackageState())
	}
	// And it must have cycled PC1A many times during the storm.
	if sys.APMU.Entries(pmu.PC1A) < 100 {
		t.Fatalf("PC1A entries %d during storm, want many", sys.APMU.Entries(pmu.PC1A))
	}
}

// Link flapping: DMA bursts arriving exactly around PC1A entry must
// never deadlock or corrupt the FSM.
func TestLinkFlapFailureInjection(t *testing.T) {
	f, sys := machine(t, soc.CPC1A, workload.Memcached(20000), 1)
	rng := stats.NewRNG(7)
	link := sys.Links[1] // not the NIC
	var flap func()
	flap = func() {
		link.StartTransaction()
		sys.Engine.Schedule(sim.Duration(rng.Uint64()%300)+50, sim.Func(func() {
			link.EndTransaction()
		}))
		sys.Engine.Schedule(sim.Duration(rng.Uint64()%20000)+100, sim.Func(flap))
	}
	sys.Engine.Schedule(10*sim.Microsecond, sim.Func(flap))

	srv := f.Server(0)
	f.Run(100 * sim.Millisecond)
	if srv.Served() != f.Generated() {
		t.Fatalf("flapping lost requests: %d/%d", srv.Served(), f.Generated())
	}
	if sys.APMU.Entries(pmu.PC1A) == 0 {
		t.Fatal("no PC1A entries despite idleness between flaps")
	}
}

// CC6-disabled invariant: a Cshallow/CPC1A system must never see a core
// in CC6 or CC1E, whatever the load pattern.
func TestNoDeepCoreStatesInShallowConfigs(t *testing.T) {
	for _, kind := range []soc.ConfigKind{soc.Cshallow, soc.CPC1A} {
		f, sys := machine(t, kind, workload.MemcachedBursty(30000, 6), 1)
		for _, c := range sys.Cores {
			c.OnTransition(func(old, new cpu.CState) {
				if new == cpu.CC6 || new == cpu.CC1E {
					t.Errorf("%v: core entered %v with deep states disabled", kind, new)
				}
			})
		}
		f.Run(100 * sim.Millisecond)
	}
}

// Cdeep end-to-end: PC6 residency accrues at idle, and its unwinding
// always lands back in a servable system.
func TestCdeepServesAfterPC6(t *testing.T) {
	f, sys := machine(t, soc.Cdeep, workload.Memcached(2000), 1)
	srv := f.Server(0)
	f.Run(300 * sim.Millisecond)
	if srv.Served() != f.Generated() {
		t.Fatalf("lost requests: %d/%d", srv.Served(), f.Generated())
	}
	if sys.GPMU.Entries(pmu.PC6) == 0 {
		t.Fatal("2K QPS on Cdeep should reach PC6 between requests")
	}
	if sys.GPMU.Residency(pmu.PC6) == 0 {
		t.Fatal("no PC6 residency accrued")
	}
}

// Property: for any modest load level, the three configurations preserve
// the paper's power ordering at idle-heavy operating points:
// Cdeep ≤ CPC1A ≤ Cshallow (Cdeep trades latency for power).
func TestPropertyPowerOrdering(t *testing.T) {
	f := func(seed uint64) bool {
		qps := 2000 + float64(seed%30000)
		measure := func(kind soc.ConfigKind) float64 {
			fl, sys := machine(t, kind, workload.Memcached(qps), seed)
			snap := sys.Meter.Snapshot()
			fl.Run(30 * sim.Millisecond)
			return snap.AverageTotal()
		}
		shallow := measure(soc.Cshallow)
		apcW := measure(soc.CPC1A)
		return apcW < shallow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Determinism across the whole stack: identical seeds produce identical
// served counts, latencies, energies and PC1A entry counts.
func TestWholeSystemDeterminism(t *testing.T) {
	run := func() (uint64, float64, float64, uint64) {
		f, sys := machine(t, soc.CPC1A, workload.MemcachedBursty(40000, 4), 1)
		srv := f.Server(0)
		snap := sys.Meter.Snapshot()
		f.Run(50 * sim.Millisecond)
		return srv.Served(), srv.Latencies().Mean(), snap.IntervalEnergy(power.Package),
			sys.APMU.Entries(pmu.PC1A)
	}
	s1, l1, e1, n1 := run()
	s2, l2, e2, n2 := run()
	if s1 != s2 || l1 != l2 || e1 != e2 || n1 != n2 {
		t.Fatalf("runs diverged: (%d %v %v %d) vs (%d %v %v %d)", s1, l1, e1, n1, s2, l2, e2, n2)
	}
}

// The tracer agrees with the APMU about the PC1A opportunity: on a CPC1A
// system, PC1A residency ≈ all-idle residency minus transition slivers.
func TestTracerAPMUAgreement(t *testing.T) {
	f, sys := machine(t, soc.CPC1A, workload.Memcached(30000), 1)
	tr := trace.New(sys.Engine, sys.Cores)
	f.Run(200 * sim.Millisecond)
	tr.Finalize()

	allIdle := tr.AllIdleFraction()
	pc1a := float64(sys.APMU.Residency(pmu.PC1A)) / float64(sys.Engine.Now())
	if pc1a > allIdle {
		t.Fatalf("PC1A residency %v exceeds all-idle fraction %v", pc1a, allIdle)
	}
	if allIdle-pc1a > 0.05 {
		t.Fatalf("PC1A residency %v lags all-idle %v by more than transition slivers", pc1a, allIdle)
	}
}

// DRAM access counters line up with the workload's configured accesses.
func TestMemoryTrafficAccounting(t *testing.T) {
	spec := workload.Memcached(20000)
	f, sys := machine(t, soc.CPC1A, spec, 1)
	srv := f.Server(0)
	f.Run(100 * sim.Millisecond)
	var accesses uint64
	for _, mc := range sys.MCs {
		accesses += mc.Accesses()
	}
	want := srv.Served() * uint64(spec.MemAccesses)
	if accesses != want {
		t.Fatalf("DRAM accesses %d, want %d (%d served × %d)", accesses, want, srv.Served(), spec.MemAccesses)
	}
	// Both controllers interleave evenly.
	d := int64(sys.MCs[0].Accesses()) - int64(sys.MCs[1].Accesses())
	if d < -4 || d > 4 {
		t.Fatalf("interleave skew %d", d)
	}
}

// CKE-off must engage only during system idleness, and the self-refresh
// path must stay untouched on CPC1A systems.
func TestDRAMModesPerConfig(t *testing.T) {
	f, sys := machine(t, soc.CPC1A, workload.Memcached(30000), 1)
	f.Run(100 * sim.Millisecond)
	for _, mc := range sys.MCs {
		if mc.SREntries() != 0 {
			t.Errorf("MC %s entered self-refresh %d times on a CPC1A system", mc.Name(), mc.SREntries())
		}
		if mc.CKEEntries() == 0 {
			t.Errorf("MC %s never used CKE-off", mc.Name())
		}
	}
	_ = dram.PowerDown
	_ = apc.DefaultConfig
}
