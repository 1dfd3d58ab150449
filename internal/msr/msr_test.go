package msr

import (
	"math"
	"testing"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/power"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
)

func TestPowerUnitRegister(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.Cshallow))
	f := New(sys)
	v, err := f.Read(MSRRaplPowerUnit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if esu := (v >> 8) & 0x1F; esu != 16 {
		t.Fatalf("ESU = %d, want 16 (15.3uJ units)", esu)
	}
}

func TestEnergyCounterMatchesMeter(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.Cshallow))
	f := New(sys)
	before, _ := f.Read(MSRPkgEnergyStatus, 0)
	sys.Engine.Run(100 * sim.Millisecond) // idle at ~44 W → 4.4 J
	after, _ := f.Read(MSRPkgEnergyStatus, 0)

	got := EnergyDelta(before, after)
	want := sys.Meter.Energy(power.Package)
	if math.Abs(got-want) > 2*EnergyUnitJoules {
		t.Fatalf("MSR energy %v J vs meter %v J", got, want)
	}
	if got < 4.0 || got > 5.0 {
		t.Fatalf("idle 100ms energy %v J, want ~4.4", got)
	}
}

func TestDramEnergyCounter(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.Cshallow))
	f := New(sys)
	b, _ := f.Read(MSRDramEnergyStatus, 0)
	sys.Engine.Run(100 * sim.Millisecond) // 5.5 W → 0.55 J
	a, _ := f.Read(MSRDramEnergyStatus, 0)
	got := EnergyDelta(b, a)
	if got < 0.5 || got > 0.6 {
		t.Fatalf("DRAM energy %v J, want ~0.55", got)
	}
}

func TestEnergyDeltaWraparound(t *testing.T) {
	// Counter wraps at 2^32 units ≈ 65.5 kJ.
	before := uint64(0xFFFFFF00)
	after := uint64(0x100)
	got := EnergyDelta(before, after)
	want := float64(0x200) * EnergyUnitJoules
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("wrapped delta %v, want %v", got, want)
	}
	if EnergyDelta(5, 5) != 0 {
		t.Fatal("zero delta wrong")
	}
}

func TestCoreResidencyCounters(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.Cshallow))
	m := New(sys)
	sys.Cores[0].Enqueue(cpu.Work{Duration: sim.Millisecond})
	sys.Engine.Run(10 * sim.Millisecond)

	// Core 0: ~9ms CC1 of 10ms (1ms work + 2us wake + 1us entry).
	v, err := m.Read(MSRCoreC1Residency, 0)
	if err != nil {
		t.Fatal(err)
	}
	sec := float64(v) / TSCHz
	if sec < 8.5e-3 || sec > 9.5e-3 {
		t.Fatalf("core0 CC1 residency %v s, want ~9ms", sec)
	}
	// Core 1 idled the whole time.
	v1, _ := m.Read(MSRCoreC1Residency, 1)
	if s1 := float64(v1) / TSCHz; math.Abs(s1-10e-3) > 1e-4 {
		t.Fatalf("core1 CC1 residency %v s, want 10ms", s1)
	}
	// CC6 never used on Cshallow.
	v6, _ := m.Read(MSRCoreC6Residency, 0)
	if v6 != 0 {
		t.Fatalf("CC6 residency %d on Cshallow", v6)
	}
}

func TestPkgResidencyCounters(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.Cdeep))
	m := New(sys)
	sys.ForceAllCC6()
	sys.Engine.Run(sys.Engine.Now() + 50*sim.Millisecond)
	v, err := m.Read(MSRPkgC6Residency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sec := float64(v) / TSCHz; sec < 45e-3 {
		t.Fatalf("PC6 residency %v s of ~50ms deep window", sec)
	}
	v2, _ := m.Read(MSRPkgC2Residency, 0)
	if v2 == 0 {
		t.Fatal("PC2 transient residency should be nonzero")
	}
}

func TestErrors(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.Cshallow))
	f := New(sys)
	if _, err := f.Read(0x123, 0); err == nil {
		t.Fatal("unknown register should error")
	}
	for _, core := range []int{-1, len(sys.Cores), 99} {
		if _, err := f.Read(MSRCoreC1Residency, core); err == nil {
			t.Fatalf("out-of-range core %d should error", core)
		}
	}
}

// TestCoreResidencyReadsCore checks that the core residency registers
// are the cores' own counters converted to TSC ticks: a File opened
// mid-run sees every count since the system was built, on Cshallow
// (CC1 only) and on Cdeep (CC6).
func TestCoreResidencyReadsCore(t *testing.T) {
	for _, kind := range []soc.ConfigKind{soc.Cshallow, soc.Cdeep} {
		sys := soc.New(soc.DefaultConfig(kind))
		if kind == soc.Cdeep {
			sys.ForceAllCC6()
		}
		for i := 0; i < 20; i++ {
			sys.Cores[i%len(sys.Cores)].Enqueue(cpu.Work{Duration: sim.Duration(10+i) * sim.Microsecond})
			sys.Engine.Run(sys.Engine.Now() + 300*sim.Microsecond)
		}
		f := New(sys)
		var cc6 uint64
		for i, c := range sys.Cores {
			for _, r := range []struct {
				addr uint32
				s    cpu.CState
			}{{MSRCoreC1Residency, cpu.CC1}, {MSRCoreC6Residency, cpu.CC6}} {
				v, err := f.Read(r.addr, i)
				if err != nil {
					t.Fatal(err)
				}
				if want := uint64(c.Residency(r.s).Seconds() * TSCHz); v != want {
					t.Fatalf("%v core %d: %v register %d, want %d", kind, i, r.s, v, want)
				}
				if r.s == cpu.CC6 {
					cc6 += v
				}
			}
		}
		if (cc6 > 0) != (kind == soc.Cdeep) {
			t.Fatalf("%v: CC6 residency %d ticks", kind, cc6)
		}
	}
}

// The paper's measurement loop, verbatim: sample both counters around a
// window, divide by wall time — the result must equal the meter's
// average power.
func TestRaplMeasurementIdiom(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.CPC1A))
	f := New(sys)
	sys.Engine.Run(5 * sim.Millisecond) // settle into PC1A

	p0, _ := f.Read(MSRPkgEnergyStatus, 0)
	d0, _ := f.Read(MSRDramEnergyStatus, 0)
	t0 := sys.Engine.Now()
	sys.Engine.Run(t0 + 200*sim.Millisecond)
	p1, _ := f.Read(MSRPkgEnergyStatus, 0)
	d1, _ := f.Read(MSRDramEnergyStatus, 0)

	wall := (sys.Engine.Now() - t0).Seconds()
	pkgW := EnergyDelta(p0, p1) / wall
	dramW := EnergyDelta(d0, d1) / wall
	if math.Abs(pkgW-27.56) > 0.2 {
		t.Fatalf("RAPL package power %v W, want ~27.56 (PC1A)", pkgW)
	}
	if math.Abs(dramW-1.61) > 0.05 {
		t.Fatalf("RAPL DRAM power %v W, want ~1.61 (PC1A)", dramW)
	}
}
