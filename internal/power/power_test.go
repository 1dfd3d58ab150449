package power

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"agilepkgc/internal/sim"
)

func almost(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestDomainString(t *testing.T) {
	if Package.String() != "Package" || DRAM.String() != "DRAM" {
		t.Fatal("domain names wrong")
	}
	if !strings.Contains(Domain(9).String(), "9") {
		t.Fatal("unknown domain should include number")
	}
}

func TestEnergyIntegration(t *testing.T) {
	eng := sim.NewEngine()
	m := new(Meter).Init(eng)
	c := m.Channel(sim.Named("core0"), Package)
	c.Set(10) // 10 W from t=0

	eng.Schedule(sim.Second, sim.Func(func() { c.Set(2) })) // 2 W from t=1s
	eng.Run(3 * sim.Second)

	// 10 W × 1 s + 2 W × 2 s = 14 J
	if got := m.Energy(Package); !almost(got, 14, 1e-12) {
		t.Fatalf("Energy = %v J, want 14", got)
	}
	if got := c.Energy(); !almost(got, 14, 1e-12) {
		t.Fatalf("channel Energy = %v J, want 14", got)
	}
}

func TestInstantaneousPower(t *testing.T) {
	eng := sim.NewEngine()
	m := new(Meter).Init(eng)
	a := m.Channel(sim.Named("a"), Package)
	b := m.Channel(sim.Named("b"), Package)
	d := m.Channel(sim.Named("d"), DRAM)
	a.Set(5)
	b.Set(7)
	d.Set(3)
	if m.Power(Package) != 12 {
		t.Fatalf("Package power = %v", m.Power(Package))
	}
	if m.Power(DRAM) != 3 {
		t.Fatalf("DRAM power = %v", m.Power(DRAM))
	}
	if m.TotalPower() != 15 {
		t.Fatalf("TotalPower = %v", m.TotalPower())
	}
}

func TestDomainsIsolated(t *testing.T) {
	eng := sim.NewEngine()
	m := new(Meter).Init(eng)
	p := m.Channel(sim.Named("soc"), Package)
	d := m.Channel(sim.Named("dimm"), DRAM)
	p.Set(40)
	d.Set(5)
	eng.Run(2 * sim.Second)
	if !almost(m.Energy(Package), 80, 1e-12) {
		t.Errorf("Package energy %v, want 80", m.Energy(Package))
	}
	if !almost(m.Energy(DRAM), 10, 1e-12) {
		t.Errorf("DRAM energy %v, want 10", m.Energy(DRAM))
	}
}

func TestSnapshotInterval(t *testing.T) {
	eng := sim.NewEngine()
	m := new(Meter).Init(eng)
	c := m.Channel(sim.Named("x"), Package)
	c.Set(100)
	eng.Run(sim.Second)

	snap := m.Snapshot()
	eng.Schedule(sim.Second, sim.Func(func() { c.Set(50) }))
	eng.Run(3 * sim.Second) // 2s since snapshot: 100*1 + 50*1 = 150 J

	if got := snap.IntervalEnergy(Package); !almost(got, 150, 1e-12) {
		t.Fatalf("IntervalEnergy = %v, want 150", got)
	}
	if got := snap.AveragePower(Package); !almost(got, 75, 1e-12) {
		t.Fatalf("AveragePower = %v, want 75", got)
	}
	if snap.Elapsed() != 2*sim.Second {
		t.Fatalf("Elapsed = %v", snap.Elapsed())
	}
}

func TestSnapshotZeroElapsed(t *testing.T) {
	eng := sim.NewEngine()
	m := new(Meter).Init(eng)
	c := m.Channel(sim.Named("x"), Package)
	c.Set(33)
	snap := m.Snapshot()
	if got := snap.AveragePower(Package); got != 33 {
		t.Fatalf("zero-interval average should fall back to instantaneous, got %v", got)
	}
}

func TestSnapshotAverageTotal(t *testing.T) {
	eng := sim.NewEngine()
	m := new(Meter).Init(eng)
	p := m.Channel(sim.Named("soc"), Package)
	d := m.Channel(sim.Named("mem"), DRAM)
	p.Set(20)
	d.Set(4)
	snap := m.Snapshot()
	eng.Run(sim.Second)
	if got := snap.AverageTotal(); !almost(got, 24, 1e-12) {
		t.Fatalf("AverageTotal = %v, want 24", got)
	}
}

func TestChannelRegistrationErrors(t *testing.T) {
	eng := sim.NewEngine()
	m := new(Meter).Init(eng)
	m.Channel(sim.Named("dup"), Package)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate name should panic")
			}
		}()
		m.Channel(sim.Named("dup"), DRAM)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid domain should panic")
			}
		}()
		m.Channel(sim.Named("bad"), Domain(99))
	}()
}

func TestNegativePowerPanics(t *testing.T) {
	eng := sim.NewEngine()
	m := new(Meter).Init(eng)
	c := m.Channel(sim.Named("c"), Package)
	defer func() {
		if recover() == nil {
			t.Fatal("negative power should panic")
		}
	}()
	c.Set(-1)
}

func TestLookup(t *testing.T) {
	eng := sim.NewEngine()
	m := new(Meter).Init(eng)
	c := m.Channel(sim.Named("core3"), Package)
	if m.Lookup("core3") != c {
		t.Fatal("Lookup failed")
	}
	if m.Lookup("nope") != nil {
		t.Fatal("Lookup of missing name should be nil")
	}
	if c.Name() != "core3" {
		t.Fatal("Name() wrong")
	}
}

// Property: total energy equals the sum over channels regardless of the
// update pattern, and equals watts×time for piecewise-constant schedules.
func TestPropertyEnergyConservation(t *testing.T) {
	f := func(levels []uint8) bool {
		if len(levels) == 0 || len(levels) > 50 {
			return true
		}
		eng := sim.NewEngine()
		m := new(Meter).Init(eng)
		c := m.Channel(sim.Named("c"), Package)
		expect := 0.0
		step := sim.Microsecond
		for i, lv := range levels {
			w := float64(lv)
			at := sim.Time(i) * step
			eng.At(at, sim.Func(func() { c.Set(w) }))
			expect += w * step.Seconds()
		}
		eng.Run(sim.Time(len(levels)) * step)
		return almost(m.Energy(Package), expect, 1e-9) || m.Energy(Package) == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: energy counters are monotone nondecreasing over time.
func TestPropertyEnergyMonotone(t *testing.T) {
	eng := sim.NewEngine()
	m := new(Meter).Init(eng)
	c := m.Channel(sim.Named("c"), Package)
	prev := 0.0
	for i := 0; i < 100; i++ {
		c.Set(float64(i % 7))
		eng.Run(eng.Now() + sim.Millisecond)
		e := m.Energy(Package)
		if e < prev {
			t.Fatalf("energy decreased: %v -> %v", prev, e)
		}
		prev = e
	}
}

// TestLookupMatchesComposedNames pins that a channel registered under
// an indexed name answers to its composed spelling, and that a second
// spelling of a registered name is still a duplicate.
func TestLookupMatchesComposedNames(t *testing.T) {
	eng := sim.NewEngine()
	m := new(Meter).Init(eng)
	c := m.Channel(sim.Indexed("pcie", 2).With(".pll"), Package)
	if m.Lookup("pcie2.pll") != c || c.Name() != "pcie2.pll" {
		t.Fatalf("indexed channel not found by its composed name %q", c.Name())
	}
	if m.Lookup("pcie2") != nil || m.Lookup("pcie.pll") != nil {
		t.Fatal("a lookup matched a partial name")
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Lookup("pcie2.pll") }); allocs != 0 {
		t.Errorf("Lookup allocated %v times, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering pcie2.pll under a second spelling did not panic")
		}
	}()
	m.Channel(sim.Named("pcie2.pll"), Package)
}
