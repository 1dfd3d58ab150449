package trace

import (
	"strings"
	"testing"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/signal"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
)

func TestVCDBasic(t *testing.T) {
	eng := sim.NewEngine()
	a := new(signal.Signal).Init(sim.Named("InCC1"), false)
	b := new(signal.Signal).Init(sim.Named("AllowL0s"), true)
	p := NewSignalProbe(eng, 1000, a, b)

	eng.Schedule(10, sim.Func(func() { a.Set() }))
	eng.Schedule(20, sim.Func(func() { b.Unset() }))
	eng.Schedule(20, sim.Func(func() { a.Unset() }))
	eng.Run(100)

	if p.Changes() != 3 {
		t.Fatalf("changes = %d, want 3", p.Changes())
	}
	var sb strings.Builder
	if err := p.WriteVCD(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"$var wire 1 ! InCC1 $end",
		"$var wire 1 \" AllowL0s $end",
		"#0", "#10", "#20",
		"$dumpvars",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
	// Initial values: InCC1 low, AllowL0s high.
	if !strings.Contains(out, "0!") || !strings.Contains(out, "1\"") {
		t.Errorf("initial values wrong:\n%s", out)
	}
}

func TestVCDBufferBound(t *testing.T) {
	eng := sim.NewEngine()
	s := new(signal.Signal).Init(sim.Named("x"), false)
	p := NewSignalProbe(eng, 5, s)
	for i := 0; i < 20; i++ {
		s.SetLevel(i%2 == 0)
	}
	if p.Changes() > 5 {
		t.Fatalf("buffer exceeded: %d", p.Changes())
	}
	if p.Dropped() == 0 {
		t.Fatal("drops not counted")
	}
}

func TestVCDDuplicateNamePanics(t *testing.T) {
	eng := sim.NewEngine()
	a := new(signal.Signal).Init(sim.Named("dup"), false)
	b := new(signal.Signal).Init(sim.Named("dup"), false)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate wire names should panic")
		}
	}()
	NewSignalProbe(eng, 10, a, b)
}

func TestVCDCapPanics(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero cap should panic")
		}
	}()
	NewSignalProbe(eng, 0)
}

// Probe the real APC fabric through one PC1A entry/exit cycle and check
// the waveform tells the Fig. 4 story in order:
// AllowL0s ↑ … InL0s ↑ … InPC1A ↑ … (wake) InPC1A ↓ …
func TestVCDOnAPCFabric(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.CPC1A))
	wires := []*signal.Signal{
		sys.Links[0].AllowL0s(),
		sys.Links[0].InL0s(),
		sys.MCs[0].AllowCKEOff(),
		sys.APMU.InPC1A(),
	}
	p := NewSignalProbe(sys.Engine, 10000, wires...)
	sys.Engine.Run(sim.Millisecond)
	sys.Cores[0].Enqueue(cpu.Work{Duration: 2 * sim.Microsecond})
	sys.Engine.Run(sys.Engine.Now() + sim.Millisecond)

	var sb strings.Builder
	if err := p.WriteVCD(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if p.Changes() < 6 {
		t.Fatalf("only %d changes through a full cycle", p.Changes())
	}
	// The InPC1A wire must both rise and fall in the dump.
	id := "$" // 4th wire → index 3 → id "$"
	if !strings.Contains(out, "1"+id) || !strings.Contains(out, "0"+id) {
		t.Errorf("InPC1A did not toggle in VCD:\n%s", out[:min(len(out), 800)])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
