package trace

import (
	"strings"
	"testing"

	apc "agilepkgc/internal/core"
	"agilepkgc/internal/cpu"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
)

func newAPCSystem() *soc.System {
	return soc.New(soc.DefaultConfig(soc.CPC1A))
}

func TestPkgTracerResidency(t *testing.T) {
	sys := newAPCSystem()
	pt := NewPkgTracer(sys.Engine, sys.APMU, 1024)
	sys.Engine.Run(10 * sim.Millisecond)
	pt.Finalize()
	if f := pt.ResidencyFraction(pmu.PC1A); f < 0.999 {
		t.Fatalf("idle PC1A residency %v, want ~1", f)
	}
	if pt.Entries(pmu.PC1A) != 1 {
		t.Fatalf("PC1A entries = %d, want 1", pt.Entries(pmu.PC1A))
	}
}

func TestPkgTracerEventsAndCSV(t *testing.T) {
	sys := newAPCSystem()
	pt := NewPkgTracer(sys.Engine, sys.APMU, 1024)
	sys.Engine.Run(sim.Millisecond)
	for i := 0; i < 5; i++ {
		sys.Cores[0].Enqueue(cpu.Work{Duration: 3 * sim.Microsecond})
		sys.Engine.Run(sys.Engine.Now() + 100*sim.Microsecond)
	}
	pt.Finalize()

	evs := pt.Events()
	if len(evs) < 15 { // 5 × (PC1A→ACC1→PC0→ACC1→PC1A-ish)
		t.Fatalf("only %d events", len(evs))
	}
	// Events are time-ordered and chain (to of one == from of next).
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("events out of order")
		}
		if evs[i].From != evs[i-1].To {
			t.Fatalf("event chain broken at %d: %v -> %v then %v", i, evs[i-1].From, evs[i-1].To, evs[i].From)
		}
	}

	var sb strings.Builder
	if err := pt.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "time_ns,from,to" {
		t.Fatalf("csv header wrong: %q", lines[0])
	}
	if len(lines) != len(evs)+1 {
		t.Fatalf("csv rows %d, want %d", len(lines)-1, len(evs))
	}
	if pt.Summary() == "" {
		t.Fatal("summary empty")
	}
}

func TestPkgTracerRingEviction(t *testing.T) {
	sys := newAPCSystem()
	pt := NewPkgTracer(sys.Engine, sys.APMU, 8)
	sys.Engine.Run(sim.Millisecond)
	for i := 0; i < 20; i++ {
		sys.Cores[i%10].Enqueue(cpu.Work{Duration: 2 * sim.Microsecond})
		sys.Engine.Run(sys.Engine.Now() + 50*sim.Microsecond)
	}
	if len(pt.Events()) > 8 {
		t.Fatalf("ring grew past capacity: %d", len(pt.Events()))
	}
	if pt.Dropped() == 0 {
		t.Fatal("expected evictions")
	}
}

func TestPkgTracerWorksWithGPMU(t *testing.T) {
	sys := soc.New(soc.DefaultConfig(soc.Cdeep))
	pt := NewPkgTracer(sys.Engine, sys.GPMU, 256)
	sys.ForceAllCC6()
	pt.Finalize()
	if pt.Entries(pmu.PC6) == 0 {
		t.Fatal("GPMU PC6 entry not traced")
	}
	if pt.ResidencyFraction(pmu.PC6) < 0.1 {
		t.Fatalf("PC6 residency %v too small", pt.ResidencyFraction(pmu.PC6))
	}
}

func TestPkgTracerCapPanics(t *testing.T) {
	sys := newAPCSystem()
	defer func() {
		if recover() == nil {
			t.Fatal("cap 0 should panic")
		}
	}()
	NewPkgTracer(sys.Engine, sys.APMU, 0)
}

func TestIdlePeriodsCSV(t *testing.T) {
	sys := newAPCSystem()
	tr := New(sys.Engine, sys.Cores)
	for i := 0; i < 10; i++ {
		sys.Cores[0].Enqueue(cpu.Work{Duration: 5 * sim.Microsecond})
		sys.Engine.Run(sys.Engine.Now() + 80*sim.Microsecond)
	}
	tr.Finalize()
	var sb strings.Builder
	if err := tr.WriteIdlePeriodsCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "quantile,idle_period_seconds" || len(lines) != 8 {
		t.Fatalf("csv shape wrong: %d lines", len(lines))
	}
}

// Keep the apc import honest (the tracer is generic over both PMUs).
var _ PkgStateSource = (*apc.APMU)(nil)
var _ PkgStateSource = (*pmu.GPMU)(nil)

// TestPerStateAccountingArrays pins the fixed-array accounting: the
// summary lists exactly the states whose residency interval closed (a
// state never occupied is absent, not printed at 0%), and every
// accessor reads 0 for a value that names no state.
func TestPerStateAccountingArrays(t *testing.T) {
	sys := newAPCSystem()
	pt := NewPkgTracer(sys.Engine, sys.APMU, 1024)
	tr := New(sys.Engine, sys.Cores)
	sys.Engine.Run(sim.Millisecond)
	sys.Cores[0].Enqueue(cpu.Work{Duration: 3 * sim.Microsecond})
	sys.Engine.Run(2 * sim.Millisecond)
	pt.Finalize()
	tr.Finalize()
	if got, want := pt.Summary(), "PC1A=99.71% PC0=0.29% ACC1=0.00%"; got != want {
		t.Fatalf("summary %q, want %q", got, want)
	}
	for _, s := range []pmu.PkgState{-1, pmu.PkgState(pmu.NumPkgStates), 99} {
		if pt.Residency(s) != 0 || pt.ResidencyFraction(s) != 0 || pt.Entries(s) != 0 ||
			sys.APMU.Residency(s) != 0 || sys.APMU.Entries(s) != 0 {
			t.Errorf("%v: non-zero accounting for a value that names no state", s)
		}
	}
	for _, s := range []cpu.CState{-1, cpu.CState(cpu.NumCStates), 99} {
		if tr.CoreResidency(0, s) != 0 || tr.MeanResidency(s) != 0 {
			t.Errorf("%v: non-zero residency for a value that names no state", s)
		}
	}
	if tr.CoreResidency(0, cpu.CC1) == 0 || sys.APMU.Entries(pmu.PC1A) != 2 {
		t.Errorf("known states lost their accounting: CC1 %v, PC1A entries %d",
			tr.CoreResidency(0, cpu.CC1), sys.APMU.Entries(pmu.PC1A))
	}
}
