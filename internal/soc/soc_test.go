package soc

import (
	"math"
	"math/rand"
	"testing"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/dram"
	"agilepkgc/internal/ios"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/power"
	"agilepkgc/internal/sim"
)

func approx(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestConfigKindString(t *testing.T) {
	if Cshallow.String() != "Cshallow" || Cdeep.String() != "Cdeep" || CPC1A.String() != "C_PC1A" {
		t.Fatal("config names wrong")
	}
	if ConfigKind(9).String() != "ConfigKind(9)" {
		t.Fatal("unknown format wrong")
	}
}

func TestAssemblyCounts(t *testing.T) {
	s := New(DefaultConfig(CPC1A))
	if len(s.Cores) != 10 {
		t.Fatalf("cores = %d, want 10 (Xeon Silver 4114)", len(s.Cores))
	}
	if len(s.Links) != 6 {
		t.Fatalf("links = %d, want 6 (3 PCIe + 1 DMI + 2 UPI)", len(s.Links))
	}
	if len(s.MCs) != 2 {
		t.Fatalf("MCs = %d, want 2", len(s.MCs))
	}
	if len(s.PLLs) != 8 {
		t.Fatalf("non-core PLLs = %d, want 8 (paper Sec 5.4)", len(s.PLLs))
	}
	if s.APMU == nil {
		t.Fatal("CPC1A system must have an APMU")
	}
	if New(DefaultConfig(Cshallow)).APMU != nil {
		t.Fatal("Cshallow system must not have an APMU")
	}
	if s.NICLink().Kind() != ios.PCIe {
		t.Fatal("NIC should ride the first PCIe link")
	}
}

// Paper Table 1, PC0idle row: all cores in CC1 → SoC 44 W, DRAM 5.5 W.
func TestPC0IdlePowerMatchesTable1(t *testing.T) {
	s := New(DefaultConfig(Cshallow))
	s.Engine.Run(sim.Millisecond)
	if !s.AllCoresIdle() {
		t.Fatal("system should be idle")
	}
	socW, dramW := s.SoCPower(), s.DRAMPower()
	if !approx(socW, 44.0, 0.5) {
		t.Errorf("PC0idle SoC power %.3f W, want 44 W (Table 1)", socW)
	}
	if !approx(dramW, 5.5, 0.1) {
		t.Errorf("PC0idle DRAM power %.3f W, want 5.5 W (Table 1)", dramW)
	}
	// Uncore+DRAM share: paper Sec. 2 says >65% of SoC+DRAM power.
	coreW := 10 * 1.25
	share := (socW + dramW - coreW) / (socW + dramW)
	if share < 0.65 {
		t.Errorf("uncore+DRAM share %.2f, paper says >0.65", share)
	}
}

// Paper Table 1, PC1A row: SoC 27.5 W, DRAM 1.6 W.
func TestPC1APowerMatchesTable1(t *testing.T) {
	s := New(DefaultConfig(CPC1A))
	s.Engine.Run(sim.Millisecond)
	if s.PackageState() != pmu.PC1A {
		t.Fatalf("state %v, want PC1A", s.PackageState())
	}
	socW, dramW := s.SoCPower(), s.DRAMPower()
	if !approx(socW, 27.5, 0.5) {
		t.Errorf("PC1A SoC power %.3f W, want 27.5 W (Table 1)", socW)
	}
	if !approx(dramW, 1.6, 0.1) {
		t.Errorf("PC1A DRAM power %.3f W, want 1.6 W (Table 1)", dramW)
	}
}

// Paper Table 1, PC6 row: SoC 12 W, DRAM 0.5 W.
func TestPC6PowerMatchesTable1(t *testing.T) {
	s := New(DefaultConfig(Cdeep))
	s.ForceAllCC6()
	if s.PackageState() != pmu.PC6 {
		t.Fatalf("state %v, want PC6", s.PackageState())
	}
	socW, dramW := s.SoCPower(), s.DRAMPower()
	if !approx(socW, 12.0, 0.5) {
		t.Errorf("PC6 SoC power %.3f W, want 12 W (Table 1)", socW)
	}
	if !approx(dramW, 0.5, 0.1) {
		t.Errorf("PC6 DRAM power %.3f W, want 0.5 W (Table 1)", dramW)
	}
}

// Paper Table 1, PC0 row: all cores active ≤ 85 W SoC.
func TestPC0ActivePower(t *testing.T) {
	s := New(DefaultConfig(Cshallow))
	for _, c := range s.Cores {
		c.Enqueue(cpu.Work{Duration: sim.Millisecond})
	}
	s.Engine.Run(500 * sim.Microsecond)
	socW := s.SoCPower()
	if socW > 85.5 || socW < 80 {
		t.Errorf("PC0 all-active SoC power %.3f W, want ≤85 W and near it", socW)
	}
}

// Cshallow never leaves PC0; CPC1A reaches PC1A; Cdeep reaches PC6.
func TestPackageStatePerConfig(t *testing.T) {
	sh := New(DefaultConfig(Cshallow))
	sh.Engine.Run(10 * sim.Millisecond)
	if sh.PackageState() != pmu.PC0 {
		t.Errorf("Cshallow state %v, want PC0", sh.PackageState())
	}
	ap := New(DefaultConfig(CPC1A))
	ap.Engine.Run(10 * sim.Millisecond)
	if ap.PackageState() != pmu.PC1A {
		t.Errorf("CPC1A state %v, want PC1A", ap.PackageState())
	}
	dp := New(DefaultConfig(Cdeep))
	dp.ForceAllCC6()
	if dp.PackageState() != pmu.PC6 {
		t.Errorf("Cdeep state %v, want PC6", dp.PackageState())
	}
}

func TestMemAccessInterleaves(t *testing.T) {
	s := New(DefaultConfig(Cshallow))
	s.MemAccess(4)
	s.Engine.Run(sim.Microsecond)
	if s.MCs[0].Accesses() != 2 || s.MCs[1].Accesses() != 2 {
		t.Fatalf("accesses %d/%d, want 2/2 interleaved", s.MCs[0].Accesses(), s.MCs[1].Accesses())
	}
}

func TestAblationNoCLMRetention(t *testing.T) {
	cfg := DefaultConfig(CPC1A)
	cfg.NoCLMRetention = true
	s := New(cfg)
	s.Engine.Run(sim.Millisecond)
	if s.PackageState() != pmu.PC1A {
		t.Fatal("ablated system should still enter PC1A")
	}
	// Without CLMR the CLM stays at gated power (9.0) instead of 4.6:
	// PC1A SoC power rises by 4.4 W.
	if !approx(s.SoCPower(), 27.5+4.4, 0.5) {
		t.Errorf("no-CLMR PC1A SoC power %.3f, want ~31.9", s.SoCPower())
	}
}

func TestAblationNoCKEOff(t *testing.T) {
	cfg := DefaultConfig(CPC1A)
	cfg.NoCKEOff = true
	s := New(cfg)
	s.Engine.Run(sim.Millisecond)
	// DRAM stays at active power.
	if !approx(s.DRAMPower(), 5.5, 0.1) {
		t.Errorf("no-CKE DRAM power %.3f, want 5.5", s.DRAMPower())
	}
}

func TestAblationNoIOStandby(t *testing.T) {
	cfg := DefaultConfig(CPC1A)
	cfg.NoIOStandby = true
	s := New(cfg)
	s.Engine.Run(sim.Millisecond)
	// Links draw active power even in "standby": +30% of 9 W = +2.7 W.
	if !approx(s.SoCPower(), 27.5+2.7, 0.5) {
		t.Errorf("no-IOSM PC1A SoC power %.3f, want ~30.2", s.SoCPower())
	}
}

func TestInvalidCoreCountPanics(t *testing.T) {
	cfg := DefaultConfig(Cshallow)
	cfg.CoreCount = 0
	defer func() {
		if recover() == nil {
			t.Fatal("zero cores should panic")
		}
	}()
	New(cfg)
}

// DRAM access from PC1A pays the CKE exit (24 ns), not the multi-µs
// self-refresh exit PC6 would impose.
func TestPC1AMemoryWakePenalty(t *testing.T) {
	s := New(DefaultConfig(CPC1A))
	s.Engine.Run(sim.Millisecond)
	if s.MCs[0].Mode() != dram.PowerDown {
		t.Fatal("MC should be in CKE-off in PC1A")
	}
	lat := s.MCs[0].Access(nil)
	base := s.Cfg.MCParams.AccessLatency
	if lat != base+24*sim.Nanosecond {
		t.Fatalf("PC1A memory access latency %v, want base+24ns", lat)
	}
}

// Golden decomposition: the per-channel breakdown at PC0idle must match
// the DESIGN.md calibration table.
func TestGoldenPowerBreakdown(t *testing.T) {
	s := New(DefaultConfig(Cshallow))
	s.Engine.Run(sim.Millisecond)
	checks := map[string]float64{
		"core0":    1.25,
		"clm":      18.1,
		"northcap": 3.4,
		"pcie0":    1.4,
		"dmi0":     1.4,
		"upi0":     1.7,
		"mc0":      0.5,
		"clm.pll":  0.007,
		"gpmu.pll": 0.007,
	}
	for name, want := range checks {
		ch := s.Meter.Lookup(name)
		if ch == nil {
			t.Errorf("channel %q missing", name)
			continue
		}
		if got := ch.Watts(); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v W, want %v", name, got, want)
		}
	}
	dimm := s.Meter.Lookup("dimm0")
	if dimm == nil || math.Abs(dimm.Watts()-2.75) > 1e-9 {
		t.Error("dimm0 should idle at 2.75 W")
	}
}

func TestPLLsOffInPC1APanics(t *testing.T) {
	cfg := DefaultConfig(CPC1A)
	cfg.PLLsOffInPC1A = true
	defer func() {
		if recover() == nil {
			t.Fatal("PLLsOffInPC1A assembly should panic (ablation is experiment-driven)")
		}
	}()
	New(cfg)
}

func TestPackageStateCdeepActive(t *testing.T) {
	s := New(DefaultConfig(Cdeep))
	s.Cores[0].Enqueue(cpu.Work{Duration: 50 * sim.Microsecond})
	s.Engine.Run(10 * sim.Microsecond)
	if s.PackageState() != pmu.PC0 {
		t.Fatalf("state %v with a core running, want PC0", s.PackageState())
	}
}

func TestDisablePkgCStates(t *testing.T) {
	cfg := DefaultConfig(Cdeep)
	cfg.DisablePkgCStates = true
	s := New(cfg)
	s.ForceAllCC6()
	if s.PackageState() != pmu.PC0 {
		t.Fatalf("state %v with package C-states disabled, want PC0", s.PackageState())
	}
	// Cores are still deep: this is the Sec. 5.4 Pcores measurement rig.
	for _, c := range s.Cores {
		if c.State() != cpu.CC6 {
			t.Fatalf("core %d in %v, want CC6", c.ID(), c.State())
		}
	}
}

// TestMemAccessFusionMatchesPerController drives two identical systems
// through the same script of memory bursts, Allow_CKE_OFF toggles and
// self-refresh commands: one through MemAccess, the other through one
// AccessN per controller (MemAccess without fusion). After every event
// of the fused system — and, for a fused burst completion, after the
// one reference event per controller it replaces — both must agree on
// every controller's occupancy, completed accesses, mode and
// power-state entries, and on the DRAM and package energy bits.
func TestMemAccessFusionMatchesPerController(t *testing.T) {
	fused, ref := New(DefaultConfig(Cshallow)), New(DefaultConfig(Cshallow))
	m := len(fused.MCs)
	refRR := 0
	refMemAccess := func(n int) {
		for i := 0; i < m; i++ {
			ref.MCs[(refRR+i)%m].AccessN(memShare(n, m, i))
		}
		refRR += n
	}

	rng := rand.New(rand.NewSource(3))
	at := sim.Time(0)
	for a := 0; a < 3000; a++ {
		at += sim.Duration(rng.Intn(150))
		if rng.Intn(20) == 0 {
			at += 2*sim.Microsecond + sim.Duration(rng.Intn(6000)) // quiet: lets self-refresh entry finish
		}
		j, n := rng.Intn(m), 1+rng.Intn(9)
		switch k := rng.Intn(10); {
		case k < 6:
			fused.Engine.At(at, sim.Func(func() { fused.MemAccess(n) }))
			ref.Engine.At(at, sim.Func(func() { refMemAccess(n) }))
		case k < 8:
			for _, s := range []*System{fused, ref} {
				w := s.MCs[j].AllowCKEOff()
				s.Engine.At(at, sim.Func(func() { w.SetLevel(!w.Level()) }))
			}
		case k < 9:
			for _, s := range []*System{fused, ref} {
				mc := s.MCs[j]
				s.Engine.At(at, sim.Func(func() {
					if mc.Idle() && mc.Mode() == dram.Active {
						mc.EnterSelfRefresh(nil)
					}
				}))
			}
		default:
			for _, s := range []*System{fused, ref} {
				mc := s.MCs[j]
				s.Engine.At(at, sim.Func(func() { mc.ExitSelfRefresh(nil) }))
			}
		}
	}

	queued := func() int { return (len(fused.memQ) - fused.memHead) / 2 }
	fusedBursts := 0
	for step := 0; ; step++ {
		q := queued()
		if !fused.Engine.Step() {
			break
		}
		refSteps := 1
		if queued() < q {
			refSteps = m
			fusedBursts++
		}
		for i := 0; i < refSteps; i++ {
			if !ref.Engine.Step() {
				t.Fatalf("step %d: reference ran out of events", step)
			}
		}
		if fused.Engine.Now() != ref.Engine.Now() {
			t.Fatalf("step %d: time %v, reference %v", step, fused.Engine.Now(), ref.Engine.Now())
		}
		for i := range fused.MCs {
			f, r := fused.MCs[i], ref.MCs[i]
			if f.Outstanding() != r.Outstanding() || f.Accesses() != r.Accesses() || f.Mode() != r.Mode() ||
				f.CKEEntries() != r.CKEEntries() || f.SREntries() != r.SREntries() {
				t.Fatalf("step %d at %v: mc%d outstanding/accesses/mode/cke/sr = %d/%d/%v/%d/%d, reference %d/%d/%v/%d/%d",
					step, fused.Engine.Now(), i,
					f.Outstanding(), f.Accesses(), f.Mode(), f.CKEEntries(), f.SREntries(),
					r.Outstanding(), r.Accesses(), r.Mode(), r.CKEEntries(), r.SREntries())
			}
		}
		for _, d := range []power.Domain{power.DRAM, power.Package} {
			if f, r := fused.Meter.Energy(d), ref.Meter.Energy(d); math.Float64bits(f) != math.Float64bits(r) {
				t.Fatalf("step %d at %v: %v energy %v, reference %v", step, fused.Engine.Now(), d, f, r)
			}
		}
	}
	if ref.Engine.Step() {
		t.Fatal("reference has events left after the fused system drained")
	}
	if got, want := ref.Engine.EventsFired()-fused.Engine.EventsFired(), uint64(fusedBursts*(m-1)); got != want {
		t.Fatalf("reference fired %d more events, want %d (one fewer per controller per fused burst)", got, want)
	}
	// The script must exercise both paths: fused bursts, and bursts that
	// wake a controller out of CKE-off or self-refresh.
	var cke, sr uint64
	for _, mc := range fused.MCs {
		cke += mc.CKEEntries()
		sr += mc.SREntries()
	}
	if fusedBursts == 0 || cke == 0 || sr == 0 {
		t.Fatalf("script too tame: %d fused bursts, %d CKE-off entries, %d self-refresh entries", fusedBursts, cke, sr)
	}
	t.Logf("%d fused bursts, %d CKE-off entries, %d self-refresh entries", fusedBursts, cke, sr)
}

// TestWindow pins the measured-interval contract: PC1A counts only what
// accrues after OpenWindow, a system without an APMU reports !ok, and
// the power readers are bit-equal to a meter Snapshot taken at the
// same instant.
func TestWindow(t *testing.T) {
	s := New(DefaultConfig(CPC1A))
	s.Engine.Run(5 * sim.Millisecond) // idle: PC1A accrues before the window
	res0, ent0 := s.APMU.Residency(pmu.PC1A), s.APMU.Entries(pmu.PC1A)
	if res0 < 4*sim.Millisecond || ent0 == 0 {
		t.Fatalf("idle system should sit in PC1A before the window: %v, %d entries", res0, ent0)
	}

	w := s.OpenWindow()
	snap := s.Meter.Snapshot()
	// One busy millisecond, then idle: one PC1A exit and one re-entry.
	s.Cores[0].Enqueue(cpu.Work{Duration: sim.Millisecond})
	s.Engine.Run(s.Engine.Now() + 2*sim.Millisecond)

	if w.Len() != 2*sim.Millisecond {
		t.Fatalf("Len = %v, want 2ms", w.Len())
	}
	r, e, ok := w.PC1A()
	if !ok {
		t.Fatal("CPC1A window should report PC1A")
	}
	if want := float64(s.APMU.Residency(pmu.PC1A)-res0) / float64(w.Len()); r != want {
		t.Errorf("residency = %v, want %v (window only)", r, want)
	}
	if r <= 0 || r >= 0.6 {
		t.Errorf("residency = %v, want the idle tail of the window only (~0.5)", r)
	}
	if want := s.APMU.Entries(pmu.PC1A) - ent0; e != want || e != 1 {
		t.Errorf("entries = %d, want %d (one re-entry)", e, want)
	}

	for _, d := range []power.Domain{power.Package, power.DRAM} {
		if got, want := w.Watts(d), snap.AveragePower(d); got != want {
			t.Errorf("Watts(%v) = %v, Snapshot says %v", d, got, want)
		}
	}
	if got, want := w.TotalWatts(), snap.AverageTotal(); got != want {
		t.Errorf("TotalWatts = %v, Snapshot says %v", got, want)
	}

	sh := New(DefaultConfig(Cshallow))
	sw := sh.OpenWindow()
	sh.Engine.Run(sim.Millisecond)
	if r, e, ok := sw.PC1A(); ok || r != 0 || e != 0 {
		t.Errorf("Cshallow PC1A() = (%v, %d, %v), want (0, 0, false)", r, e, ok)
	}
}

// TestAssemblyAllocs pins what assembling a default machine allocates,
// exactly, per kind: the system, its device slabs and lists, the meter's
// channel slab, and the callbacks each device binds once. No engine
// event binds a closure and no name is concatenated, so the count moves
// only when the machine's shape does. Rebuilding a machine of the same
// shape in place (System.Init, the rewind every reused fleet does per
// sweep point) reuses all of that storage and allocates nothing.
func TestAssemblyAllocs(t *testing.T) {
	eng := sim.NewEngine()
	for _, c := range []struct {
		kind ConfigKind
		want float64
	}{
		{Cshallow, 25},
		{Cdeep, 27},
		{CPC1A, 32},
	} {
		cfg := DefaultConfig(c.kind)
		if got := testing.AllocsPerRun(20, func() { NewOnEngine(cfg, eng) }); got != c.want {
			t.Errorf("%v: NewOnEngine allocated %v times, want %v", c.kind, got, c.want)
		}
		sys := NewOnEngine(cfg, eng)
		sys.ForceAllCC6()
		sys.MemAccess(8)
		rewind := func() {
			eng.Reset()
			sys.Init(cfg, eng)
		}
		if got := testing.AllocsPerRun(20, rewind); got != 0 {
			t.Errorf("%v: rewinding with Init allocated %v times, want 0", c.kind, got)
		}
	}
}
