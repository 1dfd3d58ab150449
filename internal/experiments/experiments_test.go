package experiments

import (
	"math"
	"strings"
	"testing"

	"agilepkgc/internal/sim"
)

func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		if math.Abs(got) > relTol {
			t.Errorf("%s = %v, want ~0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Errorf("%s = %v, want %v (±%.0f%%)", name, got, want, relTol*100)
	}
}

func TestTable1(t *testing.T) {
	r := Table1(QuickOptions())
	within(t, "PC0 SoC", r.PC0SoC, PaperPC0SoC, 0.02)
	within(t, "PC0 DRAM", r.PC0DRAM, PaperPC0DRAM, 0.15)
	within(t, "PC0idle SoC", r.PC0IdleSoC, PaperPC0IdleSoC, 0.01)
	within(t, "PC0idle DRAM", r.PC0IdleDRAM, PaperPC0IdleDRAM, 0.01)
	within(t, "PC6 SoC", r.PC6SoC, PaperPC6SoC, 0.02)
	within(t, "PC6 DRAM", r.PC6DRAM, PaperPC6DRAM, 0.05)
	within(t, "PC1A SoC", r.PC1ASoC, PaperPC1ASoC, 0.01)
	within(t, "PC1A DRAM", r.PC1ADRAM, PaperPC1ADRAM, 0.02)

	if r.PC1ALatency > 200*sim.Nanosecond {
		t.Errorf("PC1A latency %v exceeds the 200ns budget", r.PC1ALatency)
	}
	if r.PC6Latency < 50*sim.Microsecond {
		t.Errorf("PC6 latency %v, paper says >50us", r.PC6Latency)
	}
	if r.Speedup() < 250 {
		t.Errorf("speedup %.0fx, paper says >250x", r.Speedup())
	}
	if !strings.Contains(r.Report(), "PC1A") {
		t.Error("report missing PC1A row")
	}
}

func TestTable2(t *testing.T) {
	r := Table2(QuickOptions())
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(r.Rows))
	}
	byState := map[string]Table2Row{}
	for _, row := range r.Rows {
		byState[row.State] = row
	}
	pc0 := byState["PC0"]
	if pc0.L3Cache != "Accessible" || pc0.PLLs != "On" || pc0.PCIeDMI != "L0" || pc0.DRAM != "Available" {
		t.Errorf("PC0 row wrong: %+v", pc0)
	}
	pc6 := byState["PC6"]
	if pc6.L3Cache != "Retention" || pc6.PLLs != "Off" || pc6.PCIeDMI != "L1" || pc6.DRAM != "Self Refresh" {
		t.Errorf("PC6 row wrong: %+v", pc6)
	}
	pc1a := byState["PC1A"]
	if pc1a.L3Cache != "Retention" || pc1a.PLLs != "On" || pc1a.PCIeDMI != "L0s" ||
		pc1a.UPI != "L0p" || pc1a.DRAM != "CKE off" {
		t.Errorf("PC1A row wrong: %+v", pc1a)
	}
	if !strings.Contains(r.Report(), "Table 2") {
		t.Error("report header missing")
	}
}

func TestSec54(t *testing.T) {
	r := Sec54(QuickOptions())
	within(t, "Pcores_diff", r.PcoresDiff, PaperPcoresDiff, 0.02)
	within(t, "PIOs_diff", r.PIOsDiff, PaperPIOsDiff, 0.02)
	within(t, "Pdram_diff", r.PdramDiff, PaperPdramDiff, 0.02)
	within(t, "PPLLs_diff", r.PPLLsDiff, PaperPPLLsDiff, 0.01)
	within(t, "Psoc_PC6", r.PsocPC6, PaperPsocPC6, 0.03)
	within(t, "Pdram_PC6", r.PdramPC6, PaperPdramPC6, 0.05)
	within(t, "Psoc_PC1A", r.PsocPC1A, 27.5, 0.02)
	within(t, "Pdram_PC1A", r.PdramPC1A, 1.6, 0.02)
	if !strings.Contains(r.Report(), "Eq. 2") {
		t.Error("report missing")
	}
}

func TestSec55(t *testing.T) {
	r := Sec55(QuickOptions())
	if r.EntryIOWindow != 16*sim.Nanosecond {
		t.Errorf("IO window %v, want 16ns", r.EntryIOWindow)
	}
	if r.Entry < 16*sim.Nanosecond || r.Entry > 24*sim.Nanosecond {
		t.Errorf("entry %v, paper says ~18ns", r.Entry)
	}
	if r.Exit > 160*sim.Nanosecond {
		t.Errorf("exit %v, paper says <=150ns (+FSM cycles)", r.Exit)
	}
	if r.Total > 200*sim.Nanosecond {
		t.Errorf("total %v, exceeds 200ns budget", r.Total)
	}
	if r.PC6Total < 50*sim.Microsecond {
		t.Errorf("PC6 total %v, want >50us", r.PC6Total)
	}
	if r.Speedup < 250 {
		t.Errorf("speedup %.0f, want >250", r.Speedup)
	}
	if !strings.Contains(r.Report(), "Speedup") {
		t.Error("report missing")
	}
}

func TestEq1(t *testing.T) {
	opt := QuickOptions()
	opt.Duration = 300 * sim.Millisecond
	r := Eq1(opt)

	// Idle point is analytic: 1 − 29.1/49.5 ≈ 0.41.
	within(t, "idle savings", r.Idle.SavingsFrac, PaperEq1IdleSave, 0.03)

	// Loaded points depend on measured residency; the paper band is
	// generous (model + emulated residencies).
	if r.At5pct.RPC0Idle < 0.40 || r.At5pct.RPC0Idle > 0.75 {
		t.Errorf("all-idle at 5%% load = %v, paper ~0.57", r.At5pct.RPC0Idle)
	}
	if r.At10pct.RPC0Idle < 0.25 || r.At10pct.RPC0Idle > 0.55 {
		t.Errorf("all-idle at 10%% load = %v, paper ~0.39", r.At10pct.RPC0Idle)
	}
	within(t, "savings at 5%", r.At5pct.SavingsFrac, PaperEq1Savings5, 0.35)
	within(t, "savings at 10%", r.At10pct.SavingsFrac, PaperEq1Savings10, 0.35)
	// Ordering: savings shrink with load.
	if !(r.Idle.SavingsFrac > r.At5pct.SavingsFrac && r.At5pct.SavingsFrac > r.At10pct.SavingsFrac) {
		t.Errorf("savings not monotone: idle %v, 5%% %v, 10%% %v",
			r.Idle.SavingsFrac, r.At5pct.SavingsFrac, r.At10pct.SavingsFrac)
	}
	if !strings.Contains(r.Report(), "Eq. 1") {
		t.Error("report missing")
	}
}

func TestFig5Shape(t *testing.T) {
	opt := QuickOptions()
	opt.Duration = 200 * sim.Millisecond
	r := Fig5(opt, []float64{10000, 50000, 300000})
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points[:2] {
		// Low load: Cdeep visibly worse (CC6 wakes + powersave).
		if p.DeepMean <= p.ShallowMean*1.2 {
			t.Errorf("at %.0f QPS Cdeep mean %v not clearly above Cshallow %v",
				p.QPS, p.DeepMean, p.ShallowMean)
		}
	}
	// High load (>=300K): the Cdeep latency spike the paper attributes
	// to CC6/PC6 transitions delaying initial requests and queueing the
	// rest — most visible in the tail.
	last := r.Points[2]
	if last.DeepP99 < 2*last.ShallowP99 {
		t.Errorf("at 300K QPS expected a Cdeep tail spike: deep p99 %v vs shallow p99 %v",
			last.DeepP99, last.ShallowP99)
	}
	if last.DeepMean < 1.2*last.ShallowMean {
		t.Errorf("at 300K QPS Cdeep mean %v should clearly exceed Cshallow %v",
			last.DeepMean, last.ShallowMean)
	}
	if !strings.Contains(r.Report(), "Fig 5") {
		t.Error("report missing")
	}
}

func TestFig6Shape(t *testing.T) {
	opt := QuickOptions()
	opt.Duration = 400 * sim.Millisecond
	r := Fig6(opt, []float64{4000, 50000, 100000})
	if len(r.Points) != 3 {
		t.Fatal("points missing")
	}
	p4k, p50k, p100k := r.Points[0], r.Points[1], r.Points[2]

	// (a) CC1 dominates at low load (paper: 76-98%).
	for _, p := range r.Points {
		if p.CC1Residency < 0.76 {
			t.Errorf("CC1 residency %v at %.0f QPS, paper says >=0.76", p.CC1Residency, p.QPS)
		}
		if sum := p.CC0Residency + p.CC1Residency; math.Abs(sum-1) > 0.01 {
			t.Errorf("residencies sum to %v", sum)
		}
	}

	// (b) censored opportunity bands: 77% @4K, 20% @50K, >=12% @100K.
	if p4k.AllIdleCensored < 0.60 || p4k.AllIdleCensored > 0.95 {
		t.Errorf("censored all-idle @4K = %v, paper 0.77", p4k.AllIdleCensored)
	}
	if p50k.AllIdleCensored < 0.10 || p50k.AllIdleCensored > 0.45 {
		t.Errorf("censored all-idle @50K = %v, paper 0.20", p50k.AllIdleCensored)
	}
	if p100k.AllIdleCensored < 0.03 {
		t.Errorf("censored all-idle @100K = %v, paper >=0.12", p100k.AllIdleCensored)
	}
	// Monotone decreasing.
	if !(p4k.AllIdleCensored > p50k.AllIdleCensored && p50k.AllIdleCensored > p100k.AllIdleCensored) {
		t.Error("censored opportunity not decreasing in load")
	}
	// Censoring only removes opportunity.
	for _, p := range r.Points {
		if p.AllIdleCensored > p.AllIdleTrue+1e-9 {
			t.Error("censored fraction exceeds true fraction")
		}
	}

	// (c) at low load, a large share of idle periods in 20-200us
	// (paper: ~60%).
	if p4k.FracIn20To200us < 0.3 {
		t.Errorf("idle periods in 20-200us @4K = %v, paper ~0.6", p4k.FracIn20To200us)
	}
	if !strings.Contains(r.Report(), "Fig 6(b)") {
		t.Error("report missing")
	}
}

func TestFig7Shape(t *testing.T) {
	opt := QuickOptions()
	opt.Duration = 300 * sim.Millisecond
	r := Fig7(opt, []float64{4000, 50000})

	// (a) idle: 41% saving, CPC1A between Cdeep and Cshallow.
	within(t, "idle savings", r.Idle.SavingsVsShallow, PaperFig7IdleSavings, 0.05)
	if !(r.Idle.Cdeep < r.Idle.CPC1A && r.Idle.CPC1A < r.Idle.Cshallow) {
		t.Errorf("idle power ordering wrong: %v / %v / %v",
			r.Idle.Cdeep, r.Idle.CPC1A, r.Idle.Cshallow)
	}

	// (b) savings bands: 37% @4K, 14% @50K.
	p4k, p50k := r.Points[0], r.Points[1]
	if p4k.SavingsFrac < 0.25 || p4k.SavingsFrac > 0.45 {
		t.Errorf("savings @4K = %v, paper 0.37", p4k.SavingsFrac)
	}
	if p50k.SavingsFrac < 0.06 || p50k.SavingsFrac > 0.30 {
		t.Errorf("savings @50K = %v, paper 0.14", p50k.SavingsFrac)
	}
	if p4k.SavingsFrac <= p50k.SavingsFrac {
		t.Error("savings should shrink with load")
	}

	// (c) latency impact <0.1% everywhere.
	for _, p := range r.Points {
		if math.Abs(p.ImpactFrac) > PaperFig7MaxImpact+0.002 {
			t.Errorf("latency impact %v at %.0f QPS, paper <0.001", p.ImpactFrac, p.QPS)
		}
		if p.PC1AEntries == 0 {
			t.Errorf("no PC1A transitions at %.0f QPS", p.QPS)
		}
	}
	if !strings.Contains(r.Report(), "Fig 7(a)") {
		t.Error("report missing")
	}
}

func TestFig8MySQL(t *testing.T) {
	opt := QuickOptions()
	opt.Duration = 300 * sim.Millisecond
	r := Fig8(opt)
	if len(r.Points) != 3 {
		t.Fatal("want 3 load levels")
	}
	// Paper: all-idle 20-37% across loads; reduction 7-14%.
	for _, p := range r.Points {
		if p.AllIdleTrue < 0.05 || p.AllIdleTrue > 0.75 {
			t.Errorf("MySQL %s all-idle %v out of plausible band", p.Label, p.AllIdleTrue)
		}
		if p.PowerReduction < 0.02 || p.PowerReduction > 0.40 {
			t.Errorf("MySQL %s reduction %v out of band (paper 7-14%%)", p.Label, p.PowerReduction)
		}
		if math.Abs(p.ImpactFrac) > 0.005 {
			t.Errorf("MySQL %s latency impact %v, paper negligible", p.Label, p.ImpactFrac)
		}
	}
	// Monotone: less idle, less reduction as load grows.
	if !(r.Points[0].PowerReduction > r.Points[2].PowerReduction) {
		t.Error("reduction should fall from low to high load")
	}
	within(t, "idle reduction", r.IdleReduction, 0.41, 0.05)
	if !strings.Contains(r.Report(), "MySQL") {
		t.Error("report missing")
	}
}

func TestFig9Kafka(t *testing.T) {
	opt := QuickOptions()
	opt.Duration = 300 * sim.Millisecond
	r := Fig9(opt)
	if len(r.Points) != 2 {
		t.Fatal("want 2 load levels")
	}
	for _, p := range r.Points {
		if p.AllIdleTrue < 0.05 || p.AllIdleTrue > 0.85 {
			t.Errorf("Kafka %s all-idle %v out of band (paper 15-47%%)", p.Label, p.AllIdleTrue)
		}
		if p.PowerReduction < 0.03 || p.PowerReduction > 0.40 {
			t.Errorf("Kafka %s reduction %v out of band (paper 9-19%%)", p.Label, p.PowerReduction)
		}
	}
	if r.Points[0].PowerReduction <= r.Points[1].PowerReduction {
		t.Error("low-load reduction should exceed high-load")
	}
	if !strings.Contains(r.Report(), "Kafka") {
		t.Error("report missing")
	}
}

func TestArea(t *testing.T) {
	r := Area(DefaultAreaModel())
	if r.IOSMSignals > 0.0024 {
		t.Errorf("IOSM signals %v, paper <0.24%%", r.IOSMSignals)
	}
	if r.IOSMControllers > 0.0008 {
		t.Errorf("controller mods %v, paper <0.08%%", r.IOSMControllers)
	}
	if r.CLMRSignals > 0.0015 {
		t.Errorf("CLMR signals %v, paper <0.14%% (rounding)", r.CLMRSignals)
	}
	if r.APMULogic > 0.001 {
		t.Errorf("APMU logic %v, paper <0.1%%", r.APMULogic)
	}
	if r.Total > 0.0075 {
		t.Errorf("total %v, paper <0.75%%", r.Total)
	}
	// Wider interconnect shrinks signal overhead.
	wide := DefaultAreaModel()
	wide.IOInterconnectWidthBits = 512
	if Area(wide).IOSMSignals >= r.IOSMSignals {
		t.Error("512-bit interconnect should cost less per signal")
	}
	if !strings.Contains(r.Report(), "Total") {
		t.Error("report missing")
	}
	// AreaInto must match Area and allocate nothing, so BenchmarkArea
	// stays at 0 allocs/op.
	var into AreaResult
	AreaInto(&into, DefaultAreaModel())
	if into != *r {
		t.Errorf("AreaInto = %+v, Area = %+v", into, *r)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		AreaInto(&into, DefaultAreaModel())
	}); allocs > 0 {
		t.Errorf("AreaInto allocates %.1f times per run, want 0", allocs)
	}
}

func TestSensitivity(t *testing.T) {
	opt := QuickOptions()
	r := Sensitivity(opt)

	// Full APC must beat every ablated variant on idle power.
	full := r.Ablations[0]
	if full.Name != "full APC" {
		t.Fatal("first ablation row should be the full system")
	}
	for _, a := range r.Ablations[1:] {
		if a.IdleW <= full.IdleW {
			t.Errorf("%s idle %.1fW should exceed full APC %.1fW", a.Name, a.IdleW, full.IdleW)
		}
		if a.IdleSavings >= full.IdleSavings {
			t.Errorf("%s savings %.3f should be below full APC %.3f", a.Name, a.IdleSavings, full.IdleSavings)
		}
	}
	within(t, "full APC idle savings", full.IdleSavings, 0.41, 0.05)

	// PLL policy: keeping PLLs locked must be >10x faster on exit.
	if float64(r.PLLOffExit)/float64(r.PLLOnExit) < 10 {
		t.Errorf("PLL-off exit %v should dwarf PLL-on exit %v", r.PLLOffExit, r.PLLOnExit)
	}
	if r.PLLOnCostW > 0.1 {
		t.Errorf("PLL-on cost %v W, should be tiny (56 mW)", r.PLLOnCostW)
	}

	// APMU clock: faster clock, faster transitions (monotone).
	if len(r.APMUClockPts) < 3 {
		t.Fatalf("clock sweep too short: %d points", len(r.APMUClockPts))
	}
	for i := 1; i < len(r.APMUClockPts); i++ {
		if r.APMUClockPts[i].Entry > r.APMUClockPts[i-1].Entry {
			t.Error("entry latency should not grow with FSM clock")
		}
	}

	// Slew: exit latency halves as slew doubles (ramp dominated).
	if len(r.SlewPts) != 4 {
		t.Fatalf("slew sweep wrong length")
	}
	for i := 1; i < len(r.SlewPts); i++ {
		if r.SlewPts[i].Exit >= r.SlewPts[i-1].Exit {
			t.Error("exit latency should fall with steeper slew")
		}
	}
	// At 1 mV/ns the 300 mV swing alone is 300ns.
	if r.SlewPts[0].Exit < 300*sim.Nanosecond {
		t.Errorf("1mV/ns exit %v, want >=300ns", r.SlewPts[0].Exit)
	}

	if !strings.Contains(r.Report(), "Sensitivity") {
		t.Error("report missing")
	}
}

func TestBatchingExtension(t *testing.T) {
	opt := QuickOptions()
	opt.Duration = 300 * sim.Millisecond
	r := Batching(opt, 50000, DefaultBatchingEpochs)
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	off := r.Points[0]
	if off.Epoch != 0 {
		t.Fatal("first point should be unbatched")
	}
	best := r.Points[len(r.Points)-1] // longest epoch
	// Batching must raise PC1A residency and savings over unbatched APC.
	if best.PC1AResidency <= off.PC1AResidency {
		t.Errorf("batched residency %v should exceed unbatched %v",
			best.PC1AResidency, off.PC1AResidency)
	}
	if best.SavingsFrac <= off.SavingsFrac {
		t.Errorf("batched savings %v should exceed unbatched %v",
			best.SavingsFrac, off.SavingsFrac)
	}
	// Cost is bounded: mean latency grows by less than one epoch.
	addedLat := best.MeanLatency - off.MeanLatency
	if addedLat <= 0 || addedLat > float64(best.Epoch)/float64(sim.Second) {
		t.Errorf("latency cost %v s out of (0, epoch] band", addedLat)
	}
	if !strings.Contains(r.Report(), "Extension") {
		t.Error("report missing")
	}
}

func TestRemoteTrafficErosion(t *testing.T) {
	opt := QuickOptions()
	opt.Duration = 200 * sim.Millisecond
	r := Remote(opt, 20000, []float64{0, 10000, 200000})
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Residency must fall monotonically with remote traffic.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].PC1AResidency >= r.Points[i-1].PC1AResidency {
			t.Errorf("residency did not fall: %v -> %v at rate %v",
				r.Points[i-1].PC1AResidency, r.Points[i].PC1AResidency, r.Points[i].SnoopRate)
		}
	}
	// Heavy remote traffic erodes residency measurably — but because
	// each PC1A round trip costs only ~0.5 µs, even 200K snoops/s costs
	// just a few points, which is itself the interesting result: the
	// agility bounds the damage.
	if drop := r.Points[0].PC1AResidency - r.Points[2].PC1AResidency; drop < 0.004 {
		t.Errorf("erosion %v at 200k snoops/s implausibly small", drop)
	}
	if r.Points[2].PC1AEntries <= r.Points[0].PC1AEntries {
		t.Error("snoop traffic should multiply PC1A entry/exit cycles")
	}
	// Savings ordering follows residency.
	if r.Points[2].SavingsFrac >= r.Points[0].SavingsFrac {
		t.Error("savings should erode with remote traffic")
	}
	if !strings.Contains(r.Report(), "Deployment") {
		t.Error("report missing")
	}
}

// TestSamePointSameNumbers pins one measurement window behind every
// figure: an operating point two experiments both run must report the
// same PC1A residency, entries, watts and latency, bit for bit. Fig 7
// at 20K QPS is remote's no-snoop point, and Fig 7 at 50K QPS is
// batching's unbatched point. 600 ms is long enough for the Duration/10
// warmup to differ from Options.Warmup's 50 ms cap.
func TestSamePointSameNumbers(t *testing.T) {
	for _, d := range []sim.Duration{100 * sim.Millisecond, 600 * sim.Millisecond} {
		opt := QuickOptions()
		opt.Duration = d
		f7 := Fig7(opt, []float64{20000, 50000})
		at20k, at50k := f7.Points[0], f7.Points[1]

		rm := Remote(opt, 20000, []float64{0}).Points[0]
		if rm.PC1AResidency != at20k.PC1AResidency || rm.PC1AEntries != at20k.PC1AEntries ||
			rm.Watts != at20k.PC1AWatts {
			t.Errorf("%v: remote 0/s (residency %v, entries %d, %v W) != fig7 20K (residency %v, entries %d, %v W)",
				d, rm.PC1AResidency, rm.PC1AEntries, rm.Watts,
				at20k.PC1AResidency, at20k.PC1AEntries, at20k.PC1AWatts)
		}

		bt := Batching(opt, 50000, []sim.Duration{0}).Points[0]
		if bt.PC1AResidency != at50k.PC1AResidency || bt.Watts != at50k.PC1AWatts ||
			bt.MeanLatency != at50k.PC1AMean {
			t.Errorf("%v: batching off (residency %v, %v W, mean %v s) != fig7 50K (residency %v, %v W, mean %v s)",
				d, bt.PC1AResidency, bt.Watts, bt.MeanLatency,
				at50k.PC1AResidency, at50k.PC1AWatts, at50k.PC1AMean)
		}
	}
}

func TestCSVWriters(t *testing.T) {
	opt := QuickOptions()
	cases := []struct {
		name   string
		result CSVWriter
		header string
	}{
		{"fig5", Fig5(opt, []float64{10000}), "qps,shallow_mean_s"},
		{"fig6", Fig6(opt, []float64{10000}), "qps,cc0"},
		{"fig7", Fig7(opt, []float64{10000}), "qps,shallow_w"},
		{"fig8", Fig8(opt), "service,label"},
		{"fig9", Fig9(opt), "service,label"},
		{"batching", Batching(opt, 20000, []sim.Duration{0, 50 * sim.Microsecond}), "epoch_ns"},
		{"remote", Remote(opt, 20000, []float64{0, 10000}), "snoop_rate"},
	}
	for _, c := range cases {
		var sb strings.Builder
		if err := c.result.WriteCSV(&sb); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		out := sb.String()
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if !strings.HasPrefix(lines[0], c.header) {
			t.Errorf("%s header = %q, want prefix %q", c.name, lines[0], c.header)
		}
		if len(lines) < 2 {
			t.Errorf("%s has no data rows", c.name)
		}
		// Every data row has the same number of commas as the header.
		nCols := strings.Count(lines[0], ",")
		for i, ln := range lines[1:] {
			if strings.Count(ln, ",") != nCols {
				t.Errorf("%s row %d has wrong column count: %q", c.name, i+1, ln)
			}
		}
	}
}
