// Package soc assembles the full Skylake-class server system the paper
// evaluates on (Intel Xeon Silver 4114: 10 cores, 3 PCIe + 1 DMI + 2 UPI
// interfaces, 2 memory controllers, 6 DDR4 channels, 18 PLLs) and exposes
// the three evaluation configurations:
//
//	Cshallow — the realistic datacenter baseline: CC6/CC1E disabled,
//	           all package C-states disabled, performance governor.
//	Cdeep    — all C-states enabled (CC6 + PC6), powersave governor:
//	           good idle power, bad latency. Unrealistic for servers.
//	CPC1A    — Cshallow plus the APC architecture: the APMU enters PC1A
//	           whenever all cores are in CC1.
//
// Per-component power values are calibrated so the aggregate reproduces
// the paper's Table 1 and Sec. 5.4 measurements (derivation in
// DESIGN.md).
package soc

import (
	"fmt"

	"agilepkgc/internal/clock"
	apc "agilepkgc/internal/core"
	"agilepkgc/internal/cpu"
	"agilepkgc/internal/dram"
	"agilepkgc/internal/ios"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/power"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/uncore"
)

// ConfigKind selects one of the paper's three system configurations.
type ConfigKind int

const (
	// Cshallow: CC1-only cores, no package C-states (baseline).
	Cshallow ConfigKind = iota
	// Cdeep: CC6 + PC6 enabled, powersave frequency governor.
	Cdeep
	// CPC1A: Cshallow plus AgilePkgC.
	CPC1A
)

// String names the configuration.
func (k ConfigKind) String() string {
	switch k {
	case Cshallow:
		return "Cshallow"
	case Cdeep:
		return "Cdeep"
	case CPC1A:
		return "C_PC1A"
	default:
		return fmt.Sprintf("ConfigKind(%d)", int(k))
	}
}

// ParseConfigKind maps a configuration name to its kind. It accepts the
// String() forms plus the underscore-free spellings declarative
// scenario files use ("Cshallow", "Cdeep", "CPC1A" / "C_PC1A").
func ParseConfigKind(s string) (ConfigKind, error) {
	switch s {
	case "Cshallow":
		return Cshallow, nil
	case "Cdeep":
		return Cdeep, nil
	case "CPC1A", "C_PC1A":
		return CPC1A, nil
	default:
		return 0, fmt.Errorf("soc: unknown config kind %q (want Cshallow, Cdeep or CPC1A)", s)
	}
}

// Config parameterizes a System. Zero values are filled from defaults.
type Config struct {
	Kind      ConfigKind
	CoreCount int

	// NorthCapWatts is the always-on north-cap base draw (serial ports,
	// fuse unit, clock reference, GPMU microcontroller).
	NorthCapWatts float64

	// Core, CLM, link and MC parameters; zero means calibrated default.
	CoreParams cpu.Params
	CLMParams  uncore.Params
	MCParams   dram.Params

	// PCIeWatts / DMIWatts / UPIWatts: active power per link.
	PCIeWatts float64
	DMIWatts  float64
	UPIWatts  float64

	// Counts of each interface (SKX north-cap: 3 PCIe, 1 DMI, 2 UPI).
	PCIeCount, DMICount, UPICount int

	// APMUConfig applies when Kind == CPC1A.
	APMUConfig apc.Config
	// GPMUConfig's EnablePC6 is forced by Kind unless
	// DisablePkgCStates is set.
	GPMUConfig pmu.Config

	// DisablePkgCStates keeps the GPMU out of PC6 even on Cdeep systems
	// — the paper's Sec. 5.4 measurement trick ("set the package C-state
	// limit to PC2") used to isolate per-component power deltas.
	DisablePkgCStates bool

	// Ablation switches (all false = faithful APC). They disable one of
	// the paper's four techniques each, to quantify its contribution.
	NoCLMRetention bool // skip CLMR: CLM stays at nominal voltage
	NoCKEOff       bool // skip DRAM CKE-off
	NoIOStandby    bool // skip L0s/L0p (links stay in L0)
	PLLsOffInPC1A  bool // turn PLLs off like PC6 (pay relock on exit)
}

// DefaultConfig returns the calibrated 10-core SKX configuration.
func DefaultConfig(kind ConfigKind) Config {
	return Config{
		Kind:          kind,
		CoreCount:     10,
		NorthCapWatts: 3.4,
		CoreParams:    cpu.DefaultParams(),
		CLMParams:     uncore.DefaultParams(),
		MCParams:      dram.DefaultParams(),
		PCIeWatts:     1.4,
		DMIWatts:      1.4,
		UPIWatts:      1.7,
		PCIeCount:     3,
		DMICount:      1,
		UPICount:      2,
		APMUConfig:    apc.DefaultConfig(),
		GPMUConfig:    pmu.DefaultConfig(kind == Cdeep),
	}
}

// System is an assembled server SoC + DRAM.
type System struct {
	Cfg    Config
	Engine *sim.Engine
	Meter  *power.Meter

	Cores []*cpu.Core
	Links []*ios.Link
	MCs   []*dram.MC
	CLM   *uncore.CLM
	GPMU  *pmu.GPMU
	// APMU is non-nil only for CPC1A systems.
	APMU *apc.APMU

	// PLLs holds the 8 non-core PLLs: one per IO controller (6), the
	// CLM's, and the GPMU's.
	PLLs []*clock.PLL

	rrNext int // round-robin cursor for MC interleaving

	// windows counts the windows opened and the builds: the open
	// window is the one whose seq matches (see Window).
	windows uint64

	// Fused memory bursts (see MemAccess): memQ holds one (cursor, n)
	// pair per burst awaiting its completion event, FIFO from memHead;
	// memLat is the controllers' AccessLatency (all are built from
	// Config.MCParams, so they share it).
	memQ    []int
	memHead int
	memLat  sim.Duration

	// The devices' storage: the single devices by value, every device
	// family in one slab, and the lists above over them. Init builds
	// every device in place here, so rebuilding a system reuses all of
	// it.
	meter   power.Meter
	clm     uncore.CLM
	gpmu    pmu.GPMU
	apmu    apc.APMU
	mcs     [2]dram.MC
	cores   []cpu.Core
	links   []ios.Link
	plls    []clock.PLL // one per IO link, then the GPMU's
	pc6PLLs []*clock.PLL
	menus   []cpu.MenuGovernor
	saves   []cpu.PowersavePolicy
	perf    cpu.PerformancePolicy
}

// memTimer is a fused burst's completion event: the system seen as a
// sim.Handler.
type memTimer System

// Fire completes the oldest fused burst.
//
//apcvet:noalloc
func (t *memTimer) Fire() { (*System)(t).memDone() }

// New assembles a system from the configuration on a fresh engine of its
// own — the single-machine case every experiment uses.
func New(cfg Config) *System {
	return NewOnEngine(cfg, sim.NewEngine())
}

// NewOnEngine assembles a system onto an existing engine. Multiple
// systems may share one engine — that is how package cluster simulates a
// fleet under a single deterministic event order — and each keeps its
// own power meter and channel namespace, so per-server accounting never
// collides. Construction order is the only coupling between co-hosted
// systems: any events scheduled while assembling (none today) would
// interleave in construction order.
func NewOnEngine(cfg Config, eng *sim.Engine) *System {
	return new(System).Init(cfg, eng)
}

// Init assembles the system in place onto eng, exactly as NewOnEngine
// does, and returns s. Assembling into a system built before rewinds
// it: every device is rebuilt in its old storage, and the slabs, device
// lists, meter channels, bound callbacks, run queues and burst queue
// are all reused, so a system of the same kind and core, link and
// controller counts allocates nothing (TestAssemblyAllocs). The old
// machine must be finished with: its engine reset or abandoned, and
// nothing left that still drives its devices.
func (s *System) Init(cfg Config, eng *sim.Engine) *System {
	if cfg.CoreCount <= 0 {
		panic("soc: CoreCount must be positive")
	}
	s.Cfg, s.Engine = cfg, eng
	s.windows++
	meter := s.meter.Init(eng)
	s.Meter = meter
	s.rrNext, s.memQ, s.memHead = 0, s.memQ[:0], 0
	nLinks := max(cfg.PCIeCount, 0) + max(cfg.DMICount, 0) + max(cfg.UPICount, 0)

	// Every device family is one slab, and every list is sized once.
	s.cores = sized(s.cores, cfg.CoreCount)
	s.links = sized(s.links, nLinks)
	s.plls = sized(s.plls, nLinks+1)
	s.Cores = sized(s.Cores, cfg.CoreCount)
	s.Links = sized(s.Links, nLinks)[:0]
	s.MCs = sized(s.MCs, len(s.mcs))
	s.PLLs = sized(s.PLLs, nLinks+2)[:0]

	// Cores with per-configuration governor and frequency policy. The
	// stateless shallow governor and performance policy are shared by
	// every core; Cdeep's stateful ones are one slab each.
	s.perf = cpu.PerformancePolicy{Nominal: cfg.CoreParams.NominalGHz}
	var (
		shallow cpu.Governor   = cpu.ShallowGovernor{}
		perf    cpu.FreqPolicy = &s.perf
	)
	if cfg.Kind == Cdeep {
		s.menus = sized(s.menus, cfg.CoreCount)
		s.saves = sized(s.saves, cfg.CoreCount)
	}
	for i := range s.cores {
		gov, freq := shallow, perf
		if cfg.Kind == Cdeep {
			s.menus[i] = *cpu.NewMenuGovernor()
			s.saves[i] = cpu.PowersavePolicy{Min: 0.8, Max: cfg.CoreParams.NominalGHz}
			gov, freq = &s.menus[i], &s.saves[i]
		}
		ch := meter.Channel(sim.Indexed("core", i), power.Package)
		s.Cores[i] = s.cores[i].Init(eng, i, cfg.CoreParams, gov, freq, ch)
	}

	// North-cap base (always on).
	meter.Channel(sim.Named("northcap"), power.Package).Set(cfg.NorthCapWatts)

	// High-speed IO links, each with its own PLL.
	addLink := func(name sim.Name, kind ios.Kind, watts float64) {
		p := ios.DefaultParams(kind, watts)
		if cfg.NoIOStandby {
			// Ablation: standby saves nothing and is never entered; the
			// simplest faithful model is standby at active power with
			// zero exit cost.
			p.StandbyWatts = p.ActiveWatts
			p.StandbyExit = 0
			p.StandbyEntry = 0
		}
		i := len(s.Links)
		s.Links = append(s.Links, s.links[i].Init(eng, name, p, meter.Channel(name, power.Package)))
		pll := name.With(".pll")
		s.PLLs = append(s.PLLs, s.plls[i].Init(eng, pll, clock.DefaultRelockLatency,
			meter.Channel(pll, power.Package)))
	}
	for i := 0; i < cfg.PCIeCount; i++ {
		addLink(sim.Indexed("pcie", i), ios.PCIe, cfg.PCIeWatts)
	}
	for i := 0; i < cfg.DMICount; i++ {
		addLink(sim.Indexed("dmi", i), ios.DMI, cfg.DMIWatts)
	}
	for i := 0; i < cfg.UPICount; i++ {
		addLink(sim.Indexed("upi", i), ios.UPI, cfg.UPIWatts)
	}

	// Two memory controllers.
	for i := range s.mcs {
		mp := cfg.MCParams
		if cfg.NoCKEOff {
			mp.MCCKEWatts = mp.MCActiveWatts
			mp.DRAMCKEWatts = mp.DRAMActiveWatts
			mp.CKEExit = 0
			mp.CKEEntry = 0
		}
		name := sim.Indexed("mc", i)
		s.MCs[i] = s.mcs[i].Init(eng, name, mp, dram.PPD,
			meter.Channel(name, power.Package),
			meter.Channel(sim.Indexed("dimm", i), power.DRAM))
	}
	s.memLat = s.MCs[0].Params().AccessLatency

	// CLM with its PLL.
	clmp := cfg.CLMParams
	if cfg.NoCLMRetention {
		clmp.RetentionWatts = clmp.GatedWatts
	}
	s.CLM = s.clm.Init(eng, clmp,
		meter.Channel(sim.Named("clm"), power.Package),
		meter.Channel(sim.Named("clm.pll"), power.Package))
	s.PLLs = append(s.PLLs, s.CLM.PLL())

	// GPMU with its PLL.
	gpmuPLL := s.plls[nLinks].Init(eng, sim.Named("gpmu.pll"), clock.DefaultRelockLatency,
		meter.Channel(sim.Named("gpmu.pll"), power.Package))
	s.PLLs = append(s.PLLs, gpmuPLL)

	gcfg := cfg.GPMUConfig
	gcfg.EnablePC6 = cfg.Kind == Cdeep && !cfg.DisablePkgCStates
	s.GPMU = s.gpmu.Init(eng, gcfg, s.Cores, s.Links, s.MCs, s.CLM)
	// PC6 powers off every non-core PLL; the CLM's is handled by the
	// flow directly, so attach the rest: the IO links' and the GPMU's.
	s.pc6PLLs = append(append(s.pc6PLLs[:0], s.PLLs[:nLinks]...), gpmuPLL)
	s.GPMU.AttachPLLs(s.pc6PLLs...)

	s.APMU = nil
	if cfg.Kind == CPC1A {
		s.APMU = s.apmu.Init(eng, cfg.APMUConfig, s.Cores, s.Links, s.MCs, s.CLM, s.GPMU)
		if cfg.PLLsOffInPC1A {
			// Ablation: emulate PLLs-off by adding the relock penalty to
			// every PC1A exit — modeled by turning the PLL power down in
			// PC1A and... the faithful mechanism needs APMU cooperation;
			// the ablation experiment drives this directly instead.
			panic("soc: PLLsOffInPC1A is handled by the ablation experiment, not the assembly")
		}
	}
	return s
}

// sized returns s resliced to n elements, reallocating only when its
// capacity is short. The elements keep whatever they held: the caller
// builds each one in place.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NICLink returns the link NIC traffic uses (the first PCIe interface).
//
//apcvet:noalloc
func (s *System) NICLink() *ios.Link { return s.Links[0] }

// MemAccess performs n interleaved DRAM accesses (round-robin over the
// two controllers), charging dynamic energy and waking the channels.
// Each controller receives its round-robin share as one AccessN batch:
// the controllers are independent, so regrouping the interleaved issue
// order into per-controller runs leaves every controller's state
// evolution — and the cross-controller order of everything the
// completions schedule — unchanged, while same-instant completions
// collapse into one engine event per controller.
//
// The common burst goes one step further and costs one event for all
// controllers. When every controller gets at least one access and is
// Active at issue, each AccessN would only cancel events and schedule its own completion at the same
// instant, so those completions are adjacent in (time, scheduling
// order): nothing can be ordered between them. One event that
// completes each controller's batch in issue order then runs exactly
// what they would have run, in the same order. A controller that must
// first leave CKE-off or self-refresh raises signal edges and schedules
// its exit in between, so such a burst keeps per-controller events
// (TestMemAccessFusionMatchesPerController).
//
//apcvet:noalloc
func (s *System) MemAccess(n int) {
	m := len(s.MCs)
	if n <= 0 || m == 0 {
		return
	}
	fuse := n >= m
	for _, mc := range s.MCs {
		fuse = fuse && mc.Mode() == dram.Active
	}
	for i := 0; i < m; i++ {
		mc, k := s.MCs[(s.rrNext+i)%m], memShare(n, m, i)
		if fuse {
			mc.StartN(k)
		} else {
			mc.AccessN(k)
		}
	}
	if fuse {
		s.memQ = append(s.memQ, s.rrNext, n)
		s.Engine.Schedule(s.memLat, (*memTimer)(s))
	}
	s.rrNext += n
}

// memShare is the i-th controller's share, in issue order, of n
// accesses interleaved round-robin over m controllers.
//
//apcvet:noalloc
func memShare(n, m, i int) int {
	if i < n%m {
		return n/m + 1
	}
	return n / m
}

// memDone is a fused burst's completion: every controller's batch
// completes, in issue order. Bursts share one latency, so their events
// fire in issue order and memQ pairs each with its burst.
//
//apcvet:noalloc
func (s *System) memDone() {
	rr, n := s.memQ[s.memHead], s.memQ[s.memHead+1]
	s.memHead += 2
	if s.memHead == len(s.memQ) {
		s.memQ, s.memHead = s.memQ[:0], 0
	}
	m := len(s.MCs)
	for i := 0; i < m; i++ {
		s.MCs[(rr+i)%m].CompleteN(memShare(n, m, i))
	}
}

// PackageState returns the effective package C-state: the APMU's view on
// CPC1A systems, the GPMU's otherwise.
func (s *System) PackageState() pmu.PkgState {
	if s.APMU != nil && s.GPMU.State() == pmu.PC0 {
		return s.APMU.State()
	}
	return s.GPMU.State()
}

// SoCPower and DRAMPower return instantaneous draws.
func (s *System) SoCPower() float64 { return s.Meter.Power(power.Package) }

// DRAMPower returns the instantaneous DRAM draw.
func (s *System) DRAMPower() float64 { return s.Meter.Power(power.DRAM) }

// TotalPower returns SoC + DRAM watts.
func (s *System) TotalPower() float64 { return s.Meter.TotalPower() }

// AllCoresIdle reports whether every core is in an idle C-state.
func (s *System) AllCoresIdle() bool {
	for _, c := range s.Cores {
		if !c.InCC1().Level() {
			return false
		}
	}
	return true
}

// ForceAllCC6 drives every core through a tiny job after a long idle so
// menu governors select CC6, then waits for the system to settle. Only
// meaningful on Cdeep systems; used by power-characterization
// experiments.
func (s *System) ForceAllCC6() {
	s.Engine.Run(s.Engine.Now() + 10*sim.Millisecond)
	for _, c := range s.Cores {
		c.Enqueue(cpu.Work{Duration: sim.Microsecond})
	}
	s.Engine.Run(s.Engine.Now() + 20*sim.Millisecond)
}

// Window is the measured interval on a System, opened by OpenWindow:
// the meter's energy counters, the APMU's PC1A counts and the GPMU's
// full-idle counters as they stood at the opening instant, and a
// residency mark on every core. Its readers report the interval from
// then to the current virtual time, so read them at the instant the
// window closes — every power, residency and PC1A number an
// experiment, scenario or fleet reports for a measured window comes
// from here. Opening a window allocates nothing.
//
// A window is a mark on its system, so one is open per system at a
// time: opening the next, or rebuilding the system, supersedes it, and
// reading a superseded window panics. Reading one flushes the system's
// meter, as reading a Snapshot does, so read a window from one
// goroutine.
type Window struct {
	sys          *System
	seq          uint64
	snap         power.Snapshot
	res0         sim.Duration
	ent0         uint64
	idle0, cens0 sim.Duration
}

// OpenWindow starts a measured interval now. It flushes the meter's
// channels, exactly as a bare Meter.Snapshot does, marks every core,
// and splits a full-idle period open now, so the SoCWatch floor judges
// the part inside the window on its own length.
func (s *System) OpenWindow() Window {
	s.windows++
	w := Window{sys: s, seq: s.windows, snap: s.Meter.Snapshot()}
	for _, c := range s.Cores {
		c.Mark()
	}
	now, fi := s.Engine.Now(), s.GPMU.FullIdle()
	fi.Split(now)
	w.idle0, w.cens0 = fi.Time(now)
	if s.APMU != nil {
		w.res0 = s.APMU.Residency(pmu.PC1A)
		w.ent0 = s.APMU.Entries(pmu.PC1A)
	}
	return w
}

// Len returns the virtual time since the window opened. Every reader
// goes through it, so every reader panics on a superseded window.
//
//apcvet:noalloc
func (w Window) Len() sim.Duration {
	if w.seq != w.sys.windows {
		panic("soc: read through a superseded window")
	}
	return w.snap.Elapsed()
}

// Watts returns the mean draw of domain d over the window (the
// instantaneous draw while the window is empty).
//
//apcvet:noalloc
func (w Window) Watts(d power.Domain) float64 { w.Len(); return w.snap.AveragePower(d) }

// TotalWatts returns the mean SoC+DRAM draw over the window.
//
//apcvet:noalloc
func (w Window) TotalWatts() float64 { w.Len(); return w.snap.AverageTotal() }

// PC1A returns the fraction of the window the package spent in PC1A
// and how many times it entered PC1A during the window. ok is false on
// a system without an APMU (Cshallow, Cdeep); residency is 0 for an
// empty window.
//
//apcvet:noalloc
func (w Window) PC1A() (residency float64, entries uint64, ok bool) {
	n, a := w.Len(), w.sys.APMU
	if a == nil {
		return 0, 0, false
	}
	if n > 0 {
		residency = float64(a.Residency(pmu.PC1A)-w.res0) / float64(n)
	}
	return residency, a.Entries(pmu.PC1A) - w.ent0, true
}

// Residency returns the mean over cores of the fraction of the window
// each spent in state s — paper Fig. 6(a)'s metric; 0 for an empty
// window or a value that names no state. The fractions are summed in
// core order, then divided.
//
//apcvet:noalloc
func (w Window) Residency(s cpu.CState) float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	var sum float64
	for _, c := range w.sys.Cores {
		sum += float64(c.SinceMark(s)) / float64(n)
	}
	return sum / float64(len(w.sys.Cores))
}

// AllIdle returns the fraction of the window in which every core was
// idle at once — the physical PC1A opportunity — and the fraction in
// such periods of at least cpu.SoCWatchFloor, as the paper's SoCWatch
// measures it (Fig. 6(b)). A period open now counts up to now.
//
//apcvet:noalloc
func (w Window) AllIdle() (all, censored float64) {
	n := w.Len()
	if n == 0 {
		return 0, 0
	}
	total, cens := w.sys.GPMU.FullIdle().Time(w.sys.Engine.Now())
	return float64(total-w.idle0) / float64(n), float64(cens-w.cens0) / float64(n)
}
