// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a pure function of its parameters that
// runs the simulator and returns a result struct with both programmatic
// fields (asserted by tests and benchmarks) and a formatted report that
// prints the same rows/series the paper shows, side by side with the
// paper's published numbers.
//
// # The registry contract
//
// Every artifact self-registers at init time, next to the code or data
// that computes it (package scenario registers the builtin scenario
// files), via Register or Define under an integer ordinal. Ordinals
// only fix the canonical order (`apcsim run all`, `apcsim list`, the
// golden-report file); gaps are fine and duplicates — of a name or an
// ordinal — panic at init. The CLI, the docs and the tests keep no name
// list: they all enumerate All()/Names(). Each Result must render a Report, marshal
// cleanly with encoding/json (the CLI's -json envelope), and may
// implement CSVWriter for its data series. Results are pure functions
// of Options: same Options, same bytes, at any Parallelism.
//
// Index (see DESIGN.md §3 for the full mapping):
//
//	Table1         — power and latency per package C-state
//	Table2         — state-availability matrix
//	Sec54          — component power deltas (Pcores, PIOs, Pdram, PPLLs)
//	Sec55          — PC1A vs PC6 transition latency
//	Eq1            — analytic power-savings model
//	Fig5           — Memcached latency, Cshallow vs Cdeep
//	Fig6           — PC1A opportunity (residencies, idle-period distribution)
//	Fig7           — PC1A power savings and performance impact
//	Fig8           — MySQL residency and power reduction
//	Fig9           — Kafka residency and power reduction
//	Area           — hardware cost model (Sec. 5.1–5.3)
//	Sensitivity    — technique ablations, PLL policy, APMU clock, FIVR slew
//	Batching       — epoch-aligned dispatch extension (Sec. 8)
//	Remote         — PC1A erosion under peer-socket UPI traffic
//	TraceReplay    — record a bursty stream, replay it, prove identical bytes
//
// The other fleet experiments (cluster-scaling, cluster-policy,
// rack-packing, drain-hysteresis, fault-resilience, tiered-cache) are
// scenario files that package scenario embeds and registers here.
package experiments

import (
	"fmt"
	"strings"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/cpu"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/trace"
	"agilepkgc/internal/workload"
)

// Options tune experiment run length; the defaults balance statistical
// stability against runtime. Tests use shorter windows.
type Options struct {
	// Duration is the measured window per operating point.
	Duration sim.Duration
	// Seed for all generators.
	Seed uint64
	// Parallelism caps how many sweep points run concurrently, each on
	// its own engine: 0 or 1 is serial, values above 1 bound the worker
	// pool, negative means one worker per available CPU. Results are
	// collected in point order and are bit-identical to a serial run
	// with the same seed at any setting.
	Parallelism int
}

// DefaultOptions returns the report-quality settings.
func DefaultOptions() Options {
	return Options{Duration: 2 * sim.Second, Seed: 1}
}

// QuickOptions returns fast settings for tests.
func QuickOptions() Options {
	return Options{Duration: 100 * sim.Millisecond, Seed: 1}
}

// loadedRun is one (config, workload) point run: the bundle of
// observations every figure draws from. Its window closed when the run
// returned, so its readers report the measured window; tracer, set on
// a traced run only, observed the same window. It reads the machine
// the run left behind, so it is valid only until its machine runs the
// next point.
type loadedRun struct {
	sys    *soc.System
	srv    *server.Server
	tracer *trace.Tracer
	win    soc.Window
}

// Warmup returns the settle window run before measurement starts so the
// measured window begins in steady state (menu governors seeded,
// frequency policies settled, queues primed): a tenth of the
// measurement window, capped at 50 ms. The scenario layer shares this
// formula — its bit-for-bit parity with runPoint depends on it.
func (o Options) Warmup() sim.Duration {
	warm := o.Duration / 10
	if warm > 50*sim.Millisecond {
		warm = 50 * sim.Millisecond
	}
	return warm
}

// machine is one sweep worker's single-machine scratch: a graph reuse
// that rewinds the worker's machine from point to point (drawn from the
// process-wide keep when the worker starts), and the tracer a traced
// runPoint attaches to it, kept so re-attaching reuses its storage.
type machine struct {
	reuse cluster.GraphReuse
	tr    trace.Tracer
}

// pair is the scratch of a sweep whose points compare two
// configurations: each runs on its own machine, so both runs can be
// read before the next point rewinds either.
type pair [2]machine

// onePoint is the shape every single-machine point runs as — one tier
// of one member — which a new machine draws from the keep. Only its
// shape is read.
var onePoint = pointGraph(soc.DefaultConfig(soc.CPC1A), server.DefaultConfig(), workload.Memcached(1))

func newMachine() *machine {
	m := new(machine)
	m.reuse.Draw(onePoint)
	return m
}

func newPair() *pair {
	p := new(pair)
	p[0].reuse.Draw(onePoint)
	p[1].reuse.Draw(onePoint)
	return p
}

// release hands the machine back to the keep.
func (m *machine) release() { m.reuse.Release() }

// release hands both machines back in the reverse of their draw order,
// so the next pair drawn from the keep gets them in the same places.
func (p *pair) release() {
	p[1].release()
	p[0].release()
}

// pointGraph is the one-member round_robin fleet every single-machine
// point runs on: one SoC of cfg behind the server stack scfg, fed by an
// open-loop generator of spec.
func pointGraph(cfg soc.Config, scfg server.Config, spec workload.Spec) cluster.GraphConfig {
	return cluster.GraphConfig{Tiers: []cluster.TierConfig{{
		Cluster: cluster.Config{Members: []cluster.MemberConfig{{SoC: cfg, Server: scfg}}},
		Spec:    spec,
	}}}
}

// fleet returns m's machine reset (or, at its first point, built when
// the keep had none) as the pointGraph of (cfg, scfg, spec), seeded with
// the experiment's seed. Graph.Run is its window-then-drain loop.
func (m *machine) fleet(cfg soc.Config, scfg server.Config, spec workload.Spec, opt Options) (*cluster.Graph, *server.Server) {
	g, err := m.reuse.Graph(pointGraph(cfg, scfg, spec), opt.Seed)
	if err != nil {
		// Every caller passes an open-loop spec; an error is a bug.
		panic(err)
	}
	return g, g.TierFleet(0).Server(0)
}

// runPoint runs one (config, workload) point on m: the warmup, then the
// measured window. traced attaches a tracer to the window too, for the
// figures that read the full-idle periods themselves (Fig. 6's
// histogram, the performance model's wake probe). Every point rebuilds
// the machine, dropping the observers of the last, so the tracer
// registers anew.
func (m *machine) runPoint(kind soc.ConfigKind, spec workload.Spec, opt Options, traced bool) loadedRun {
	g, srv := m.fleet(soc.DefaultConfig(kind), server.DefaultConfig(), spec, opt)
	g.Run(opt.Warmup())

	sys := srv.System()
	var tr *trace.Tracer
	if traced {
		tr = m.tr.Init(sys.Engine, sys.Cores)
	}
	win := sys.OpenWindow()
	g.Run(opt.Duration)
	if tr != nil {
		tr.Finalize()
	}
	return loadedRun{sys: sys, srv: srv, tracer: tr, win: win}
}

// shallowWatts is the Cshallow machine's power at spec: the reference
// the fixed-load sweeps report their savings against.
func shallowWatts(spec workload.Spec, opt Options) float64 {
	var m machine
	defer m.release()
	return m.runPoint(soc.Cshallow, spec, opt, false).win.TotalWatts()
}

// table builds a simple aligned text table.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string { return RenderTable(t.header, t.rows) }

// RenderTable formats an aligned text table in the house report style —
// the one renderer every experiment and scenario report shares.
func RenderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// Micros formats seconds as microseconds. Micros, Watts, Pct and
// PC1APct are the cell formatters every report table shares.
func Micros(sec float64) string { return fmt.Sprintf("%.1fus", sec*1e6) }

// Watts formats a power in watts.
func Watts(w float64) string { return fmt.Sprintf("%.1fW", w) }

// Pct formats a fraction as a percentage.
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// PC1APct formats a PC1A residency: "-" on configurations without an
// APMU.
func PC1APct(res *float64) string {
	if res == nil {
		return "-"
	}
	return Pct(*res)
}

// Cells renders report cells in fmt's default format, the CSV
// writer's: integers print as %d and pre-formatted strings pass
// through.
func Cells(vals ...any) []string {
	cells := make([]string, len(vals))
	for i, v := range vals {
		cells[i] = fmt.Sprint(v)
	}
	return cells
}

// cpuBusyWork returns a long-running work item that keeps a core in CC0
// for the duration of a characterization measurement.
func cpuBusyWork() cpu.Work {
	return cpu.Work{Duration: 100 * sim.Millisecond}
}

// modelImpact computes the paper's performance model (Sec. 6): the
// number of PC1A transitions times the 200 ns transition cost, weighted
// by how many cores (≈ requests) each exit delays, spread across all
// served requests.
func modelImpact(run *loadedRun, baselineMeanLat float64) float64 {
	if run.sys.APMU == nil || run.srv.Served() == 0 || baselineMeanLat <= 0 {
		return 0
	}
	transitions := float64(run.sys.APMU.Entries(pmu.PC1A))
	affected := run.tracer.ActiveCoresAfterIdle().Mean()
	if affected < 1 {
		affected = 1
	}
	const transitionCost = 200e-9 // seconds
	added := transitions * transitionCost * affected
	return added / (float64(run.srv.Served()) * baselineMeanLat)
}
