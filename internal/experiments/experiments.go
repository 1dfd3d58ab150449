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

// loadedRun runs one (config, workload) point with a tracer attached and
// returns the bundle of observations every figure draws from.
type loadedRun struct {
	sys    *soc.System
	srv    *server.Server
	tracer *trace.Tracer

	avgTotalW float64
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

func runPoint(kind soc.ConfigKind, spec workload.Spec, opt Options) *loadedRun {
	f := newMachine(soc.DefaultConfig(kind), server.DefaultConfig(), spec, opt)
	f.Run(opt.Warmup())

	sys := f.Server(0).System()
	tr := trace.New(sys.Engine, sys.Cores)
	snap := sys.Meter.Snapshot()
	f.Run(opt.Duration)
	tr.Finalize()

	return &loadedRun{
		sys:       sys,
		srv:       f.Server(0),
		tracer:    tr,
		avgTotalW: snap.AverageTotal(),
	}
}

// newMachine builds the one-member round_robin fleet every
// single-machine point runs on: one SoC of cfg behind the server stack
// scfg, fed by an open-loop generator seeded with the experiment's
// seed. Fleet.Run is its window-then-drain loop.
func newMachine(cfg soc.Config, scfg server.Config, spec workload.Spec, opt Options) *cluster.Fleet {
	f, err := cluster.New(cluster.Config{
		Members: []cluster.MemberConfig{{SoC: cfg, Server: scfg}},
	}, spec, opt.Seed)
	if err != nil {
		// Every caller passes an open-loop spec; an error is a bug.
		panic(err)
	}
	return f
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

// pct formats a fraction as a percentage string.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

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
