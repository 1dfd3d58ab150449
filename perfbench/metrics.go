package main

import (
	"fmt"
	"math"
	"slices"
)

// metricDef names one reported figure exactly as BENCHMARK.json lists
// it (TestMetricNamesMatchBenchmarkJSON keeps the two in step).
type metricDef struct {
	name, unit string
	// note explains the metric in the human-readable report.
	note string
}

// endToEnd is what a user of the simulator sees, measured with tracing
// off. Host-time metrics vary run to run; the sim_* figures and ok_frac
// are deterministic for a seed.
var endToEnd = []metricDef{
	{"sim_req_per_s", "1/s", "simulated requests completed per host second (median over repetitions)"},
	{"setup_s", "s", "scenario.LoadFile incl. validation and trace preflight (median)"},
	{"allocs_per_req", "count", "host heap allocations per simulated request (median over repetitions)"},
	{"peak_rss_mb", "MB", "peak resident memory of the benchmark process"},
	{"sim_watts", "W", "mean simulated SoC+DRAM watts of the CPC1A machines, summed over servers and tiers, averaged over points"},
	{"sim_p50_us", "sim_us", "client p50 latency in simulated us (worst CPC1A point)"},
	{"sim_p99_us", "sim_us", "client p99 latency in simulated us (worst CPC1A point)"},
	{"ok_frac", "ratio", "simulated requests that succeeded / generated (1 - fail_frac)"},
}

// perLayer comes from the traced run. A workload that bypasses a layer
// reports 0 for it and says so in the report (see bypassNotes).
var perLayer = []metricDef{
	{"sim.events_per_req", "count", "engine events fired per generated request"},
	{"sim.ns_per_event", "ns", "untraced host ns per engine event"},
	{"sim.pending_p50", "count", "Engine.Pending() sampled at each arrival, median"},
	{"sim.pending_max", "count", "Engine.Pending() sampled at each arrival, max"},
	{"sim.cpu_share", "ratio", ""},
	{"signal.cpu_share", "ratio", ""},
	{"power.cpu_share", "ratio", ""},
	{"cpu.cpu_share", "ratio", ""},
	{"core.cpu_share", "ratio", ""},
	{"pmu.cpu_share", "ratio", ""},
	{"dram.cpu_share", "ratio", ""},
	{"ios.cpu_share", "ratio", ""},
	{"uncore.cpu_share", "ratio", ""},
	{"pdn.cpu_share", "ratio", ""},
	{"clock.cpu_share", "ratio", ""},
	{"soc.cpu_share", "ratio", ""},
	{"cpu.wakes_per_req", "count", "core wakes per request served in the window"},
	{"core.pc1a_entries_per_req", "count", "APMU PC1A entries per request served in the window"},
	{"dram.accesses_per_req", "count", "memory-controller accesses per request served in the window"},
	{"dram.cke_entries_per_req", "count", "CKE power-down entries per request served in the window"},
	{"ios.standby_entries_per_req", "count", "IO link standby entries per request served in the window"},
	{"ios.wakes_per_req", "count", "IO link wakes per request served in the window"},
	{"trace.cpu_share", "ratio", ""},
	{"stats.cpu_share", "ratio", ""},
	{"math.cpu_share", "ratio", ""},
	{"workload.cpu_share", "ratio", ""},
	{"replay.cpu_share", "ratio", ""},
	{"server.submit_ns_p50", "ns", "host ns inside server.Submit per arrival, median"},
	{"server.cpu_share", "ratio", ""},
	{"cluster.route_ns_p50", "ns", "host ns inside the balancer's routing sink per arrival, median"},
	{"cluster.route_ns_p99", "ns", "host ns inside the balancer's routing sink per arrival, p99"},
	{"cluster.cpu_share", "ratio", ""},
	{"cluster.drains", "count", "completed hysteretic drains in the measured window's run"},
	{"cluster.ok_per_attempt", "ratio", "fault tier: OK / (generated + retries + hedges)"},
	{"cluster.retries_per_req", "count", "fault tier: retries per generated request"},
	{"cluster.hedges_per_req", "count", "fault tier: hedged copies per generated request"},
	{"cluster.shed_frac", "ratio", "fault tier: shed / generated"},
	{"cluster.edge_miss_frac", "ratio", "edge misses / lookups"},
	{"cluster.edge_issued_per_req", "count", "edge backend requests issued per root request"},
	{"scenario.load_s", "s", "scenario.LoadFile span, median"},
	{"scenario.cpu_share", "ratio", ""},
	{"experiments.cpu_share", "ratio", ""},
	{"runtime.cpu_share", "ratio", ""},
	{"other.cpu_share", "ratio", "standard library outside math and runtime, plus the benchmark itself"},
	{"runtime.gc_cpu_share", "ratio", "GC CPU over busy CPU during the profiled repetitions (runtime/metrics)"},
	{"runtime.alloc_bytes_per_req", "B", "heap bytes allocated per simulated request"},
	{"runtime.gc_cycles", "count", "GC cycles per repetition, median"},
	{"paper.err_pp", "pp", "largest |simulated - published| Fig 7(b) saving, percentage points"},
	{"paper.latency_impact_pct", "%", "worst mean-latency increase of CPC1A over Cshallow"},
	{"trace_overhead_pct", "%", "mirror host time over untraced repetition host time, minus 100%"},
}

// cpuLayers are the package groups whose flat profile share is
// reported as <layer>.cpu_share, in report order.
var cpuLayers = []string{
	"sim", "signal", "power", "cpu", "core", "pmu", "dram", "ios", "uncore", "pdn", "clock", "soc",
	"trace", "stats", "math", "workload", "replay", "server", "cluster", "scenario", "experiments",
	"runtime", "other",
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics object for defs from values, failing on a
// missing or non-finite value rather than printing a partial result.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.name == name }) {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ratio divides, reading 0/0 as 0 so a bypassed layer reports zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
