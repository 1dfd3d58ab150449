// Command perfbench is the repository's benchmark: it runs one workload
// — a scenario file under perfbench/workloads — through scenario.Run,
// the path `apcsim scenario` takes, checks the simulated outputs, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with -trace 1 a separate traced run produces the per-layer
// ones. The human-readable report goes to standard error. Run it from
// the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload paper-memcached --seed 1 --seconds 10 --trace 0
//
// README.md in this directory explains the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"agilepkgc/internal/experiments"
	"agilepkgc/internal/scenario"
)

// defaultSeed is the seed the benchmark is tuned and reported on;
// heldOutSeed is kept out of tuning so a later performance claim can be
// checked on inputs nobody optimised against.
const (
	defaultSeed = 1
	heldOutSeed = 20221001
)

func main() {
	os.Exit(run(os.Args[1:], defaultPaths, os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	w       workloadDef
	seed    uint64
	seconds float64
	traced  bool
	paths   paths
}

func run(args []string, p paths, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (paper-memcached, fleet-replay, tiered-faults)")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for claims: %d)", uint64(heldOutSeed)))
	seconds := fs.Float64("seconds", 10, "host seconds of timed repetitions")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) || !(*seconds > 0) {
		fs.Usage()
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, paths: p}

	var out resultLine
	if cfg.traced {
		out, err = tracedRun(cfg, stderr)
	} else {
		out, err = untracedRun(cfg, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// prepared is a workload ready to time: inputs generated, set-up timed,
// and one warm-up repetition run and checked.
type prepared struct {
	file string
	scs  []scenario.Scenario
	opt  experiments.Options
	// setup holds every set-up time measured, in seconds.
	setup      []float64
	ref        []*scenario.Result
	violations []violation
}

// prepare generates the workload's inputs from the seed (excluded from
// every metric), times set-up, and runs the warm-up repetition whose
// results the checks read and every later repetition must reproduce.
func prepare(cfg config) (prepared, error) {
	if cfg.w.prepare != nil {
		if err := cfg.w.prepare(cfg.paths, cfg.seed); err != nil {
			return prepared{}, fmt.Errorf("generate inputs: %w", err)
		}
	}
	pr := prepared{file: cfg.paths.scenarioFile(cfg.w.name)}
	var err error
	if pr.scs, err = timeSetup(pr.file, &pr.setup); err != nil {
		return prepared{}, err
	}
	// Serial sweeps: one simulation goroutine, so the numbers measure
	// the simulator, not the scheduler.
	pr.opt = experiments.Options{Duration: experiments.DefaultOptions().Duration, Seed: cfg.seed, Parallelism: 1}
	if pr.ref, _, err = runRep(pr.scs, pr.opt); err != nil {
		return prepared{}, err
	}
	pr.violations = checkResults(cfg.w, pr.ref)
	return pr, nil
}

// verdict counts operations — simulated operating points — and the
// failed ones: points whose outputs broke a check, in every repetition
// that produced them, plus points a repetition failed to reproduce.
func verdict(pr prepared, rep repeated, extra int) (attempted, failed int, correct bool) {
	badPoints := map[[2]int]bool{}
	for _, v := range pr.violations {
		badPoints[[2]int{v.scenario, v.point}] = true
	}
	reps := len(rep.stats) + 1 // plus the warm-up
	pointsPerRep := rep.points / max(len(rep.stats), 1)
	attempted = reps * pointsPerRep
	failed = min(len(badPoints)*reps+rep.diverged+extra, attempted)
	return attempted, failed, failed == 0 && len(pr.violations) == 0 && extra == 0
}

func untracedRun(cfg config, stderr io.Writer) (resultLine, error) {
	pr, err := prepare(cfg)
	if err != nil {
		return resultLine{}, err
	}
	rep, err := repeat(&pr, cfg.seconds)
	if err != nil {
		return resultLine{}, err
	}
	reqPerS, allocsPerReq := hostFigures(rep.stats)
	rss, err := peakRSSMB()
	if err != nil {
		return resultLine{}, err
	}
	watts, p50, p99, okFrac, err := simFigures(pr.ref)
	if err != nil {
		return resultLine{}, err
	}
	values := map[string]float64{
		"sim_req_per_s":  reqPerS,
		"setup_s":        median(pr.setup),
		"allocs_per_req": allocsPerReq,
		"peak_rss_mb":    rss,
		"sim_watts":      watts,
		"sim_p50_us":     p50,
		"sim_p99_us":     p99,
		"ok_frac":        okFrac,
	}
	m, err := fill(endToEnd, values)
	if err != nil {
		return resultLine{}, err
	}
	attempted, failed, correct := verdict(pr, rep, 0)
	header(stderr, cfg, pr, rep)
	fmt.Fprintf(stderr, "end-to-end metrics (untraced):\n")
	printMetrics(stderr, endToEnd, values, nil)
	return resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// header prints the run's identity, repetition statistics and checks.
func header(w io.Writer, cfg config, pr prepared, rep repeated) {
	mode := "untraced"
	if cfg.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench: workload %s, seed %d, %gs, %s\n  why: %s\n", cfg.w.name, cfg.seed, cfg.seconds, mode, cfg.w.why)
	hosts := make([]float64, len(rep.stats))
	for i, s := range rep.stats {
		hosts[i] = s.host
	}
	fmt.Fprintf(w, "  repetitions: %d, host s each: median %.4f (q1 %.4f, q3 %.4f)\n",
		len(rep.stats), median(hosts), quantile(hosts, 0.25), quantile(hosts, 0.75))
	fmt.Fprintf(w, "  rep host s: %.4f\n", hosts)
	if len(pr.violations) == 0 && rep.diverged == 0 {
		paper := ""
		if cfg.w.paper {
			paper = ", Fig 7 savings and latency impact"
		}
		fmt.Fprintf(w, "  checks: all passed (conservation, edge accounting, residencies%s, determinism)\n", paper)
	}
	for _, v := range pr.violations {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", v)
	}
	if rep.diverged > 0 {
		fmt.Fprintf(w, "  CHECK FAILED: %d points differed from the first repetition\n", rep.diverged)
	}
}

// printMetrics prints defs in order with their values, units and
// notes; notes overrides a metric's note (used for bypassed layers).
func printMetrics(w io.Writer, defs []metricDef, values map[string]float64, notes map[string]string) {
	for _, d := range defs {
		note := d.note
		if n, ok := notes[d.name]; ok {
			note = n
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-7s %s\n", d.name, values[d.name], d.unit, note)
	}
}

func tracedRun(cfg config, stderr io.Writer) (resultLine, error) {
	pr, err := prepare(cfg)
	if err != nil {
		return resultLine{}, err
	}

	// Profiled untraced repetitions: the CPU profile and the runtime's
	// own GC accounting cover exactly the path end-to-end runs time.
	var prof bytes.Buffer
	gc0 := readCPUClasses()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return resultLine{}, err
	}
	rep, err := repeat(&pr, cfg.seconds)
	pprof.StopCPUProfile()
	if err != nil {
		return resultLine{}, err
	}
	runtime.ReadMemStats(&ms1)
	gc1 := readCPUClasses()
	byLayer, samples, err := flatByLayer(prof.Bytes())
	if err != nil {
		return resultLine{}, err
	}

	// The mirror: one more repetition, rebuilt on the public API
	// with spans and counters, which must reproduce the untraced results.
	rec := newRecorder()
	d := &mirror{rec: rec}
	t0 := time.Now()
	mirrored, err := d.run(pr.scs, pr.opt)
	tracedHost := time.Since(t0).Seconds()
	if err != nil {
		return resultLine{}, err
	}
	mismatch := parity(mirrored, pr.ref)

	values := layerValues(cfg, pr, d, byLayer, samples)
	hosts := make([]float64, len(rep.stats))
	var served uint64
	gcs := make([]float64, len(rep.stats))
	for i, s := range rep.stats {
		hosts[i] = s.host
		served += s.served
		gcs[i] = float64(s.gcs)
	}
	untracedHost := median(hosts)
	values["sim.ns_per_event"] = ratio(untracedHost*1e9, float64(d.counts.events))
	values["trace_overhead_pct"] = (tracedHost/untracedHost - 1) * 100
	values["runtime.gc_cpu_share"] = gc1.gcShareSince(gc0)
	values["runtime.alloc_bytes_per_req"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(served))
	values["runtime.gc_cycles"] = median(gcs)

	m, err := fill(perLayer, values)
	if err != nil {
		return resultLine{}, err
	}
	attempted, failed, correct := verdict(pr, rep, len(mirrored)*min(len(mismatch), 1))

	header(stderr, cfg, pr, rep)
	if len(mismatch) == 0 {
		fmt.Fprintf(stderr, "  parity: mirror reproduced all %d points bit for bit\n", len(mirrored))
	}
	for _, msg := range mismatch {
		fmt.Fprintf(stderr, "  PARITY FAILED: %s\n", msg)
	}
	fmt.Fprintf(stderr, "  profile: %d flat samples at 100 Hz (one sample = 10 ms; shares below ~%.1f%% are noise)\n",
		samples, 100*10/float64(max(samples, 1)))
	fmt.Fprintf(stderr, "spans (mirror, host ms; self = span minus its child spans):\n")
	for i, s := range rec.spans {
		indent := "  "
		if s.parent >= 0 {
			indent = "    "
		}
		fmt.Fprintf(stderr, "%s%-34s %10.3f  self %10.3f\n", indent, s.name,
			float64(s.end-s.start)/1e6, float64(rec.selfTime(i))/1e6)
	}
	fmt.Fprintf(stderr, "  %d arrival spans around %s\n", len(rec.sinkNS), sinkCall(d.counts.sink))
	fmt.Fprintf(stderr, "per-layer metrics (traced run):\n")
	printMetrics(stderr, perLayer, values, bypassNotes(cfg.w, d.counts, values))
	return resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func sinkCall(sink string) string {
	if sink == "server" {
		return "server.Submit"
	}
	return "the balancer's routing sink (cluster.Config.NewSource)"
}

// layerValues computes the per-layer metrics the traced run measures
// directly: profile shares, span percentiles and counts.
func layerValues(cfg config, pr prepared, d *mirror, byLayer map[string]int64, samples int64) map[string]float64 {
	c := d.counts
	rec := d.rec
	values := map[string]float64{}
	for _, l := range cpuLayers {
		values[l+".cpu_share"] = ratio(float64(byLayer[l]), float64(samples))
	}
	perReq := func(n uint64) float64 { return ratio(float64(n), float64(c.windowServed)) }
	values["sim.events_per_req"] = ratio(float64(c.events), float64(c.generated))
	values["sim.pending_p50"] = quantileOr0(rec.pending, 0.5)
	values["sim.pending_max"] = quantileOr0(rec.pending, 1)
	values["cpu.wakes_per_req"] = perReq(c.wakes)
	values["core.pc1a_entries_per_req"] = perReq(c.pc1a)
	values["dram.accesses_per_req"] = perReq(c.dramAcc)
	values["dram.cke_entries_per_req"] = perReq(c.cke)
	values["ios.standby_entries_per_req"] = perReq(c.standby)
	values["ios.wakes_per_req"] = perReq(c.lwak)
	values["server.submit_ns_p50"], values["cluster.route_ns_p50"], values["cluster.route_ns_p99"] = 0, 0, 0
	if c.sink == "server" {
		values["server.submit_ns_p50"] = quantileOr0(rec.sinkNS, 0.5)
	} else {
		values["cluster.route_ns_p50"] = quantileOr0(rec.sinkNS, 0.5)
		values["cluster.route_ns_p99"] = quantileOr0(rec.sinkNS, 0.99)
	}
	values["cluster.drains"] = float64(c.drains)
	values["cluster.ok_per_attempt"] = ratio(float64(c.faultOK), float64(c.faultGen+c.retried+c.hedged))
	values["cluster.retries_per_req"] = ratio(float64(c.retried), float64(c.faultGen))
	values["cluster.hedges_per_req"] = ratio(float64(c.hedged), float64(c.faultGen))
	values["cluster.shed_frac"] = ratio(float64(c.shedded), float64(c.faultGen))
	values["cluster.edge_miss_frac"] = ratio(float64(c.misses), float64(c.lookups))
	values["cluster.edge_issued_per_req"] = ratio(float64(c.issued), float64(c.generated))
	values["scenario.load_s"] = median(pr.setup)
	values["paper.err_pp"], values["paper.latency_impact_pct"] = 0, 0
	if cfg.w.paper {
		pc, _ := paperFigures(pr.ref)
		values["paper.err_pp"] = pc.errPP
		values["paper.latency_impact_pct"] = pc.impactPct
	}
	return values
}

func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

// bypassNotes says, for every per-layer metric the workload does not
// exercise or the public API cannot observe, why it reads 0.
func bypassNotes(w workloadDef, c layerCounts, values map[string]float64) map[string]string {
	notes := map[string]string{}
	for _, d := range perLayer {
		for prefix, why := range w.bypass {
			if strings.HasPrefix(d.name, prefix) {
				notes[d.name] = "bypassed: " + why
			}
		}
		if _, ok := notes[d.name]; !ok && values[d.name] == 0 && strings.HasSuffix(d.name, ".cpu_share") {
			notes[d.name] = "no flat samples: below the profile's resolution"
		}
	}
	if !c.devices {
		for _, n := range []string{"cpu.wakes_per_req", "dram.accesses_per_req", "dram.cke_entries_per_req",
			"ios.standby_entries_per_req", "ios.wakes_per_req"} {
			notes[n] = "n/a: fleet members' SoCs are private to the cluster layer"
		}
	}
	if c.sink == "cluster" {
		notes["server.submit_ns_p50"] = "n/a: server.Submit runs inside the balancer's routing (see cluster.route_ns_*)"
	}
	if !w.paper {
		notes["paper.err_pp"] = "n/a: only paper-memcached has published reference values"
		notes["paper.latency_impact_pct"] = "n/a: only paper-memcached pairs Cshallow with CPC1A"
	}
	return notes
}

// cpuClasses is a reading of the runtime's CPU accounting.
type cpuClasses struct{ gc, total, idle float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return cpuClasses{gc: val(0), total: val(1), idle: val(2)}
}

// gcShareSince is the GC's share of the busy (non-idle) CPU time
// between two readings.
func (c cpuClasses) gcShareSince(c0 cpuClasses) float64 {
	return ratio(c.gc-c0.gc, (c.total-c0.total)-(c.idle-c0.idle))
}
