package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"agilepkgc/internal/experiments"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/workload"
	"agilepkgc/internal/workload/replay"
)

// workloadDef is one benchmark workload: a scenario file under the
// workloads directory plus, where the scenario replays a recording, the
// step that synthesizes that recording from the seed before any timing.
type workloadDef struct {
	name string
	why  string
	// prepare writes the workload's generated inputs into the inputs
	// directory; nil when the scenario file is the whole input.
	prepare func(p paths, seed uint64) error
	// paper marks the workload carrying the paper's Fig 7(b,c)
	// comparison, whose fidelity checks and metrics apply to it alone.
	paper bool
	// bypass names, by per-layer metric name prefix, what the workload
	// does not exercise and why; the traced report prints the reason
	// next to those metrics.
	bypass map[string]string
}

var workloads = []workloadDef{
	{
		name:  "paper-memcached",
		why:   "the paper's own Fig 7(b,c) measurement on one machine: device models do the work, the cluster layer none",
		paper: true,
		bypass: map[string]string{
			"cluster.": "one machine, no balancer",
			"replay.":  "synthetic arrivals, no recording",
		},
	},
	{
		name:    "fleet-replay",
		why:     "2x4 rack_power_aware fleet replaying a recorded bursty stream: deep event queue, balancer, drain and feedback",
		prepare: synthFleetTrace,
		bypass: map[string]string{
			"workload.":               "arrivals come from the recording; the synthetic generator does no work",
			"cluster.ok_per_attempt":  "no fault layer",
			"cluster.retries_per_req": "no fault layer",
			"cluster.hedges_per_req":  "no fault layer",
			"cluster.shed_frac":       "no fault layer",
			"cluster.edge_":           "one fleet, no service-graph edges",
		},
	},
	{
		name: "tiered-faults",
		why:  "two-tier graph with a crashing backend: cancelled timeouts and hedges, push sources, joins and recovery",
		bypass: map[string]string{
			"replay.":        "synthetic arrivals, no recording",
			"cluster.drains": "no drain controller on either tier",
		},
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// paths locates the benchmark's files relative to the working
// directory: the scenario files it reads and the directory its
// generated inputs go to.
type paths struct {
	workloads string
	inputs    string
}

// defaultPaths is the layout seen from the repository root, where the
// benchmark runs.
var defaultPaths = paths{
	workloads: filepath.Join("perfbench", "workloads"),
	inputs:    filepath.Join(".bench_build", "inputs"),
}

func (p paths) scenarioFile(name string) string {
	return filepath.Join(p.workloads, name+".json")
}

// The fleet-replay recording: bursty Memcached at the ROADMAP's
// canonical fleet rate. The scenario file names the file; these fix
// what is recorded into it.
const (
	fleetReplayQPS        = 300000
	fleetReplayBurstiness = 8
	fleetReplayTrace      = "fleet-replay.trace"
)

// synthFleetTrace records the fleet-replay arrival stream from the seed
// with replay.Synthesize, split into the same warmup and window the
// scenario runs with, so the replay covers the whole run. It writes to
// a temporary name and renames, so an interrupted run never leaves a
// truncated trace behind.
func synthFleetTrace(p paths, seed uint64) error {
	data, err := os.ReadFile(p.scenarioFile("fleet-replay"))
	if err != nil {
		return err
	}
	var head struct {
		DurationMS float64 `json:"duration_ms"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("fleet-replay scenario: %w", err)
	}
	if head.DurationMS <= 0 {
		return fmt.Errorf("fleet-replay scenario: needs duration_ms > 0 to size the recording")
	}
	opt := experiments.Options{Duration: sim.Duration(head.DurationMS * float64(sim.Millisecond))}
	if err := os.MkdirAll(p.inputs, 0o755); err != nil {
		return err
	}
	final := filepath.Join(p.inputs, fleetReplayTrace)
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	spec := workload.MemcachedBursty(fleetReplayQPS, fleetReplayBurstiness)
	_, serr := replay.Synthesize(f, spec, seed, opt.Warmup(), opt.Duration)
	cerr := f.Close()
	if serr != nil {
		return fmt.Errorf("synthesize %s: %w", tmp, serr)
	}
	if cerr != nil {
		return cerr
	}
	return os.Rename(tmp, final)
}
