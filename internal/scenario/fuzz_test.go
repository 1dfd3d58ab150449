package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/experiments"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
)

// FuzzLoadScenario fuzzes the JSON loader: whatever the bytes, Load
// must return cleanly — no panic — and any error that carries a byte
// offset must be wrapped with the line/column position
// (locateJSONError), so a mangled scenario file always points at the
// failing byte. The seed corpus is every shipped example scenario plus
// a few shapes the examples don't cover.
func FuzzLoadScenario(f *testing.F) {
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(examples) == 0 {
		f.Fatal("no example scenarios found for the seed corpus")
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"name":"a"},{"name":"b"}]`))
	f.Add([]byte(`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":1}}{"trailing":1}`))
	f.Add([]byte(`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":"oops"}}`))
	f.Add([]byte(`{"name":"x","cluster":{"servers":2,"policy":"round_robin","faults":{"mtbf_us":-1}}}`))
	f.Add([]byte("{\"name\":\n\"unterminated"))
	// Tiered shapes: a valid two-tier graph, an edge into an unknown
	// tier, a hit ratio outside [0,1], fan-out on a never-miss edge,
	// and a two-edge cycle.
	f.Add([]byte(`{"name":"t","config":"CPC1A","workload":{"service":"memcached","qps":1},"tiers":[{"name":"a","servers":1,"policy":"round_robin"},{"name":"b","service":"mysql","servers":1,"policy":"round_robin"}],"edges":[{"from":"a","to":"b","hit_ratio":0.9,"ttl_us":500,"fanout":2}]}`))
	f.Add([]byte(`{"name":"t","tiers":[{"name":"a","servers":1,"policy":"round_robin"}],"edges":[{"from":"a","to":"nope","hit_ratio":0.5}]}`))
	f.Add([]byte(`{"name":"t","tiers":[{"name":"a","servers":1,"policy":"round_robin"},{"name":"b","service":"kafka","servers":1,"policy":"round_robin"}],"edges":[{"from":"a","to":"b","hit_ratio":2}]}`))
	f.Add([]byte(`{"name":"t","tiers":[{"name":"a","servers":1,"policy":"round_robin"},{"name":"b","service":"mysql","servers":1,"policy":"round_robin"}],"edges":[{"from":"a","to":"b","hit_ratio":1,"fanout":3}]}`))
	f.Add([]byte(`{"name":"t","tiers":[{"name":"a","servers":1,"policy":"round_robin"},{"name":"b","service":"mysql","servers":1,"policy":"round_robin"},{"name":"c","service":"mysql","servers":1,"policy":"round_robin"}],"edges":[{"from":"a","to":"b","hit_ratio":0.5},{"from":"b","to":"c","hit_ratio":0.5},{"from":"c","to":"b","hit_ratio":0.5}]}`))

	// Shapes that loaded and then failed in Run: sub-nanosecond values
	// the cluster reads as zero (a repair time, a P99 target, a TTL on a
	// fan-out hit edge), racks that do not divide a tier, and an
	// override index beyond a swept fleet size.
	f.Add([]byte(`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":1000},"cluster":{"servers":2,"policy":"round_robin","faults":{"mtbf_us":5000,"mttr_us":0.0001}}}`))
	f.Add([]byte(`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":1000},"cluster":{"servers":2,"policy":"power_aware","p99_target_us":0.0001}}`))
	f.Add([]byte(`{"name":"t","config":"CPC1A","workload":{"service":"memcached","qps":1000},"tiers":[{"name":"a","servers":1,"policy":"round_robin"},{"name":"b","service":"mysql","servers":1,"policy":"round_robin"}],"edges":[{"from":"a","to":"b","hit_ratio":1,"ttl_us":0.0001,"fanout":3}]}`))
	f.Add([]byte(`{"name":"t","config":"CPC1A","workload":{"service":"memcached","qps":1000},"tiers":[{"name":"a","servers":3,"racks":2,"policy":"round_robin"}]}`))
	f.Add([]byte(`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":1000},"cluster":{"servers":2,"policy":"round_robin","server_overrides":{"3":{}}},"sweep":{"axis":"servers","values":[2,4]}}`))

	// Shapes that loaded and then panicked in the engine: delays that fit
	// int64 but wrap it once added to now — a retry timeout whose
	// doubling saturated past the engine's time, a hedge delay — and a
	// tick period so long that staggering the cores across it wrapped.
	f.Add([]byte(`{"name":"x","config":"CPC1A","duration_ms":20,"workload":{"service":"memcached","qps":200000},"cluster":{"servers":4,"policy":"round_robin","faults":{"mtbf_us":2000,"mttr_us":1000,"request_timeout_us":5e15,"max_retries":2}}}`))
	f.Add([]byte(`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":20000},"cluster":{"servers":2,"policy":"round_robin","faults":{"hedge_delay_us":9.22337203685e15}}}`))
	f.Add([]byte(`{"name":"x","config":"CPC1A","workload":{"service":"memcached","qps":20000},"server":{"timer_tick_hz":2.2e-10,"tick_kernel_us":1}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		scs, err := Load(bytes.NewReader(data))
		if err != nil {
			// Offset-carrying decode errors must be located: the wrap
			// contract is "line L, column C (byte N)" prefixed onto the
			// original error.
			var synErr *json.SyntaxError
			var typeErr *json.UnmarshalTypeError
			if errors.As(err, &synErr) || errors.As(err, &typeErr) {
				var off int64
				if synErr != nil {
					off = synErr.Offset
				} else {
					off = typeErr.Offset
				}
				if off >= 1 && off <= int64(len(data)) && !strings.Contains(err.Error(), "line ") {
					t.Errorf("offset-carrying error not located: %v", err)
				}
			}
			return
		}
		// A loaded scenario has passed Validate; re-running it must
		// agree (Load's contract is "valid or error", never "loaded
		// but invalid").
		for i := range scs {
			if err := scs[i].Validate(); err != nil {
				t.Errorf("Load returned scenario %d that fails Validate: %v", i, err)
			}
			checkPointsRun(t, &scs[i])
		}
	})
}

// Bounds on what each fuzzed point gets. A point above
// maxFuzzBuildServers servers is neither built nor run: its member
// configurations alone would not fit in memory. The run's window
// reaches past the instant (5.03 ms) at which the seed corpus's hedge
// delay wrapped the engine's time. A built point is not run when its
// run would cost more than a fuzz input should: above maxFuzzServers
// servers, more than maxFuzzRequests expected requests in the window,
// more than maxFuzzThreads closed-loop clients, or a periodic process
// (timer tick, feedback epoch, injected fault) firing more often than
// every minFuzzPeriod.
const (
	maxFuzzBuildServers = 256

	fuzzWindow      = 6 * sim.Millisecond
	maxFuzzServers  = 8
	maxFuzzRequests = 2000
	maxFuzzThreads  = 64
	minFuzzPeriod   = 10 * sim.Microsecond
)

// checkPointsRun is FuzzLoadScenario's no-panic property: a scenario
// that loads also runs. Every point converts through the run's own
// conversion (runConfig) into a graph the cluster layer accepts, and a
// small one (fuzzCheap) then runs for fuzzWindow, with no warmup,
// under recover. Trace points need their recording and a point without
// a rate is Run's to reject, so neither runs; a sysbench point runs the
// closed loop, with its own warmup.
func checkPointsRun(t *testing.T, s *Scenario) {
	if s.Workload.Service == "trace" {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("scenario %q: running a point panicked: %v", s.Name, r)
		}
	}()
	kind, _ := soc.ParseConfigKind(s.Config)
	axis := ""
	if s.Sweep != nil {
		axis = s.Sweep.Axis
	}
	for _, v := range s.values() {
		var one [1]Tier
		pt := s.at(axis, v)
		g, _ := pt.asGraph(&one)
		spec, err := g.Workload.spec(soc.DefaultConfig(kind).CoreCount * g.Tiers[0].Servers)
		if err != nil {
			continue
		}
		if s.Workload.Service == "sysbench" {
			if pt.Workload.Threads <= maxFuzzThreads && tickCheap(pt.serverConfig(nil, 0), soc.DefaultConfig(kind).CoreCount) {
				slab := cluster.MakeSlab(pt.slabSize())
				runClosedLoop(&pt, v, experiments.Options{Duration: fuzzWindow, Seed: 1}, &slab)
			}
			continue
		}
		servers := 0
		for _, tier := range g.Tiers {
			servers += tier.Servers
		}
		if servers > maxFuzzBuildServers {
			continue
		}
		var w worker
		err = w.runConfig(&g, kind, spec)
		if err == nil {
			err = w.gcfg.Validate()
		}
		if err != nil {
			t.Errorf("scenario %q [%g]: loaded, but the cluster rejects the point: %v", s.Name, v, err)
			continue
		}
		if fuzzCheap(&w) {
			gr, err := w.reuse.Graph(w.gcfg, 1)
			if err != nil {
				t.Errorf("scenario %q [%g]: loaded, but the graph does not build: %v", s.Name, v, err)
				continue
			}
			gr.Measure(0, fuzzWindow)
		}
	}
}

// fuzzCheap reports whether the point in w's scratch (runConfig's)
// stays within the fuzz run's bounds.
func fuzzCheap(w *worker) bool {
	servers := 0
	for _, tc := range w.gcfg.Tiers {
		servers += len(tc.Cluster.Members)
	}
	if servers > maxFuzzServers {
		return false
	}
	requests := 0.0
	for _, r := range w.rates {
		requests += r * fuzzWindow.Seconds()
	}
	if requests > maxFuzzRequests {
		return false
	}
	for _, tc := range w.gcfg.Tiers {
		c := &tc.Cluster
		for _, d := range []sim.Duration{c.FeedbackEpoch, c.Faults.MTBF, c.Faults.BrownoutMTBF, c.Faults.TorPartitionMTBF} {
			if d > 0 && d < minFuzzPeriod {
				return false
			}
		}
		for _, m := range c.Members {
			if !tickCheap(m.Server, m.SoC.CoreCount) {
				return false
			}
		}
	}
	return true
}

// tickCheap reports whether a server's timer ticks, one per core per
// period, fire no more often than every minFuzzPeriod on the whole.
func tickCheap(cfg server.Config, cores int) bool {
	return cfg.TimerTickHz*float64(cores)*minFuzzPeriod.Seconds() <= 1
}
