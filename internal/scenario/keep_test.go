package scenario

import (
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/experiments"
	"agilepkgc/internal/server"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// keepScenarios are the runs the keep tests draw on: a one-machine QPS
// sweep (the paper-memcached shape), the same sweep on another config,
// a fleet whose servers axis changes shape mid-sweep, and a two-tier
// graph with a faulty backend (the tiered-faults shape).
const keepScenarios = `[
{"name": "sweep-pc1a", "config": "CPC1A", "duration_ms": 20,
 "workload": {"service": "memcached"},
 "sweep": {"axis": "qps", "values": [4000, 20000, 50000]}},
{"name": "sweep-shallow", "config": "Cshallow", "duration_ms": 20,
 "workload": {"service": "memcached"},
 "sweep": {"axis": "qps", "values": [4000, 20000, 50000]}},
{"name": "reshape", "config": "CPC1A", "duration_ms": 20,
 "workload": {"service": "memcached-bursty", "qps": 40000, "burstiness": 4},
 "cluster": {"servers": 1, "policy": "power_aware", "p99_target_us": 300},
 "sweep": {"axis": "servers", "values": [1, 2]}},
{"name": "tiered", "config": "CPC1A", "duration_ms": 20,
 "workload": {"service": "memcached-bursty", "qps": 60000, "burstiness": 4},
 "tiers": [
  {"name": "front", "servers": 2, "policy": "power_aware", "p99_target_us": 300},
  {"name": "db", "service": "mysql", "servers": 2, "policy": "power_aware", "p99_target_us": 2000,
   "faults": {"mtbf_us": 5000, "mttr_us": 2000, "request_timeout_us": 2000,
              "max_retries": 2, "hedge_delay_us": 1000}}],
 "edges": [{"from": "front", "to": "db", "hit_ratio": 0.9, "ttl_us": 20000, "fanout": 2}]}
]`

// raceBuild is set under the race detector, whose runtime allocates on
// its own schedule (its sync.Pool drops items at random), so exact
// allocation counts are pinned only in normal builds.
var raceBuild bool

func loadKeepScenarios(t *testing.T) map[string]Scenario {
	t.Helper()
	scs, err := Load(strings.NewReader(keepScenarios))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Scenario{}
	for _, sc := range scs {
		byName[sc.Name] = sc
	}
	return byName
}

// emptyKeep leaves the process-wide keep of idle graphs empty. The keep
// drops a graph that 64 takes in a row passed over, so it draws from it
// more often than that, holding on to nothing it is handed.
func emptyKeep() {
	cfg := cluster.GraphConfig{Tiers: []cluster.TierConfig{{
		Cluster: cluster.Config{Members: []cluster.MemberConfig{{
			SoC: soc.DefaultConfig(soc.Cshallow), Server: server.DefaultConfig(),
		}}},
		Spec: workload.Memcached(1000),
	}}}
	for range 100 {
		var r cluster.GraphReuse
		r.Draw(cfg)
	}
}

// runJSON runs sc and returns its result's JSON bytes.
func runJSON(t *testing.T, sc Scenario, par int) string {
	t.Helper()
	res, err := sc.Run(experiments.Options{Seed: 1, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// allocSites runs f once with every heap allocation profiled and
// reports which of the named functions were on the stack of at least
// one of f's allocations.
func allocSites(f func(), names ...string) map[string]bool {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	counts := func() map[[32]uintptr]int64 {
		// A profile reflects the allocations up to the last completed
		// cycle but one.
		runtime.GC()
		runtime.GC()
		var recs []runtime.MemProfileRecord
		for {
			n, ok := runtime.MemProfile(recs, true)
			if ok {
				recs = recs[:n]
				break
			}
			recs = make([]runtime.MemProfileRecord, n+64)
		}
		out := make(map[[32]uintptr]int64, len(recs))
		for _, r := range recs {
			out[r.Stack0] = r.AllocObjects
		}
		return out
	}
	before := counts()
	f()
	after := counts()
	hit := map[string]bool{}
	for stk, n := range after {
		if n <= before[stk] {
			continue
		}
		var pcs []uintptr
		for _, pc := range stk {
			if pc == 0 {
				break
			}
			pcs = append(pcs, pc)
		}
		frames := runtime.CallersFrames(pcs)
		for {
			fr, more := frames.Next()
			for _, name := range names {
				if fr.Function == name {
					hit[name] = true
				}
			}
			if !more {
				break
			}
		}
	}
	return hit
}

// TestScenarioRunKeepsMachines pins what the process-wide keep buys a
// process that runs scenarios more than once: a warm run rewinds the
// machines the previous run left behind instead of assembling new
// ones, and its bytes equal a cold run's whatever ran in
// between — a same-shape run on another config, or a run whose sweep
// changes shape.
func TestScenarioRunKeepsMachines(t *testing.T) {
	scs := loadKeepScenarios(t)

	// Allocation counts at Parallelism 1. A warm run draws every machine
	// from the keep, so what is left is per-run bookkeeping —
	// validation, the job list, spec names, the measurements that escape
	// into the Result — pinned exactly. A cold run assembles them all: it
	// must cost at least the assembly's allocations more. Its own count
	// is a floor, not a pin, because validation formats with fmt, whose
	// printers come from a sync.Pool that any GC may empty.
	for _, c := range []struct {
		name     string
		warm     float64
		assembly uint64
	}{
		{"sweep-pc1a", 22, 72},
		{"tiered", 30, 380},
	} {
		sc := scs[c.name]
		run := func() {
			if _, err := sc.Run(experiments.Options{Seed: 1, Parallelism: 1}); err != nil {
				t.Fatal(err)
			}
		}
		emptyKeep()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		cold := m1.Mallocs - m0.Mallocs
		warm := testing.AllocsPerRun(10, run)
		if !raceBuild && (warm != c.warm || cold < uint64(warm)+c.assembly) {
			t.Errorf("%s: a cold run allocated %d times and a warm one %v, want at least %d more and %v",
				c.name, cold, warm, c.assembly, c.warm)
		}
		for name := range allocSites(run, "agilepkgc/internal/cluster.NewGraph") {
			t.Errorf("%s: a warm run reached %s", c.name, name)
		}
	}

	// A's bytes after other runs left their graphs in the keep.
	a := scs["sweep-pc1a"]
	emptyKeep()
	fresh := runJSON(t, a, 1)
	for _, other := range []string{"sweep-shallow", "reshape", "tiered"} {
		runJSON(t, scs[other], 1)
		if got := runJSON(t, a, 1); got != fresh {
			t.Errorf("sweep-pc1a after %s diverged from a cold run:\n got %s\nwant %s", other, got, fresh)
		}
	}
}

// TestScenarioRunKeepConcurrent runs the same loaded scenarios from two
// goroutines at once, each sweep on two workers, so four workers draw
// from and hand back to the keep concurrently; every result must equal
// a serial run's bytes. It is the keep's race test under `make race`.
func TestScenarioRunKeepConcurrent(t *testing.T) {
	scs, err := Load(strings.NewReader(keepScenarios))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(scs))
	for i, sc := range scs {
		want[i] = runJSON(t, sc, 1)
	}
	got := make([][]string, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(len(got))
	for g := range got {
		go func() {
			defer wg.Done()
			for _, sc := range scs {
				res, err := sc.Run(experiments.Options{Seed: 1, Parallelism: 2})
				if err != nil {
					errs[g] = err
					return
				}
				b, err := json.Marshal(res)
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], string(b))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := range scs {
			if got[g][i] != want[i] {
				t.Errorf("goroutine %d: %s at Parallelism 2 diverged from the serial run", g, scs[i].Name)
			}
		}
	}
}

// TestWarmPointAllocs pins what a warm point allocates. A point draws
// its graph from the worker and its configuration from the worker's
// scratch, and measures into the run's one slab, so a point of a
// one-machine QPS sweep allocates only its workload spec: the name its
// Point keeps, and the boxed arrival law. Doubling the sweep's points
// costs exactly that per added point. A one-point two-tier graph with a
// faulty backend is pinned whole: the run's bookkeeping, its slab, and
// the backend tier's spec.
func TestWarmPointAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race runtime allocates on its own schedule")
	}
	scs := loadKeepScenarios(t)
	warm := func(sc Scenario) float64 {
		run := func() {
			if _, err := sc.Run(experiments.Options{Seed: 1, Parallelism: 1}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(10, run)
	}

	sweep := scs["sweep-pc1a"]
	sweep.DurationMS = 5
	n := len(sweep.Sweep.Values)
	base := warm(sweep)
	doubled := sweep
	doubled.Sweep = &Sweep{Axis: AxisQPS, Values: append(slices.Clone(sweep.Sweep.Values), sweep.Sweep.Values...)}
	perPoint := (warm(doubled) - base) / float64(n)
	if perPoint != 2 || base != 22 {
		t.Errorf("one-machine sweep: %v allocations for %d points and %v per added point, want 22 and 2", base, n, perPoint)
	}

	if got := warm(scs["tiered"]); got != 30 {
		t.Errorf("two-tier graph: a warm one-point run allocated %v times, want 30", got)
	}
}

// TestResultOwnsItsStorage runs scenarios whose Points hold every kind
// of storage a measurement is copied into — PC1A values, per-server and
// per-rack rows, tier measurements, edges and the client view — then
// runs them again at another seed, which rewinds the same graphs and
// rewrites the same worker scratch. The first Result must marshal to
// the bytes it had: nothing it holds is storage a later run reuses.
func TestResultOwnsItsStorage(t *testing.T) {
	scs := loadKeepScenarios(t)
	racked, err := Load(strings.NewReader(`{"name": "racked", "config": "CPC1A", "duration_ms": 20,
 "workload": {"service": "memcached-bursty", "qps": 40000, "burstiness": 4},
 "cluster": {"servers": 4, "racks": 2, "tor_latency_us": 5, "policy": "rack_power_aware", "p99_target_us": 300}}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scenario{scs["sweep-pc1a"], racked[0], scs["tiered"]} {
		first, err := sc.Run(experiments.Options{Seed: 1, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(first)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Run(experiments.Options{Seed: 2, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(first)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: the first Result changed when the scenario ran again:\n got %s\nwant %s", sc.Name, got, want)
		}
	}
}
