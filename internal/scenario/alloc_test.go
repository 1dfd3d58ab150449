package scenario

import (
	"runtime"
	"testing"

	"agilepkgc/internal/experiments"
	"agilepkgc/internal/sim"
)

// TestOpenLoopAllocsFlatInWindow pins the open-loop run path's steady
// state: once a point is assembled, simulating more of it allocates
// nothing per request. Doubling the window of a single-machine point
// (shallow, and Cdeep cycling through the PC6 flow), of a cluster point
// and of a service graph whose backend tier crashes (now and then, or in
// a storm) may add allocations worth under 1% of the extra requests the
// longer run generates.
func TestOpenLoopAllocsFlatInWindow(t *testing.T) {
	const window = 100 * sim.Millisecond
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"single machine", Scenario{
			Name:     "allocs-single",
			Config:   "CPC1A",
			Workload: Workload{Service: "memcached", QPS: 50000},
		}},
		{"single machine Cdeep", Scenario{
			Name:     "allocs-single-cdeep",
			Config:   "Cdeep",
			Workload: Workload{Service: "memcached", QPS: 4000},
		}},
		{"cluster", Scenario{
			Name:     "allocs-cluster",
			Config:   "CPC1A",
			Workload: Workload{Service: "memcached-bursty", QPS: 100000, Burstiness: 4},
			Cluster:  &Cluster{Servers: 4, Policy: "power_aware", P99TargetUS: 300},
		}},
		{"fault tier", Scenario{
			Name:     "allocs-fault-tier",
			Config:   "CPC1A",
			Workload: Workload{Service: "memcached-bursty", QPS: 60000, Burstiness: 4},
			Tiers: []Tier{
				{Name: "front", Cluster: Cluster{Servers: 4, Policy: "power_aware", P99TargetUS: 300}},
				{Name: "db", Service: "mysql", Cluster: Cluster{Servers: 4, Policy: "power_aware", P99TargetUS: 2000,
					Faults: &Faults{MTBFUS: 50000, MTTRUS: 2000, RequestTimeoutUS: 2000, MaxRetries: 2, HedgeDelayUS: 1000}}},
			},
			Edges: []Edge{{From: "front", To: "db", HitRatio: 0.9, TTLUS: 20000, Fanout: 2}},
		}},
		// A crash storm: the longer window reaches a higher in-flight
		// high-water mark, so it costs fresh pooled records, each of
		// which must stay a slab share plus one callback.
		{"fault tier storm", Scenario{
			Name:     "allocs-fault-tier-storm",
			Config:   "CPC1A",
			Workload: Workload{Service: "memcached-bursty", QPS: 60000, Burstiness: 4},
			Tiers: []Tier{
				{Name: "front", Cluster: Cluster{Servers: 4, Policy: "power_aware", P99TargetUS: 300}},
				{Name: "db", Service: "mysql", Cluster: Cluster{Servers: 4, Policy: "power_aware", P99TargetUS: 2000,
					Faults: &Faults{MTBFUS: 20000, MTTRUS: 2000, RequestTimeoutUS: 2000, MaxRetries: 2, HedgeDelayUS: 1000}}},
			},
			Edges: []Edge{{From: "front", To: "db", HitRatio: 0.9, TTLUS: 20000, Fanout: 2}},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(d sim.Duration) (allocs, generated uint64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := c.sc.Run(experiments.Options{Duration: d, Seed: 1, Parallelism: 1})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return after.Mallocs - before.Mallocs, res.Points[0].Generated
			}
			run(window) // settle process-wide lazy state
			a1, g1 := run(window)
			a2, g2 := run(2 * window)
			if g2 <= g1 {
				t.Fatalf("doubling the window generated no extra requests (%d then %d)", g1, g2)
			}
			extraAllocs, extraReqs := int64(a2)-int64(a1), g2-g1
			t.Logf("2x window: %d extra allocations, %d extra requests", extraAllocs, extraReqs)
			if float64(extraAllocs) >= 0.01*float64(extraReqs) {
				t.Errorf("doubling the window added %d allocations for %d extra requests (%.3f per request), want under 0.01",
					extraAllocs, extraReqs, float64(extraAllocs)/float64(extraReqs))
			}
		})
	}
}
