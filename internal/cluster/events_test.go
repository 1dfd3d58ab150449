package cluster

import (
	"testing"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// TestEventsPerRequest pins the engine's event count, and the number of
// requests that produced it, on three fixed runs: a one-server CPC1A
// Memcached point, a 2×4 rack_power_aware fleet with drain hold and
// SLA feedback, and the one-server point again through Measure (its
// warmup and measured window), which must cost no event beyond the
// simulation itself. The counts are deterministic for a fixed seed, so a
// model change that adds (or saves) events shows here as an exact
// difference. Update the pins only for a change that means to alter the
// event count, and say by how much per request.
func TestEventsPerRequest(t *testing.T) {
	for _, tc := range []struct {
		name            string
		cfg             Config
		spec            workload.Spec
		warmup, run     sim.Duration // Measure(warmup, run) when warmup is set, else Run(run)
		events, created uint64
	}{
		{
			name:    "one-server CPC1A memcached",
			cfg:     Config{Policy: RoundRobin, Members: uniformMembers(1, soc.CPC1A)},
			spec:    workload.Memcached(50000),
			run:     50 * sim.Millisecond,
			events:  34085,
			created: 2536,
		},
		{
			name: "2x4 rack_power_aware",
			cfg: Config{
				Policy:        RackPowerAware,
				P99Target:     300 * sim.Microsecond,
				Topology:      Topology{Racks: 2, ServersPerRack: 4},
				TorLatency:    5 * sim.Microsecond,
				DrainHold:     200 * sim.Microsecond,
				FeedbackEpoch: sim.Millisecond,
				Members:       uniformMembers(8, soc.CPC1A),
			},
			spec:    workload.MemcachedBursty(300000, 8),
			run:     20 * sim.Millisecond,
			events:  43975,
			created: 6638,
		},
		{
			name:    "one-server CPC1A memcached, measured",
			cfg:     Config{Policy: RoundRobin, Members: uniformMembers(1, soc.CPC1A)},
			spec:    workload.Memcached(50000),
			warmup:  10 * sim.Millisecond,
			run:     100 * sim.Millisecond,
			events:  73887,
			created: 5517,
		},
	} {
		fl, err := New(tc.cfg, tc.spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.warmup > 0 {
			fl.Measure(tc.warmup, tc.run)
		} else {
			fl.Run(tc.run)
		}
		events, created := fl.Engine().EventsFired(), fl.Generated()
		t.Logf("%s: %d events for %d requests (%.3f per request)", tc.name, events, created, float64(events)/float64(created))
		if events != tc.events || created != tc.created {
			t.Errorf("%s: %d events for %d requests, pinned %d for %d", tc.name, events, created, tc.events, tc.created)
		}
	}
}
