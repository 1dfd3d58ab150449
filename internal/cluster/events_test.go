package cluster

import (
	"testing"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// TestEventsPerRequest pins the engine's event count, and the number of
// requests that produced it, on two fixed runs: a one-server CPC1A
// Memcached point and a 2×4 rack_power_aware fleet with drain hold and
// SLA feedback. Both counts are deterministic for a fixed seed, so a
// model change that adds (or saves) events shows here as an exact
// difference. Update the pins only for a change that means to alter the
// event count, and say by how much per request.
func TestEventsPerRequest(t *testing.T) {
	for _, tc := range []struct {
		name            string
		cfg             Config
		spec            workload.Spec
		run             sim.Duration
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
	} {
		fl, err := New(tc.cfg, tc.spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fl.Run(tc.run)
		events, created := fl.Engine().EventsFired(), fl.Generated()
		t.Logf("%s: %d events for %d requests (%.3f per request)", tc.name, events, created, float64(events)/float64(created))
		if events != tc.events || created != tc.created {
			t.Errorf("%s: %d events for %d requests, pinned %d for %d", tc.name, events, created, tc.events, tc.created)
		}
	}
}
