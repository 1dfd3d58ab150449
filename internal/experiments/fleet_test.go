package experiments_test

import (
	"encoding/json"
	"errors"
	"testing"

	"agilepkgc/internal/experiments"
	"agilepkgc/internal/scenario"
	"agilepkgc/internal/sim"
)

// The fleet extension experiments are embedded scenario files that
// package scenario registers. These tests run them through the
// registry, as `apcsim run <name>` does, and check the physics each
// experiment exists to show.

// runFleet runs one registered fleet experiment and returns its
// scenarios' results in file order.
func runFleet(t *testing.T, name string, opt experiments.Options) []*scenario.Result {
	t.Helper()
	e, ok := experiments.Lookup(name)
	if !ok {
		t.Fatalf("%s is not registered", name)
	}
	res, err := e.Run(opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res.(*scenario.Results).Scenarios
}

// shortOptions is QuickOptions with the window divided by div.
func shortOptions(div sim.Duration) experiments.Options {
	opt := experiments.QuickOptions()
	opt.Duration /= div
	return opt
}

func TestClusterScalingShape(t *testing.T) {
	rs := runFleet(t, "cluster-scaling", shortOptions(2))
	if len(rs) != 2 || rs[0].Scenario.Cluster.Policy != "round_robin" || rs[1].Scenario.Cluster.Policy != "power_aware" {
		t.Fatalf("want a round_robin and a power_aware sweep, got %d scenarios", len(rs))
	}
	rr, pa := rs[0].Points, rs[1].Points
	if rr[0].Axis != 1 || rr[1].Axis != 2 || pa[0].Axis != 1 {
		t.Fatalf("unexpected point order: %g %g %g", rr[0].Axis, rr[1].Axis, pa[0].Axis)
	}
	// The two 1-server points must agree exactly: with one member every
	// policy routes identically, so any divergence is nondeterminism.
	if rr[0].Served != pa[0].Served || rr[0].TotalWatts != pa[0].TotalWatts {
		t.Errorf("1-server fleets diverge across policies: %+v vs %+v", rr[0], pa[0])
	}
	// Fixed aggregate load on more servers must cost more fleet power
	// (each added chassis burns idle watts) — the energy-proportionality
	// deficit the experiment exists to show.
	if rr[1].TotalWatts <= rr[0].TotalWatts {
		t.Errorf("2-server fleet cheaper than 1-server at same load: %g <= %g",
			rr[1].TotalWatts, rr[0].TotalWatts)
	}
}

func TestClusterPolicyShape(t *testing.T) {
	rs := runFleet(t, "cluster-policy", shortOptions(2))
	want := []string{"round_robin", "least_loaded", "power_aware"}
	if len(rs) != 1 || len(rs[0].Points) != len(want) {
		t.Fatalf("want one sweep of %d policies", len(want))
	}
	for i, p := range rs[0].Points {
		if p.AxisLabel != want[i] {
			t.Errorf("point %d policy %q, want %q", i, p.AxisLabel, want[i])
		}
		if len(p.Servers) != 4 {
			t.Errorf("point %d: %d per-server stats, want 4", i, len(p.Servers))
		}
	}
}

func TestRackPackingShape(t *testing.T) {
	rs := runFleet(t, "rack-packing", shortOptions(2))
	if len(rs) != 2 || rs[0].Scenario.Cluster.Policy != "rack_affinity" || rs[1].Scenario.Cluster.Policy != "power_aware" {
		t.Fatalf("want a rack_affinity and a power_aware sweep, got %d scenarios", len(rs))
	}
	for _, r := range rs {
		for _, p := range r.Points {
			racks := int(p.Axis)
			if len(p.Servers) != 8 {
				t.Errorf("%s racks=%d: %d per-server stats, want 8", r.Scenario.Name, racks, len(p.Servers))
			}
			if racks == 1 {
				if len(p.Racks) != 0 {
					t.Errorf("%s: flat shape grew %d rack zones", r.Scenario.Name, len(p.Racks))
				}
			} else if len(p.Racks) != racks {
				t.Errorf("%s: %d rack zones, want %d", r.Scenario.Name, len(p.Racks), racks)
			}
		}
	}
	// The duel's reason to exist: on a racked shape, rack_affinity must
	// hold tail latency below the flat packer, which queues bursts
	// rack-deep on the local rack.
	aff, pa := rs[0].Points[0], rs[1].Points[0]
	if aff.Axis != 2 || pa.Axis != 2 {
		t.Fatalf("first point is not the 2x4 shape: %g %g", aff.Axis, pa.Axis)
	}
	if aff.P99Latency >= pa.P99Latency {
		t.Errorf("rack_affinity p99 %.1fus not below power_aware's %.1fus",
			aff.P99Latency*1e6, pa.P99Latency*1e6)
	}
}

// drainedPC1A averages PC1A residency over the members the controller
// actually drained; ok is false when none was.
func drainedPC1A(p scenario.Point) (mean float64, ok bool) {
	n := 0
	for _, ss := range p.Servers {
		if ss.Drains == 0 || ss.PC1AResidency == nil {
			continue
		}
		mean += *ss.PC1AResidency
		n++
	}
	if n == 0 {
		return 0, false
	}
	return mean / float64(n), true
}

// TestDrainHysteresisShape pins the experiment's physics: the hold-0
// points are the static baseline, every hold > 0 point drains members
// above the packing anchor, and at least one swept hold shows higher
// PC1A on the drained members at equal-or-better p99 than the static
// power_aware baseline's frontier server.
func TestDrainHysteresisShape(t *testing.T) {
	rs := runFleet(t, "drain-hysteresis", experiments.QuickOptions())
	if len(rs) != 2 || rs[0].Scenario.Cluster.Policy != "power_aware" {
		t.Fatalf("want a power_aware and a rack_power_aware sweep, got %d scenarios", len(rs))
	}
	for _, r := range rs {
		for _, p := range r.Points {
			var drains uint64
			for _, ss := range p.Servers {
				drains += ss.Drains
			}
			if p.Axis == 0 {
				if drains != 0 {
					t.Errorf("%s hold 0 reports %d drains; baseline must be controller-free", r.Scenario.Name, drains)
				}
				continue
			}
			if drains == 0 {
				t.Errorf("%s hold %g drained nothing", r.Scenario.Name, p.Axis)
			}
			if p.Servers[0].Drains != 0 {
				t.Errorf("%s hold %g drained server 0", r.Scenario.Name, p.Axis)
			}
		}
	}
	// The static frontier: the highest-indexed server the baseline
	// routed to, whose idle periods the flapping keeps short.
	base := rs[0].Points[0]
	frontier := -1
	for _, ss := range base.Servers {
		if ss.Routed > 0 {
			frontier = ss.Index
		}
	}
	if frontier < 1 || base.Servers[frontier].PC1AResidency == nil {
		t.Fatalf("degenerate baseline: frontier server %d", frontier)
	}
	won := false
	for _, r := range rs {
		for _, p := range r.Points[1:] {
			mean, ok := drainedPC1A(p)
			if ok && p.P99Latency <= base.P99Latency && mean > *base.Servers[frontier].PC1AResidency {
				won = true
			}
		}
	}
	if !won {
		t.Error("no swept hold achieved higher drained-member PC1A at equal-or-better p99 than the static baseline")
	}
}

// TestFaultResilienceShape pins the experiment's physics: the MTBF-0
// points never crash, every injected point crashes, retries and
// recovers, and OK + Failed + Shed = Generated holds on every point.
func TestFaultResilienceShape(t *testing.T) {
	rs := runFleet(t, "fault-resilience", experiments.QuickOptions())
	if len(rs) != 3 {
		t.Fatalf("want one sweep per policy, got %d scenarios", len(rs))
	}
	for _, r := range rs {
		for _, p := range r.Points {
			tag := r.Scenario.Name
			if got := p.OK + p.Failed + p.Shed; got != p.Generated {
				t.Errorf("%s mtbf=%g: OK %d + Failed %d + Shed %d = %d, want Generated %d",
					tag, p.Axis, p.OK, p.Failed, p.Shed, got, p.Generated)
			}
			if p.GoodputQPS <= 0 {
				t.Errorf("%s mtbf=%g: no goodput", tag, p.Axis)
			}
			if p.Axis == 0 {
				if p.Crashes != 0 {
					t.Errorf("%s baseline crashed %d times", tag, p.Crashes)
				}
				continue
			}
			if p.Crashes == 0 {
				t.Errorf("%s mtbf=%g never crashed", tag, p.Axis)
			}
			if p.Retried == 0 {
				t.Errorf("%s mtbf=%g: crashes with a retry budget produced no retries", tag, p.Axis)
			}
			if p.RecoveryP99 <= 0 {
				t.Errorf("%s mtbf=%g: no recovery percentile despite crashes", tag, p.Axis)
			}
		}
	}
}

// serialParallelIdentical runs each experiment at -parallel 1 and 4:
// the reports and the full-precision JSON must match byte for byte.
// This is what catches shared mutable workload state (an MMPP2 arrival
// process reused across concurrently-running points).
func serialParallelIdentical(t *testing.T, opt experiments.Options, names ...string) {
	t.Helper()
	for _, name := range names {
		e, _ := experiments.Lookup(name)
		var reports, sums [2]string
		for i, par := range []int{1, 4} {
			o := opt
			o.Parallelism = par
			res, err := e.Run(o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			reports[i], sums[i] = res.Report(), string(data)
		}
		if reports[0] != reports[1] {
			t.Errorf("%s report depends on parallelism:\nserial:\n%s\nparallel:\n%s", name, reports[0], reports[1])
		}
		if sums[0] != sums[1] {
			t.Errorf("%s JSON depends on parallelism", name)
		}
	}
}

func TestClusterExperimentsSerialParallelBitIdentical(t *testing.T) {
	serialParallelIdentical(t, shortOptions(2), "cluster-scaling", "cluster-policy")
}

func TestRackPackingSerialParallelBitIdentical(t *testing.T) {
	serialParallelIdentical(t, shortOptions(2), "rack-packing")
}

func TestDrainHysteresisSerialParallelIdentical(t *testing.T) {
	serialParallelIdentical(t, shortOptions(5), "drain-hysteresis")
}

func TestFaultResilienceDeterministicAcrossParallelism(t *testing.T) {
	serialParallelIdentical(t, experiments.QuickOptions(), "fault-resilience")
}

// failAt fails write number n (counting from 0) and lets every other
// write through, so an error swallowed anywhere shows as a nil return
// rather than being masked by the writes after it failing too.
type failAt struct {
	n   int
	err error
}

func (w *failAt) Write(p []byte) (int, error) {
	w.n--
	if w.n == -1 {
		return 0, w.err
	}
	return len(p), nil
}

type writeCounter struct{ writes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}

// csvPropagatesWriterErrors fails each write of each experiment's CSV
// in turn — every scenario's tables and the blank lines between them:
// each failure must propagate, not truncate silently.
func csvPropagatesWriterErrors(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		e, _ := experiments.Lookup(name)
		res, err := e.Run(shortOptions(10))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cw := &writeCounter{}
		if err := res.(experiments.CSVWriter).WriteCSV(cw); err != nil {
			t.Fatal(err)
		}
		if cw.writes < 3 {
			t.Fatalf("%s: expected at least 3 writes, got %d", name, cw.writes)
		}
		sentinel := errors.New("disk full")
		for n := 0; n < cw.writes; n++ {
			if err := res.(experiments.CSVWriter).WriteCSV(&failAt{n: n, err: sentinel}); !errors.Is(err, sentinel) {
				t.Errorf("%s: failure of write %d was swallowed: got %v", name, n, err)
			}
		}
	}
}

func TestClusterCSVPropagatesWriterErrors(t *testing.T) {
	csvPropagatesWriterErrors(t, "cluster-scaling", "cluster-policy")
}

func TestRackPackingCSVPropagatesWriterErrors(t *testing.T) {
	csvPropagatesWriterErrors(t, "rack-packing")
}

func TestDrainHysteresisCSVPropagatesWriterErrors(t *testing.T) {
	csvPropagatesWriterErrors(t, "drain-hysteresis")
}

func TestFaultResilienceCSV(t *testing.T) {
	csvPropagatesWriterErrors(t, "fault-resilience")
}
