package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"agilepkgc/internal/experiments"
	"agilepkgc/internal/scenario"
)

// setupBatch is how many times set-up is timed before each
// repetition. Spreading the loads over the whole run, instead of timing
// them all at start-up, lets setup_s see the same machine states the
// repetitions do; it is the median of all of them.
const setupBatch = 20

// minReps is the fewest timed repetitions a run makes, however short
// --seconds is.
const minReps = 3

// timeSetup loads the scenario file setupBatch times — decode, validate
// and trace preflight, everything before the first simulated event —
// appending each load time in seconds to times, and returns the loaded
// scenarios.
func timeSetup(file string, times *[]float64) ([]scenario.Scenario, error) {
	var scs []scenario.Scenario
	for range setupBatch {
		t0 := time.Now()
		loaded, err := scenario.LoadFile(file)
		*times = append(*times, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		scs = loaded
	}
	return scs, nil
}

// repStat is the host-side cost of one repetition: every scenario of
// the workload run once through scenario.Run.
type repStat struct {
	host    float64 // seconds
	served  uint64  // simulated requests completed
	mallocs uint64
	gcs     uint32
}

// runRep runs every scenario once, as `apcsim scenario` does, and
// measures the host time and heap traffic it took.
func runRep(scs []scenario.Scenario, opt experiments.Options) ([]*scenario.Result, repStat, error) {
	results := make([]*scenario.Result, len(scs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i, sc := range scs {
		r, err := sc.Run(opt)
		if err != nil {
			return nil, repStat{}, err
		}
		results[i] = r
	}
	host := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	st := repStat{
		host:    host,
		mallocs: m1.Mallocs - m0.Mallocs,
		gcs:     m1.NumGC - m0.NumGC,
	}
	for _, r := range results {
		for _, p := range r.Points {
			st.served += p.Served
		}
	}
	return results, st, nil
}

// repeated is the outcome of the timed repetitions.
type repeated struct {
	stats []repStat
	// points and diverged count operating points simulated and those
	// whose result differed from the reference repetition's.
	points, diverged int
}

// repeat runs timed repetitions until seconds of host time have passed
// (and at least minReps), timing a set-up batch before each and
// comparing each repetition's results with the reference: the
// simulator is deterministic, so every repetition must reproduce them
// exactly.
func repeat(pr *prepared, seconds float64) (repeated, error) {
	var out repeated
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(out.stats) < minReps || time.Now().Before(deadline) {
		if _, err := timeSetup(pr.file, &pr.setup); err != nil {
			return out, err
		}
		res, st, err := runRep(pr.scs, pr.opt)
		if err != nil {
			return out, err
		}
		out.stats = append(out.stats, st)
		for i, r := range res {
			for pi := range r.Points {
				out.points++
				if !reflect.DeepEqual(r.Points[pi], pr.ref[i].Points[pi]) {
					out.diverged++
				}
			}
		}
	}
	return out, nil
}

// hostFigures reduces the repetitions to the host-side end-to-end
// metrics.
func hostFigures(rs []repStat) (reqPerS, allocsPerReq float64) {
	rates := make([]float64, len(rs))
	allocs := make([]float64, len(rs))
	for i, s := range rs {
		rates[i] = float64(s.served) / s.host
		allocs[i] = float64(s.mallocs) / float64(s.served)
	}
	return median(rates), median(allocs)
}

// simFigures reduces one repetition's results to the simulated
// end-to-end metrics: mean watts and worst latencies over the CPC1A
// points, and the fraction of generated requests that succeeded.
func simFigures(results []*scenario.Result) (watts, p50us, p99us, okFrac float64, err error) {
	var n int
	var ok, generated uint64
	for _, r := range results {
		for i := range r.Points {
			p := &r.Points[i]
			generated += p.Generated
			switch {
			case p.Client != nil:
				ok += p.Client.Served
			case r.Scenario.Cluster != nil && faultsOn(r.Scenario.Cluster.Faults):
				ok += p.OK
			default:
				ok += p.Served
			}
			if r.Scenario.Config != "CPC1A" {
				continue
			}
			n++
			watts += p.TotalWatts
			p50us = math.Max(p50us, p.P50Latency*1e6)
			p99us = math.Max(p99us, p.P99Latency*1e6)
		}
	}
	if n == 0 || generated == 0 {
		return 0, 0, 0, 0, fmt.Errorf("no CPC1A points with generated requests")
	}
	return watts / float64(n), p50us, p99us, float64(ok) / float64(generated), nil
}

// peakRSSMB is the process's peak resident set so far (VmHWM), in
// MiB. It is read from /proc rather than getrusage, whose maximum
// survives execve and would include the shell that launched the
// benchmark.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
