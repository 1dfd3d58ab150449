// Package scenario is the declarative layer over the simulator: a
// Scenario names a SoC configuration, a workload, a set of server-config
// overrides, an optional cluster block and an optional sweep axis, and
// Run wires them together the same way the built-in experiments do.
// Scenarios load from JSON (with unknown fields rejected) or are built
// programmatically, so a new operating point — a different QPS axis,
// tick rate, batching epoch, network latency or fleet shape — is data,
// not a new Go file.
//
// A minimal file:
//
//	{
//	  "name": "memcached-tickrate",
//	  "config": "CPC1A",
//	  "workload": {"service": "memcached", "qps": 20000},
//	  "server": {"tick_kernel_us": 2},
//	  "sweep": {"axis": "tick_hz", "values": [0, 100, 250, 1000]}
//	}
//
// Adding a cluster block turns the scenario into a fleet experiment: N
// servers behind a load balancer on one shared engine (see package
// cluster), with the workload rates read as fleet-aggregate values, and
// optionally racked (racks, tor_latency_us) for rack-granular routing:
//
//	{
//	  "name": "pack-vs-spread",
//	  "config": "CPC1A",
//	  "workload": {"service": "memcached", "qps": 80000},
//	  "cluster": {"servers": 4, "racks": 2, "tor_latency_us": 5,
//	              "p99_target_us": 300},
//	  "sweep": {"axis": "policy",
//	            "policies": ["round_robin", "rack_affinity", "power_aware"]}
//	}
//
// The full field reference for the JSON schema is in README.md
// ("Scenario schema reference").
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"agilepkgc/internal/cluster"
	"agilepkgc/internal/experiments"
	"agilepkgc/internal/server"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
	"agilepkgc/internal/workload/replay"
)

// Scenario is one declarative experiment specification.
type Scenario struct {
	// Name identifies the scenario in reports and output filenames.
	Name string `json:"name"`
	// Description is an optional one-line summary.
	Description string `json:"description,omitempty"`
	// Config is the SoC configuration kind: "Cshallow", "Cdeep" or
	// "CPC1A".
	Config string `json:"config"`
	// DurationMS, when non-zero, overrides the runner's measurement
	// window (milliseconds of virtual time per point).
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Seed, when non-zero, overrides the runner's random seed.
	Seed uint64 `json:"seed,omitempty"`
	// Workload selects the request stream.
	Workload Workload `json:"workload"`
	// Server overrides individual server.Config knobs; unset fields keep
	// the evaluation defaults. With a cluster block these are the base
	// configuration of every server, refined per server by
	// Cluster.ServerOverrides.
	Server Overrides `json:"server,omitempty"`
	// Cluster, when present, runs the scenario as a fleet behind a load
	// balancer instead of a single machine. Workload rates (qps, util,
	// load) are then fleet-aggregate values.
	Cluster *Cluster `json:"cluster,omitempty"`
	// Tiers, when present, runs the scenario as a service graph of
	// fleets on one shared engine (see cluster.Graph): tiers[0] is the
	// client-facing tier driven by the scenario workload, and every
	// later tier is a backend driven by upstream misses via Edges.
	// Mutually exclusive with Cluster — a one-tier graph IS the cluster
	// block, byte for byte (TestTiersSingleTierParity).
	Tiers []Tier `json:"tiers,omitempty"`
	// Edges wires the tiers: each edge performs a cache lookup when a
	// request resolves in its from-tier and, on a miss, issues fanout
	// requests into its to-tier. Requires Tiers.
	Edges []Edge `json:"edges,omitempty"`
	// Sweep, when present, evaluates the scenario once per axis value
	// instead of once.
	Sweep *Sweep `json:"sweep,omitempty"`
}

// Tier is one tier of a service graph: a name, the backend service
// family feeding its miss stream (non-root tiers only — the root
// tier's stream is the scenario workload), and a full fleet shape,
// inlined from Cluster.
type Tier struct {
	// Name labels the tier in reports and is what Edges reference.
	Name string `json:"name"`
	// Service is the tier's workload family — "memcached", "mysql" or
	// "kafka" — supplying the service-time distribution, connection
	// count and memory accesses of the requests upstream misses issue
	// into it. Required on every tier but the first; forbidden on the
	// first, whose stream is the scenario workload.
	Service string `json:"service,omitempty"`
	// The fleet shape, inlined: servers, policy, p99_target_us, racks,
	// tor_latency_us, drain_hold_us, feedback_epoch_us,
	// server_overrides, faults — exactly the cluster block's fields.
	Cluster
}

// Edge is one service-graph edge in scenario units: tier names instead
// of indices, TTL in microseconds.
type Edge struct {
	// From and To name the tiers; a request resolving in From looks up
	// a cache entry and, on a miss, issues Fanout requests into To.
	From string `json:"from"`
	To   string `json:"to"`
	// HitRatio is the probability a lookup that passes the TTL check
	// hits, in [0, 1].
	HitRatio float64 `json:"hit_ratio"`
	// TTLUS is the per-connection cache-entry lifetime (µs); 0 means no
	// TTL model (pure Bernoulli misses).
	TTLUS float64 `json:"ttl_us,omitempty"`
	// Fanout is how many backend requests one miss issues; 0 means 1.
	Fanout int `json:"fanout,omitempty"`
}

// Cluster declares the fleet shape: how many servers sit behind the load
// balancer, how they are racked, and how the balancer routes. See
// package cluster for the policy and topology semantics.
type Cluster struct {
	// Servers is the fleet size. It may be 0 only when the sweep axis is
	// "servers" (the sweep then drives it).
	Servers int `json:"servers"`
	// Policy is "round_robin", "least_loaded", "power_aware",
	// "rack_affinity" or "rack_power_aware". It may be empty only when
	// the sweep axis is "policy".
	Policy string `json:"policy"`
	// P99TargetUS is the latency budget (µs) the power_aware and
	// rack_power_aware policies pack against; required whenever either
	// is the policy or among the swept policies.
	P99TargetUS float64 `json:"p99_target_us,omitempty"`
	// Racks splits the fleet into racks of Servers/Racks machines each
	// (Servers must divide evenly); 0 or 1 means a flat fleet. Rack 0
	// hosts the balancer.
	Racks int `json:"racks,omitempty"`
	// TorLatencyUS is the one-way top-of-rack hop (µs) paid per
	// direction by requests routed into a rack other than rack 0.
	// Setting it requires racks > 1 (or the racks sweep axis).
	TorLatencyUS float64 `json:"tor_latency_us,omitempty"`
	// DrainHoldUS is the hysteretic drain hold (µs): once the balancer
	// drains a server (rack-first under rack_power_aware), it routes
	// nothing to it until it is empty and this much virtual time
	// passes. 0 keeps the static PR 4 routing byte for byte. Setting it
	// (or sweeping it) requires a power_aware/rack_power_aware policy —
	// on any other policy it would be silently inert.
	DrainHoldUS float64 `json:"drain_hold_us,omitempty"`
	// FeedbackEpochUS is the SLA feedback period (µs): every epoch each
	// server's packing cap is recomputed from its measured window p99
	// against p99_target_us (multiplicative decrease / additive
	// increase). 0 keeps the statically derived cap. Same policy
	// requirement as drain_hold_us.
	FeedbackEpochUS float64 `json:"feedback_epoch_us,omitempty"`
	// ServerOverrides refines individual servers on top of the
	// scenario-level Server overrides, keyed by decimal server index
	// ("0" … "N-1") — a heterogeneous fleet (one slow machine, one
	// ticky kernel) stays one JSON file.
	ServerOverrides map[string]Overrides `json:"server_overrides,omitempty"`
	// Faults, when present and non-zero, enables fault injection and
	// request robustness (see cluster.FaultConfig). An absent block —
	// or an all-zero one — keeps the fault-free event sequence byte
	// for byte.
	Faults *Faults `json:"faults,omitempty"`
}

// Faults mirrors cluster.FaultConfig in scenario units (µs). All
// fields are optional; a zero field disables the mechanism it
// parameterizes. An all-zero block is equivalent to no block at all
// (TestFaultsZeroParity locks the output bytes).
type Faults struct {
	// MTBFUS is each server's mean time between crashes (µs,
	// exponential). Non-zero requires mttr_us > 0.
	MTBFUS float64 `json:"mtbf_us,omitempty"`
	// MTTRUS is the mean repair time after a crash (µs, exponential).
	MTTRUS float64 `json:"mttr_us,omitempty"`
	// BrownoutMTBFUS is each server's mean time between brownouts (µs,
	// exponential). Non-zero requires brownout_duration_us > 0 and
	// brownout_factor > 1.
	BrownoutMTBFUS float64 `json:"brownout_mtbf_us,omitempty"`
	// BrownoutDurationUS is how long each brownout lasts (µs).
	BrownoutDurationUS float64 `json:"brownout_duration_us,omitempty"`
	// BrownoutFactor scales the service time of requests assigned to a
	// browned-out server (2 = half speed).
	BrownoutFactor float64 `json:"brownout_factor,omitempty"`
	// TorPartitionMTBFUS is each non-local rack's mean time between ToR
	// partitions (µs, exponential). Non-zero requires
	// tor_partition_duration_us > 0 and racks > 1.
	TorPartitionMTBFUS float64 `json:"tor_partition_mtbf_us,omitempty"`
	// TorPartitionDurationUS is how long each partition lasts (µs).
	TorPartitionDurationUS float64 `json:"tor_partition_duration_us,omitempty"`
	// RequestTimeoutUS bounds how long the balancer waits for a
	// response (µs); the k-th attempt waits 2^(k−1) times this.
	RequestTimeoutUS float64 `json:"request_timeout_us,omitempty"`
	// MaxRetries bounds how many times a lost or timed-out request is
	// resubmitted before it counts as failed.
	MaxRetries int `json:"max_retries,omitempty"`
	// HedgeDelayUS arms one hedged copy per request after this delay
	// (µs); the first response wins.
	HedgeDelayUS float64 `json:"hedge_delay_us,omitempty"`
}

// us converts scenario microseconds to engine time.
func us(v float64) sim.Duration { return sim.Duration(v * float64(sim.Microsecond)) }

// config converts the block to engine units. A nil block is the zero
// (disabled) configuration.
func (f *Faults) config() cluster.FaultConfig {
	if f == nil {
		return cluster.FaultConfig{}
	}
	return cluster.FaultConfig{
		MTBF:                 us(f.MTBFUS),
		MTTR:                 us(f.MTTRUS),
		BrownoutMTBF:         us(f.BrownoutMTBFUS),
		BrownoutDuration:     us(f.BrownoutDurationUS),
		BrownoutFactor:       f.BrownoutFactor,
		TorPartitionMTBF:     us(f.TorPartitionMTBFUS),
		TorPartitionDuration: us(f.TorPartitionDurationUS),
		RequestTimeout:       us(f.RequestTimeoutUS),
		MaxRetries:           f.MaxRetries,
		HedgeDelay:           us(f.HedgeDelayUS),
	}
}

// Workload declares the request stream. Exactly one rate field applies
// per service; see the axis list in Sweep for which fields a sweep can
// drive instead.
type Workload struct {
	// Service is one of "memcached", "memcached-bursty", "mysql",
	// "kafka", "sysbench" (closed-loop) or "trace" (recorded arrivals,
	// configured by the Trace block).
	Service string `json:"service"`
	// QPS is the open-loop arrival rate (memcached family).
	QPS float64 `json:"qps,omitempty"`
	// Util is the target processor utilization, an alternative to QPS
	// for the memcached service.
	Util float64 `json:"util,omitempty"`
	// Load is the processor-load fraction (mysql and kafka).
	Load float64 `json:"load,omitempty"`
	// Burstiness is the MMPP burstiness parameter (memcached-bursty).
	Burstiness float64 `json:"burstiness,omitempty"`
	// Threads is the closed-loop client-thread count (sysbench).
	Threads int `json:"threads,omitempty"`
	// ThinkMS is the closed-loop mean think time in milliseconds
	// (sysbench).
	ThinkMS float64 `json:"think_ms,omitempty"`
	// Trace configures the "trace" service: a recorded arrival stream
	// replayed from a binary trace file (see internal/workload/replay
	// and cmd/tracegen).
	Trace *Trace `json:"trace,omitempty"`
}

// Trace points the "trace" service at a recorded arrival stream. The
// workload identity (name, rates, connections) comes from the trace
// header, so none of the synthetic rate fields apply.
type Trace struct {
	// Path is the trace file. Relative paths resolve against the
	// directory of the JSON file that named them (LoadFile), so example
	// scenarios can sit next to their traces.
	Path string `json:"path"`
	// TimeScale multiplies arrival timestamps: 0.5 replays at double
	// speed, 2 at half speed. 0 or 1 replays in recorded time, with
	// integer timestamps preserved bit for bit.
	TimeScale float64 `json:"time_scale,omitempty"`
	// Loop restarts the trace when it runs out, shifting each iteration
	// by the trace's last timestamp; without it replay simply stops
	// when the records do (the measurement window truncates the trace).
	Loop bool `json:"loop,omitempty"`
	// Truncate states the default end-of-trace behavior explicitly.
	// Setting it together with loop is a contradiction and rejected.
	Truncate bool `json:"truncate,omitempty"`
}

// Overrides adjusts server.Config knobs. Pointer fields distinguish
// "unset" (keep the evaluation default) from an explicit zero.
type Overrides struct {
	NetworkLatencyUS *float64 `json:"network_latency_us,omitempty"`
	NICTransferNS    *float64 `json:"nic_transfer_ns,omitempty"`
	KernelOverheadUS *float64 `json:"kernel_overhead_us,omitempty"`
	BatchEpochUS     *float64 `json:"batch_epoch_us,omitempty"`
	TimerTickHz      *float64 `json:"timer_tick_hz,omitempty"`
	TickKernelUS     *float64 `json:"tick_kernel_us,omitempty"`
}

// validate rejects physically meaningless knob settings before they
// reach the engine (negative durations panic the scheduler; negative
// latencies silently corrupt histograms).
func (o Overrides) validate() error {
	// Declared order, not a map walk: with several negative knobs the
	// reported one must be the same on every run (the determinism
	// pass rejects error text born from map iteration).
	for _, kv := range []struct {
		name string
		v    *float64
		unit sim.Duration // 0: not a duration
	}{
		{"network_latency_us", o.NetworkLatencyUS, sim.Microsecond},
		{"nic_transfer_ns", o.NICTransferNS, sim.Nanosecond},
		{"kernel_overhead_us", o.KernelOverheadUS, sim.Microsecond},
		{"batch_epoch_us", o.BatchEpochUS, sim.Microsecond},
		{"timer_tick_hz", o.TimerTickHz, 0},
		{"tick_kernel_us", o.TickKernelUS, sim.Microsecond},
	} {
		switch {
		case kv.v == nil:
		case *kv.v < 0:
			return fmt.Errorf("server.%s must not be negative (got %g)", kv.name, *kv.v)
		case kv.unit != 0 && !sim.Fits(*kv.v, kv.unit):
			return rangeErr("server."+kv.name, *kv.v)
		}
	}
	return nil
}

// rangeErr rejects setting key = v, whose nanoseconds overflow
// sim.Duration (!sim.Fits). Go leaves that float conversion
// implementation-dependent, so unchecked, a huge value would run as a
// negative or a saturated duration depending on the machine.
func rangeErr(key string, v float64) error {
	return fmt.Errorf("%s %g is out of range — its nanoseconds overflow the engine's 64-bit time", key, v)
}

func (o Overrides) apply(cfg *server.Config) {
	if o.NetworkLatencyUS != nil {
		cfg.NetworkLatency = us(*o.NetworkLatencyUS)
	}
	if o.NICTransferNS != nil {
		cfg.NICTransfer = sim.Duration(*o.NICTransferNS * float64(sim.Nanosecond))
	}
	if o.KernelOverheadUS != nil {
		cfg.KernelOverhead = us(*o.KernelOverheadUS)
	}
	if o.BatchEpochUS != nil {
		cfg.BatchEpoch = us(*o.BatchEpochUS)
	}
	if o.TimerTickHz != nil {
		cfg.TimerTickHz = *o.TimerTickHz
	}
	if o.TickKernelUS != nil {
		cfg.TickKernelTime = us(*o.TickKernelUS)
	}
}

// Sweep evaluates the scenario at each value of one axis.
type Sweep struct {
	// Axis names the swept parameter.
	Axis string `json:"axis"`
	// Values are the axis points, evaluated in order (numeric axes).
	Values []float64 `json:"values,omitempty"`
	// Policies are the axis points of the string-valued "policy" axis,
	// evaluated in order; exactly one of Values and Policies applies.
	Policies []string `json:"policies,omitempty"`
}

// Axis names a Sweep can drive.
const (
	AxisQPS            = "qps"
	AxisUtil           = "util"
	AxisLoad           = "load"
	AxisBurstiness     = "burstiness"
	AxisThreads        = "threads"
	AxisBatchEpochUS   = "batch_epoch_us"
	AxisTickHz         = "tick_hz"
	AxisNetworkLatency = "network_latency_us"
	AxisServers        = "servers"
	AxisPolicy         = "policy"
	AxisRacks          = "racks"
	AxisTorLatency     = "tor_latency_us"
	AxisDrainHold      = "drain_hold_us"
	AxisFeedbackEpoch  = "feedback_epoch_us"
	AxisMTBF           = "mtbf_us"
	AxisMTTR           = "mttr_us"
	AxisRequestTimeout = "request_timeout_us"
	AxisMaxRetries     = "max_retries"
	AxisHedgeDelay     = "hedge_delay_us"
	AxisHitRatio       = "hit_ratio"
	AxisFanout         = "fanout"
	AxisTTL            = "ttl_us"
)

// axisBlock names the part of a scenario a sweep axis writes.
type axisBlock uint8

const (
	workloadBlock axisBlock = iota // workload knobs; only axisSpec.services read them
	serverBlock                    // server.Config knobs, read by every service
	clusterBlock                   // the cluster block, which must exist
	faultsBlock                    // cluster.faults, which must exist with its cluster block
	edgesBlock                     // every service-graph edge; needs a tiers block with edges
)

// drivesCluster reports whether an axis of block b writes the cluster
// block (its faults sub-block included), and so needs one.
func (b axisBlock) drivesCluster() bool { return b == clusterBlock || b == faultsBlock }

// axisRule is the constraint every value of an axis meets on top of
// being non-negative.
type axisRule uint8

const (
	anyValue axisRule = iota
	wholeValue
	countValue // a whole number ≥ 1
	usValue    // microseconds whose nanoseconds fit sim.Duration
)

// axisSpec is one row of the sweep-axis table.
type axisSpec struct {
	block axisBlock
	// services lists the services that read a workload axis; sweeping
	// an axis a service ignores would silently produce N identical
	// points, so Validate rejects it. A trace's arrival stream is
	// recorded, so no workload axis lists "trace".
	services []string
	rule     axisRule
	// set returns s with the value applied, cloning any block it
	// writes so applied points never alias the original scenario's.
	set func(s Scenario, v float64) Scenario
}

// axes is the sweep-axis table, keyed by axis name.
var axes = map[string]axisSpec{
	AxisQPS:            {services: []string{"memcached", "memcached-bursty"}, set: func(s Scenario, v float64) Scenario { s.Workload.QPS, s.Workload.Util = v, 0; return s }},
	AxisUtil:           {services: []string{"memcached"}, set: func(s Scenario, v float64) Scenario { s.Workload.Util, s.Workload.QPS = v, 0; return s }},
	AxisLoad:           {services: []string{"mysql", "kafka"}, set: func(s Scenario, v float64) Scenario { s.Workload.Load = v; return s }},
	AxisBurstiness:     {services: []string{"memcached-bursty"}, set: func(s Scenario, v float64) Scenario { s.Workload.Burstiness = v; return s }},
	AxisThreads:        {services: []string{"sysbench"}, rule: wholeValue, set: func(s Scenario, v float64) Scenario { s.Workload.Threads = int(v); return s }},
	AxisBatchEpochUS:   {block: serverBlock, rule: usValue, set: func(s Scenario, v float64) Scenario { s.Server.BatchEpochUS = &v; return s }},
	AxisTickHz:         {block: serverBlock, set: func(s Scenario, v float64) Scenario { s.Server.TimerTickHz = &v; return s }},
	AxisNetworkLatency: {block: serverBlock, rule: usValue, set: func(s Scenario, v float64) Scenario { s.Server.NetworkLatencyUS = &v; return s }},
	AxisServers:        {block: clusterBlock, rule: countValue, set: atCluster(func(c *Cluster, v float64) { c.Servers = int(v) })},
	AxisRacks:          {block: clusterBlock, rule: countValue, set: atCluster(func(c *Cluster, v float64) { c.Racks = int(v) })},
	AxisTorLatency:     {block: clusterBlock, rule: usValue, set: atCluster(func(c *Cluster, v float64) { c.TorLatencyUS = v })},
	AxisDrainHold:      {block: clusterBlock, rule: usValue, set: atCluster(func(c *Cluster, v float64) { c.DrainHoldUS = v })},
	AxisFeedbackEpoch:  {block: clusterBlock, rule: usValue, set: atCluster(func(c *Cluster, v float64) { c.FeedbackEpochUS = v })},
	AxisMTBF:           {block: faultsBlock, rule: usValue, set: atFaults(func(f *Faults, v float64) { f.MTBFUS = v })},
	AxisMTTR:           {block: faultsBlock, rule: usValue, set: atFaults(func(f *Faults, v float64) { f.MTTRUS = v })},
	AxisRequestTimeout: {block: faultsBlock, rule: usValue, set: atFaults(func(f *Faults, v float64) { f.RequestTimeoutUS = v })},
	AxisMaxRetries:     {block: faultsBlock, rule: wholeValue, set: atFaults(func(f *Faults, v float64) { f.MaxRetries = int(v) })},
	AxisHedgeDelay:     {block: faultsBlock, rule: usValue, set: atFaults(func(f *Faults, v float64) { f.HedgeDelayUS = v })},
	AxisHitRatio:       {block: edgesBlock, set: atEdges(func(e *Edge, v float64) { e.HitRatio = v })},
	AxisFanout:         {block: edgesBlock, rule: countValue, set: atEdges(func(e *Edge, v float64) { e.Fanout = int(v) })},
	AxisTTL:            {block: edgesBlock, rule: usValue, set: atEdges(func(e *Edge, v float64) { e.TTLUS = v })},
	// The string-valued policy axis: v is an index into Sweep.Policies.
	AxisPolicy: {block: clusterBlock, set: func(s Scenario, v float64) Scenario {
		c := *s.Cluster
		c.Policy = s.Sweep.Policies[int(v)]
		s.Cluster = &c
		return s
	}},
}

// Axes returns the supported sweep axis names, sorted.
func Axes() []string { return slices.Sorted(maps.Keys(axes)) }

// at returns a copy of the scenario with one axis value applied; with
// no axis it is the scenario itself.
func (s Scenario) at(axis string, v float64) Scenario {
	if axis == "" {
		return s
	}
	return axes[axis].set(s, v)
}

// atCluster makes a setter that applies mut to a clone of the cluster
// block (Validate guarantees the block exists whenever a cluster axis
// is swept).
func atCluster(mut func(*Cluster, float64)) func(Scenario, float64) Scenario {
	return func(s Scenario, v float64) Scenario {
		c := *s.Cluster
		mut(&c, v)
		s.Cluster = &c
		return s
	}
}

// atFaults makes a setter that applies mut to clones of both the
// cluster block and its faults block (Validate guarantees both exist
// whenever a fault axis is swept).
func atFaults(mut func(*Faults, float64)) func(Scenario, float64) Scenario {
	return atCluster(func(c *Cluster, v float64) {
		fc := *c.Faults
		mut(&fc, v)
		c.Faults = &fc
	})
}

// atEdges makes a setter that applies mut to every edge of a clone of
// the edge slice (Validate guarantees edges exist whenever an edge axis
// is swept).
func atEdges(mut func(*Edge, float64)) func(Scenario, float64) Scenario {
	return func(s Scenario, v float64) Scenario {
		es := make([]Edge, len(s.Edges))
		copy(es, s.Edges)
		for i := range es {
			mut(&es[i], v)
		}
		s.Edges = es
		return s
	}
}

// Validate checks the scenario against every rule a run depends on,
// short of the workload rates and the points' servers, and each rule
// has one owner. The scenario owns what the cluster layer cannot see:
// names, services and the trace block, the sweep list and the blocks
// its axis needs, tier names and edge endpoints, server_overrides keys,
// the policy-axis conflict and the inert knobs. The cluster layer owns
// every fleet and graph rule: Validate converts each applied point as
// the run does (graphConfig), checks it with cluster.GraphConfig.Check
// and reports a failure in JSON keys (clusterError). Load and Run also
// check each point's servers (checkServers); Run alone checks the
// workload rates, when it builds the points.
func (s *Scenario) Validate() error { return s.validate(false) }

// validate runs Validate's rules and, with servers set, checkServers on
// every point.
func (s *Scenario) validate(servers bool) error {
	if err := s.validateFields(); err != nil {
		return err
	}
	return s.validatePoints(servers)
}

// validateFields checks the scenario's own rules on the scenario as
// written.
func (s *Scenario) validateFields() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if _, err := soc.ParseConfigKind(s.Config); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	switch s.Workload.Service {
	case "memcached", "memcached-bursty", "mysql", "kafka", "sysbench", "trace":
	case "":
		return fmt.Errorf("scenario %q: missing workload.service", s.Name)
	default:
		return fmt.Errorf("scenario %q: unknown workload.service %q", s.Name, s.Workload.Service)
	}
	if err := s.validateTrace(); err != nil {
		return err
	}
	if err := s.validateSweep(); err != nil {
		return err
	}
	if s.DurationMS < 0 {
		return fmt.Errorf("scenario %q: negative duration_ms", s.Name)
	}
	if err := s.Server.validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.Workload.Service == "sysbench" && (s.Cluster != nil || len(s.Tiers) > 0) {
		return fmt.Errorf("scenario %q: a fleet needs an open-loop service — closed-loop sysbench clients bind to one machine and bypass the balancer", s.Name)
	}
	if c := s.Cluster; c != nil {
		if s.Sweep != nil && s.Sweep.Axis == AxisPolicy && c.Policy != "" {
			return fmt.Errorf("scenario %q: cluster.policy %q conflicts with the policy sweep — leave it empty", s.Name, c.Policy)
		}
		if err := s.validateBlock(c, "cluster", 0); err != nil {
			return err
		}
	}
	return s.validateTiers()
}

// validateSweep checks the sweep list and that the blocks its axis
// writes exist.
func (s *Scenario) validateSweep() error {
	if s.Sweep == nil {
		return nil
	}
	spec, ok := axes[s.Sweep.Axis]
	switch {
	case !ok:
		return fmt.Errorf("scenario %q: unknown sweep axis %q (want one of %v)", s.Name, s.Sweep.Axis, Axes())
	case spec.block.drivesCluster() && s.Cluster == nil:
		return fmt.Errorf("scenario %q: sweep axis %q needs a cluster block", s.Name, s.Sweep.Axis)
	case spec.block == faultsBlock && s.Cluster.Faults == nil:
		return fmt.Errorf("scenario %q: the %s axis needs a cluster.faults block", s.Name, s.Sweep.Axis)
	case spec.block == edgesBlock && len(s.Edges) == 0:
		return fmt.Errorf("scenario %q: sweep axis %q needs a tiers block with edges", s.Name, s.Sweep.Axis)
	case spec.block == workloadBlock && !slices.Contains(spec.services, s.Workload.Service):
		return fmt.Errorf("scenario %q: service %q ignores sweep axis %q — every point would be identical",
			s.Name, s.Workload.Service, s.Sweep.Axis)
	}
	if s.Sweep.Axis == AxisPolicy {
		if len(s.Sweep.Values) > 0 {
			return fmt.Errorf("scenario %q: the policy axis takes sweep.policies, not sweep.values", s.Name)
		}
		if len(s.Sweep.Policies) == 0 {
			return fmt.Errorf("scenario %q: sweep has no policies", s.Name)
		}
		return nil
	}
	if len(s.Sweep.Policies) > 0 {
		return fmt.Errorf("scenario %q: sweep.policies only applies to the %q axis", s.Name, AxisPolicy)
	}
	if len(s.Sweep.Values) == 0 {
		return fmt.Errorf("scenario %q: sweep has no values", s.Name)
	}
	for _, v := range s.Sweep.Values {
		if v < 0 {
			return fmt.Errorf("scenario %q: negative %s value %g", s.Name, s.Sweep.Axis, v)
		}
		if (spec.rule == wholeValue || spec.rule == countValue) && v != float64(int(v)) {
			return fmt.Errorf("scenario %q: %s value %g is not an integer", s.Name, s.Sweep.Axis, v)
		}
		if spec.rule == countValue && v < 1 {
			return fmt.Errorf("scenario %q: %s value %g is below 1", s.Name, s.Sweep.Axis, v)
		}
		if spec.rule == usValue && !sim.Fits(v, sim.Microsecond) {
			return fmt.Errorf("scenario %q: %w", s.Name, rangeErr(s.Sweep.Axis+" value", v))
		}
	}
	return nil
}

// validateBlock checks one fleet block's own settings: every µs field
// in range, and its server_overrides — every key a server index and
// every entry's knobs valid. The cluster layer rejects negative fields,
// but it sees them only after conversion, when an out-of-range value
// has already wrapped. Whether an override index names one of the
// point's servers is checkServers' rule. The block is named as
// tierLabel(block, ti) names it.
func (s *Scenario) validateBlock(c *Cluster, block string, ti int) error {
	f := c.Faults
	if f == nil {
		f = &Faults{}
	}
	for _, kv := range []struct {
		key string
		v   float64
	}{
		{"p99_target_us", c.P99TargetUS}, {"tor_latency_us", c.TorLatencyUS},
		{"drain_hold_us", c.DrainHoldUS}, {"feedback_epoch_us", c.FeedbackEpochUS},
		{"faults.mtbf_us", f.MTBFUS}, {"faults.mttr_us", f.MTTRUS},
		{"faults.brownout_mtbf_us", f.BrownoutMTBFUS}, {"faults.brownout_duration_us", f.BrownoutDurationUS},
		{"faults.tor_partition_mtbf_us", f.TorPartitionMTBFUS}, {"faults.tor_partition_duration_us", f.TorPartitionDurationUS},
		{"faults.request_timeout_us", f.RequestTimeoutUS}, {"faults.hedge_delay_us", f.HedgeDelayUS},
	} {
		if !sim.Fits(kv.v, sim.Microsecond) {
			return fmt.Errorf("scenario %q: %w", s.Name, rangeErr(tierLabel(block, ti)+"."+kv.key, kv.v))
		}
	}
	if len(c.ServerOverrides) == 0 {
		return nil // without the key walk, which allocates
	}
	for _, key := range slices.Sorted(maps.Keys(c.ServerOverrides)) {
		// A key must be the index's own spelling: the run looks servers
		// up by strconv.Itoa, so "01" would never apply.
		if idx, err := strconv.Atoi(key); err != nil || idx < 0 || strconv.Itoa(idx) != key {
			return fmt.Errorf("scenario %q: %s.server_overrides key %q is not a server index", s.Name, tierLabel(block, ti), key)
		}
		if err := c.ServerOverrides[key].validate(); err != nil {
			return fmt.Errorf("scenario %q: server_overrides[%s]: %w", s.Name, key, err)
		}
	}
	return nil
}

// validateTiers checks the tiers and edges blocks' own rules: names,
// services and edge endpoints. Failures inside one tier or edge are
// wrapped in a blockError so load can point at the element's line and
// column in the source file.
func (s *Scenario) validateTiers() error {
	if len(s.Tiers) == 0 {
		if len(s.Edges) > 0 {
			return fmt.Errorf("scenario %q: edges need a tiers block", s.Name)
		}
		return nil
	}
	if s.Cluster != nil {
		return fmt.Errorf("scenario %q: tiers and cluster are mutually exclusive — a one-tier graph is the cluster block", s.Name)
	}
	for i := range s.Tiers {
		t := &s.Tiers[i]
		if t.Name == "" {
			return blockErr("tiers", i, fmt.Errorf("scenario %q: tiers[%d] has no name", s.Name, i))
		}
		if j := s.tierIndex(t.Name); j < i {
			return blockErr("tiers", i, fmt.Errorf("scenario %q: tiers[%d] duplicates tier name %q (tiers[%d])", s.Name, i, t.Name, j))
		}
		if i == 0 && t.Service != "" {
			return blockErr("tiers", 0, fmt.Errorf("scenario %q: tiers[0] (%q) is driven by the scenario workload — drop its service field", s.Name, t.Name))
		}
		if _, ok := tierSpecs[t.Service]; i > 0 && !ok {
			if t.Service == "" {
				return blockErr("tiers", i, fmt.Errorf("scenario %q: tiers[%d] (%q) needs a service — the miss stream must know what requests to issue", s.Name, i, t.Name))
			}
			return blockErr("tiers", i, fmt.Errorf("scenario %q: tiers[%d] (%q) has unknown service %q (want one of %v)", s.Name, i, t.Name, t.Service, slices.Sorted(maps.Keys(tierSpecs))))
		}
		if err := s.validateBlock(&t.Cluster, "tiers", i); err != nil {
			return blockErr("tiers", i, err)
		}
	}
	for i, e := range s.Edges {
		if s.tierIndex(e.From) < 0 {
			return blockErr("edges", i, fmt.Errorf("scenario %q: edges[%d].from names unknown tier %q", s.Name, i, e.From))
		}
		if s.tierIndex(e.To) < 0 {
			return blockErr("edges", i, fmt.Errorf("scenario %q: edges[%d].to names unknown tier %q", s.Name, i, e.To))
		}
		if !sim.Fits(e.TTLUS, sim.Microsecond) {
			return blockErr("edges", i, fmt.Errorf("scenario %q: %w", s.Name, rangeErr(fmt.Sprintf("edges[%d].ttl_us", i), e.TTLUS)))
		}
	}
	return nil
}

// tierIndex returns the index of the tier named name, or -1.
func (s *Scenario) tierIndex(name string) int {
	return slices.IndexFunc(s.Tiers, func(t Tier) bool { return t.Name == name })
}

// validatePoints checks every applied point: the cluster layer's rules
// on the point's graph, checkServers when servers is set, and, over all
// points together, the inert knobs. A workload axis leaves the tier
// form of every point alone, so such a sweep, like an unswept scenario,
// is checked once, as written.
func (s *Scenario) validatePoints(servers bool) error {
	axis, values := "", []float64{0}
	if s.Sweep != nil && axes[s.Sweep.Axis].block != workloadBlock {
		axis, values = s.Sweep.Axis, s.values()
	}
	var set, acts []uint8 // per tier: inert knobs set on some point, and those that acted
	block := ""
	for _, v := range values {
		var g Scenario
		g, block = s.at(axis, v).asGraph()
		gcfg, err := g.graphConfig()
		if err == nil {
			err = g.clusterError(gcfg.Check(), block)
		}
		if err == nil && servers {
			err = g.checkServers(gcfg, block)
		}
		if err != nil {
			return s.pointErr(axis, v, err)
		}
		if set == nil {
			set, acts = make([]uint8, len(gcfg.Tiers)), make([]uint8, len(gcfg.Tiers))
		}
		for ti := range gcfg.Tiers {
			st, ac := inertBits(&gcfg.Tiers[ti].Cluster)
			set[ti], acts[ti] = set[ti]|st, acts[ti]|ac
		}
	}
	return s.inertError(set, acts, block)
}

// pointErr names the scenario and, on a swept point, the axis value in
// one point's error.
func (s *Scenario) pointErr(axis string, v float64, err error) error {
	switch axis {
	case "":
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	case AxisPolicy:
		return fmt.Errorf("scenario %q [%s=%s]: %w", s.Name, axis, s.Sweep.Policies[int(v)], err)
	}
	return fmt.Errorf("scenario %q [%s=%g]: %w", s.Name, axis, v, err)
}

// inBlock tags a failure of tier ti with its element of the tiers block,
// so load can locate it; other blocks have no element to point at.
func inBlock(block string, ti int, err error) error {
	if block == "tiers" {
		return blockErr("tiers", ti, err)
	}
	return err
}

// tierLabel names tier ti of a point's graph as the JSON block that
// wrote it (block is asGraph's).
func tierLabel(block string, ti int) string {
	if block == "tiers" {
		return fmt.Sprintf("tiers[%d]", ti)
	}
	return block
}

// clusterKeys maps each cluster.Field a scenario sets to its JSON key
// below the fleet block or edge.
var clusterKeys = map[cluster.Field]string{
	"P99Target": "p99_target_us", "Topology.Racks": "racks", "TorLatency": "tor_latency_us",
	"DrainHold": "drain_hold_us", "FeedbackEpoch": "feedback_epoch_us",
	"Faults.MTBF": "faults.mtbf_us", "Faults.MTTR": "faults.mttr_us",
	"Faults.BrownoutMTBF": "faults.brownout_mtbf_us", "Faults.BrownoutDuration": "faults.brownout_duration_us",
	"Faults.BrownoutFactor":   "faults.brownout_factor",
	"Faults.TorPartitionMTBF": "faults.tor_partition_mtbf_us", "Faults.TorPartitionDuration": "faults.tor_partition_duration_us",
	"Faults.RequestTimeout": "faults.request_timeout_us", "Faults.MaxRetries": "faults.max_retries",
	"Faults.HedgeDelay": "faults.hedge_delay_us",
	"HitRatio":          "hit_ratio", "TTL": "ttl_us", "Fanout": "fanout",
}

func jsonKey(f cluster.Field) string { return clusterKeys[f] }

// clusterError reports a cluster rule failure on a point's graph (s, in
// asGraph's form) in the scenario's terms: the tier or edge as the JSON
// element that wrote it, each field as its JSON key. The topology comes
// from two keys, so its failure names the one at fault.
func (s *Scenario) clusterError(err error, block string) error {
	ce, ok := err.(*cluster.ConfigError)
	if !ok {
		return err
	}
	key, i, label := "edges", ce.Edge, fmt.Sprintf("edges[%d]", ce.Edge)
	if i < 0 {
		key, i, label = "tiers", ce.Tier, tierLabel(block, ce.Tier)
	}
	subject := label
	if ce.Field != "" {
		subject += "." + jsonKey(ce.Field)
	}
	msg := ce.Render(subject, jsonKey)
	if ce.Field == "Topology" {
		c := &s.Tiers[i].Cluster
		msg = fmt.Sprintf("%s.racks %d does not divide %d servers into equal racks", label, c.Racks, c.Servers)
		if c.Servers < 1 {
			msg = fmt.Sprintf("%s.servers must be at least 1", label)
		}
	}
	if key == "edges" || block == "tiers" {
		return blockErr(key, i, errors.New(msg))
	}
	return errors.New(msg)
}

// checkServers checks the rules on a point's servers, tier by tier:
// the topology fits the fleet, each server_overrides key names one of
// its servers, and each server's tick knobs, merged as the run merges
// them (memberConfigs), arm no tick without a tick cost.
func (s *Scenario) checkServers(gcfg cluster.GraphConfig, block string) error {
	for ti := range s.Tiers {
		t := &s.Tiers[ti]
		if err := gcfg.Tiers[ti].Cluster.Topology.Fits(t.Servers); err != nil {
			if ce, ok := err.(*cluster.ConfigError); ok {
				ce.Tier = ti
			}
			return s.clusterError(err, block)
		}
		// The tick rule, on the first server in index order that breaks
		// it. Servers without an override all run the base configuration,
		// so the first of them stands for the rest.
		cand := []int{0}
		if len(t.ServerOverrides) > 0 {
			cand = cand[:0]
			for _, key := range slices.Sorted(maps.Keys(t.ServerOverrides)) {
				idx, _ := strconv.Atoi(key)
				if idx >= t.Servers {
					return inBlock(block, ti, fmt.Errorf("%s.server_overrides[%s]: fleet has only %d servers", tierLabel(block, ti), key, t.Servers))
				}
				cand = append(cand, idx)
			}
			for i := range t.Servers {
				if _, ok := t.ServerOverrides[strconv.Itoa(i)]; !ok {
					cand = append(cand, i)
					break
				}
			}
			slices.Sort(cand)
		}
		for _, i := range cand {
			if mc := s.serverConfig(&t.Cluster, i); mc.TimerTickHz > 0 && mc.TickKernelTime <= 0 {
				err := errors.New("timer_tick_hz needs tick_kernel_us > 0")
				if block != "" {
					err = fmt.Errorf("%s server %d: %w", tierLabel(block, ti), i, err)
				}
				return inBlock(block, ti, err)
			}
		}
	}
	return nil
}

// inertBits reports, one bit per inertKnobs entry, which knobs c sets
// and which of those act. These settings act only together with
// another one: a knob set on some point must act on some point, or it
// is a typo rather than a configuration, like sweeping an axis the
// service ignores. They read the converted settings, as the run does.
func inertBits(c *cluster.Config) (set, acts uint8) {
	f := &c.Faults
	for k, b := range [...][2]bool{
		{c.DrainHold > 0 || c.FeedbackEpoch > 0, c.Policy.Packs()},
		{c.TorLatency > 0, !c.Topology.IsFlat()},
		{f.MTTR > 0, f.MTBF > 0},
		{f.BrownoutDuration > 0 || f.BrownoutFactor != 0, f.BrownoutMTBF > 0},
		{f.TorPartitionDuration > 0, f.TorPartitionMTBF > 0},
		{f.MaxRetries > 0, f.RequestTimeout > 0 || f.Injecting()},
	} {
		if b[0] {
			set |= 1 << k
			if b[1] {
				acts |= 1 << k
			}
		}
	}
	return set, acts
}

// inertKnobs names inertBits' knobs: each one's JSON key below the fleet
// block and its requirement, "{}" standing for the block's key prefix.
var inertKnobs = [...]struct{ knob, need string }{
	{"drain_hold_us/feedback_epoch_us", "need a power_aware or rack_power_aware policy"},
	{"tor_latency_us", "needs {}racks > 1"},
	{"faults.mttr_us", "needs {}mtbf_us > 0"},
	{"faults.brownout_duration_us/brownout_factor", "need {}brownout_mtbf_us > 0"},
	{"faults.tor_partition_duration_us", "needs {}tor_partition_mtbf_us > 0"},
	{"faults.max_retries", "needs {}request_timeout_us > 0 or a fault-injection process — nothing would ever retry"},
}

// inertError reports the first knob, tier by tier, that some point set
// (set[ti]) and no point acted on (acts[ti]). When the knob is the
// swept axis, the requirement names its block.
func (s *Scenario) inertError(set, acts []uint8, block string) error {
	for ti := range set {
		for k, r := range inertKnobs {
			if (set[ti]&^acts[ti])&(1<<k) == 0 {
				continue
			}
			label := tierLabel(block, ti)
			dot := strings.LastIndexByte(r.knob, '.') + 1
			subject, need := label+"."+r.knob, strings.ReplaceAll(r.need, "{}", "")
			if s.Sweep != nil && r.knob[dot:] == s.Sweep.Axis {
				subject, need = "the "+s.Sweep.Axis+" axis", strings.ReplaceAll(r.need, "{}", label+"."+r.knob[:dot])
			}
			return inBlock(block, ti, fmt.Errorf("scenario %q: %s %s", s.Name, subject, need))
		}
	}
	return nil
}

// validateTrace checks the workload.trace block with the inert knobs'
// rigor: every field must be able to act. A trace block on a synthetic
// service would be silently ignored; a synthetic rate field on the
// trace service could never act (the stream is recorded); and loop and
// truncate contradict each other. Any open-loop shape can replay: the
// trace drives the root tier of the point's graph.
func (s *Scenario) validateTrace() error {
	t := s.Workload.Trace
	if s.Workload.Service != "trace" {
		if t != nil {
			return fmt.Errorf("scenario %q: workload.trace only applies to the %q service — on %q it would be silently ignored",
				s.Name, "trace", s.Workload.Service)
		}
		return nil
	}
	if t == nil {
		return fmt.Errorf("scenario %q: the trace service needs a workload.trace block", s.Name)
	}
	if t.Path == "" {
		return fmt.Errorf("scenario %q: missing workload.trace.path", s.Name)
	}
	w := s.Workload
	if w.QPS != 0 || w.Util != 0 || w.Load != 0 || w.Burstiness != 0 || w.Threads != 0 || w.ThinkMS != 0 {
		return fmt.Errorf("scenario %q: synthetic rate fields (qps/util/load/burstiness/threads/think_ms) cannot apply to a recorded trace — its stream is fixed", s.Name)
	}
	if t.TimeScale < 0 {
		return fmt.Errorf("scenario %q: negative workload.trace.time_scale", s.Name)
	}
	if t.Loop && t.Truncate {
		return fmt.Errorf("scenario %q: workload.trace.loop and truncate contradict each other — pick one", s.Name)
	}
	return nil
}

// spec builds the workload for one fully-applied scenario point.
// Closed-loop sysbench has no spec — runClosedLoop drives it — so for
// it spec only checks the fields and returns the zero Spec.
func (w Workload) spec(cores int) (spec workload.Spec, err error) {
	switch w.Service {
	case "memcached":
		switch {
		case w.QPS > 0 && w.Util > 0:
			return spec, fmt.Errorf("memcached: set qps or util, not both")
		case w.QPS > 0:
			return workload.Memcached(w.QPS), nil
		case w.Util > 0:
			return workload.MemcachedAtUtil(w.Util, cores), nil
		default:
			return spec, fmt.Errorf("memcached: needs qps or util > 0")
		}
	case "memcached-bursty":
		if w.QPS <= 0 {
			return spec, fmt.Errorf("memcached-bursty: needs qps > 0")
		}
		b := w.Burstiness
		if b <= 0 {
			return spec, fmt.Errorf("memcached-bursty: needs burstiness > 0")
		}
		return workload.MemcachedBursty(w.QPS, b), nil
	case "mysql":
		if w.Load <= 0 {
			return spec, fmt.Errorf("mysql: needs load > 0")
		}
		return workload.MySQL(w.Load, cores), nil
	case "kafka":
		if w.Load <= 0 {
			return spec, fmt.Errorf("kafka: needs load > 0")
		}
		return workload.Kafka(w.Load, cores), nil
	case "sysbench":
		if w.Threads <= 0 {
			return spec, fmt.Errorf("sysbench: needs threads > 0")
		}
		if w.ThinkMS < 0 {
			return spec, fmt.Errorf("sysbench: negative think_ms")
		}
		return spec, nil
	case "trace":
		// The runner resolves trace specs from the trace header before
		// it ever needs a synthetic spec; reaching this is a bug.
		return spec, fmt.Errorf("trace: spec comes from the trace header, not the workload fields")
	default:
		return spec, fmt.Errorf("unknown service %q", w.Service)
	}
}

// Load decodes one scenario or a JSON array of scenarios, rejecting
// unknown fields so typos fail loudly instead of silently running the
// defaults. Relative trace paths resolve against the current
// directory; use LoadFile to resolve them against the JSON file's.
func Load(r io.Reader) ([]Scenario, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return load(data, "")
}

// load decodes, validates and — for trace scenarios — preflights the
// trace file, so a missing or malformed trace fails at load with the
// line and column of the path that named it, not mid-run.
func load(data []byte, baseDir string) ([]Scenario, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	var scs []Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var err error
	if len(trimmed) > 0 && trimmed[0] == '[' {
		err = dec.Decode(&scs)
	} else {
		var sc Scenario
		if err = dec.Decode(&sc); err == nil {
			scs = []Scenario{sc}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", locateJSONError(data, err))
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after the first value — wrap multiple scenarios in a JSON array")
	}
	for i := range scs {
		if err := scs[i].validate(true); err != nil {
			return nil, locateBlockError(data, err)
		}
		if err := scs[i].preflightTrace(baseDir, data); err != nil {
			return nil, err
		}
	}
	return scs, nil
}

// preflightTrace opens and header-checks the trace file behind a
// validated trace scenario, resolving a relative path against baseDir
// (the JSON file's directory) and rewriting Trace.Path to the resolved
// form so the runner opens the same file. Failures are located at the
// line and column of the path string in the JSON source.
func (s *Scenario) preflightTrace(baseDir string, data []byte) error {
	if s.Workload.Service != "trace" {
		return nil
	}
	t := s.Workload.Trace
	orig := t.Path
	if baseDir != "" && !filepath.IsAbs(t.Path) {
		t.Path = filepath.Join(baseDir, t.Path)
	}
	if err := t.preflight(); err != nil {
		return fmt.Errorf("scenario %q: workload.trace.path: %w", s.Name, locatePathError(data, orig, err))
	}
	return nil
}

// preflight verifies the trace file exists and carries a valid,
// non-empty, loop-compatible header — everything replay needs short of
// reading the records. It reads the header and name and nothing else;
// the record-level checks (ordering, count, checksum, trailing bytes)
// run when the trace replays. The runner repeats it per resolved point so
// programmatically-built scenarios (which never went through Load) fail
// before any simulation runs.
func (t *Trace) preflight() error {
	f, err := os.Open(t.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	h, err := replay.ReadHeader(f)
	if err != nil {
		return fmt.Errorf("%s: %w", t.Path, err)
	}
	if h.Count == 0 {
		return fmt.Errorf("%s: empty trace — nothing to replay", t.Path)
	}
	if t.Loop && h.LastTS <= 0 {
		return fmt.Errorf("%s: cannot loop a trace whose last timestamp is 0", t.Path)
	}
	return nil
}

// blockError tags a tiers/edges validation failure with the JSON array
// it came from ("tiers" or "edges") and the failing element's index, so
// load can point at the element's line and column in the source file.
// Programmatic callers of Validate see it as a plain error.
type blockError struct {
	key   string
	index int
	err   error
}

func (e *blockError) Error() string { return e.err.Error() }
func (e *blockError) Unwrap() error { return e.err }

func blockErr(key string, index int, err error) error {
	return &blockError{key: key, index: index, err: err}
}

// locateBlockError prefixes a blockError with the line and column of
// the failing tiers/edges element in the JSON source. Like
// locatePathError it is best-effort: if the keyed array appears zero
// times or more than once in the file, the error passes through
// unchanged rather than pointing at the wrong element.
func locateBlockError(data []byte, err error) error {
	var be *blockError
	if !errors.As(err, &be) {
		return err
	}
	off, ok := locateArrayElement(data, be.key, be.index)
	if !ok {
		return err
	}
	return located(data, off, err)
}

// located prefixes err with the line and column of data[off].
func located(data []byte, off int64, err error) error {
	prefix := data[:off]
	col := max(off-int64(bytes.LastIndexByte(prefix, '\n')), 1)
	return fmt.Errorf("line %d, column %d: %w", 1+bytes.Count(prefix, []byte("\n")), col, err)
}

// locateArrayElement returns the byte offset of the opening brace of
// element index of the array keyed by key. It reports ok=false when
// the key's array appears zero times or more than once (ambiguous), or
// the element is not an object. A key cannot match inside a string
// value, whose quotes are escaped.
func locateArrayElement(data []byte, key string, index int) (int64, bool) {
	m := regexp.MustCompile(`"`+regexp.QuoteMeta(key)+`"\s*:\s*\[`).FindAllIndex(data, 2)
	if len(m) != 1 {
		return 0, false
	}
	start := int64(m[0][1] - 1) // the array's '['
	dec := json.NewDecoder(bytes.NewReader(data[start:]))
	if _, err := dec.Token(); err != nil {
		return 0, false
	}
	for i := 0; dec.More(); i++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return 0, false
		}
		if i == index && raw[0] == '{' {
			return start + dec.InputOffset() - int64(len(raw)), true
		}
	}
	return 0, false
}

// locatePathError prefixes an error with the line and column of the
// given string value in the JSON source, found by its encoded form.
// If the string cannot be located (it appears zero times or more than
// once), the error passes through unchanged.
func locatePathError(data []byte, value string, err error) error {
	quoted, merr := json.Marshal(value)
	if merr != nil {
		return err
	}
	idx := bytes.Index(data, quoted)
	if idx < 0 || bytes.Index(data[idx+1:], quoted) >= 0 {
		return err
	}
	return located(data, int64(idx), err)
}

// locateJSONError prefixes decoding errors that carry a byte offset
// (syntax errors, type mismatches) with the line and column of the
// failing byte, so a bad edit to an examples/scenarios/*.json file
// points at the line instead of making the reader bisect the file. The
// offset is relative to data, which is exactly what the decoder read.
// Errors without an offset pass through unchanged.
func locateJSONError(data []byte, err error) error {
	var off int64
	var synErr *json.SyntaxError
	var typeErr *json.UnmarshalTypeError
	switch {
	case errors.As(err, &synErr):
		off = synErr.Offset
	case errors.As(err, &typeErr):
		off = typeErr.Offset
	default:
		return err
	}
	if off < 1 || off > int64(len(data)) {
		return err
	}
	// The reported offset counts the bytes consumed up to and including
	// the failing one, so the failing byte is data[off-1].
	prefix := data[:off]
	line := 1 + bytes.Count(prefix, []byte("\n"))
	col := off - int64(bytes.LastIndexByte(prefix, '\n')) - 1
	if col < 1 {
		col = 1
	}
	return fmt.Errorf("line %d, column %d (byte %d): %w", line, col, off, err)
}

// LoadFile reads scenarios from a JSON file. Relative trace paths
// resolve against the file's directory, so a scenario can name a trace
// sitting next to it.
func LoadFile(path string) ([]Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	scs, err := load(data, filepath.Dir(path))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return scs, nil
}

// EffectiveOptions resolves the runner options the scenario actually
// executes under: the given defaults with the scenario's duration_ms and
// seed overrides applied. Run uses it internally; callers recording run
// metadata should use it too, so the recorded window and seed match the
// simulation.
func (s *Scenario) EffectiveOptions(opt experiments.Options) experiments.Options {
	if s.DurationMS > 0 {
		opt.Duration = sim.Duration(s.DurationMS * float64(sim.Millisecond))
	}
	if s.Seed != 0 {
		opt.Seed = s.Seed
	}
	return opt
}
