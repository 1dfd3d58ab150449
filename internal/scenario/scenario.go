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
	"slices"
	"strconv"

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

// enabled mirrors cluster.FaultConfig.Enabled on the JSON block: it
// reports whether the block would attach the fault layer at all.
func (f *Faults) enabled() bool {
	return f != nil && (f.MTBFUS > 0 || f.BrownoutMTBFUS > 0 || f.TorPartitionMTBFUS > 0 ||
		f.RequestTimeoutUS > 0 || f.MaxRetries > 0 || f.HedgeDelayUS > 0)
}

// config converts the block to engine units. A nil block is the zero
// (disabled) configuration.
func (f *Faults) config() cluster.FaultConfig {
	if f == nil {
		return cluster.FaultConfig{}
	}
	us := func(v float64) sim.Duration { return sim.Duration(v * float64(sim.Microsecond)) }
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
	}{
		{"network_latency_us", o.NetworkLatencyUS},
		{"nic_transfer_ns", o.NICTransferNS},
		{"kernel_overhead_us", o.KernelOverheadUS},
		{"batch_epoch_us", o.BatchEpochUS},
		{"timer_tick_hz", o.TimerTickHz},
		{"tick_kernel_us", o.TickKernelUS},
	} {
		if kv.v != nil && *kv.v < 0 {
			return fmt.Errorf("server.%s must not be negative (got %g)", kv.name, *kv.v)
		}
	}
	return nil
}

func (o Overrides) apply(cfg *server.Config) {
	us := func(v float64) sim.Duration { return sim.Duration(v * float64(sim.Microsecond)) }
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
	ratioValue // at most 1
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
	AxisBatchEpochUS:   {block: serverBlock, set: func(s Scenario, v float64) Scenario { s.Server.BatchEpochUS = &v; return s }},
	AxisTickHz:         {block: serverBlock, set: func(s Scenario, v float64) Scenario { s.Server.TimerTickHz = &v; return s }},
	AxisNetworkLatency: {block: serverBlock, set: func(s Scenario, v float64) Scenario { s.Server.NetworkLatencyUS = &v; return s }},
	AxisServers:        {block: clusterBlock, rule: countValue, set: atCluster(func(c *Cluster, v float64) { c.Servers = int(v) })},
	AxisRacks:          {block: clusterBlock, rule: countValue, set: atCluster(func(c *Cluster, v float64) { c.Racks = int(v) })},
	AxisTorLatency:     {block: clusterBlock, set: atCluster(func(c *Cluster, v float64) { c.TorLatencyUS = v })},
	AxisDrainHold:      {block: clusterBlock, set: atCluster(func(c *Cluster, v float64) { c.DrainHoldUS = v })},
	AxisFeedbackEpoch:  {block: clusterBlock, set: atCluster(func(c *Cluster, v float64) { c.FeedbackEpochUS = v })},
	AxisMTBF:           {block: faultsBlock, set: atFaults(func(f *Faults, v float64) { f.MTBFUS = v })},
	AxisMTTR:           {block: faultsBlock, set: atFaults(func(f *Faults, v float64) { f.MTTRUS = v })},
	AxisRequestTimeout: {block: faultsBlock, set: atFaults(func(f *Faults, v float64) { f.RequestTimeoutUS = v })},
	AxisMaxRetries:     {block: faultsBlock, rule: wholeValue, set: atFaults(func(f *Faults, v float64) { f.MaxRetries = int(v) })},
	AxisHedgeDelay:     {block: faultsBlock, set: atFaults(func(f *Faults, v float64) { f.HedgeDelayUS = v })},
	AxisHitRatio:       {block: edgesBlock, rule: ratioValue, set: atEdges(func(e *Edge, v float64) { e.HitRatio = v })},
	AxisFanout:         {block: edgesBlock, rule: countValue, set: atEdges(func(e *Edge, v float64) { e.Fanout = int(v) })},
	AxisTTL:            {block: edgesBlock, set: atEdges(func(e *Edge, v float64) { e.TTLUS = v })},
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

// at returns a copy of the scenario with one axis value applied.
func (s Scenario) at(axis string, v float64) Scenario { return axes[axis].set(s, v) }

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

// Validate checks the parts of the scenario that do not depend on axis
// values: the config kind, service name, sweep axis and value list.
// Per-point rate validation happens when the points are built, after the
// axis value is applied.
func (s *Scenario) Validate() error {
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
	if s.Sweep != nil {
		spec, ok := axes[s.Sweep.Axis]
		if !ok {
			return fmt.Errorf("scenario %q: unknown sweep axis %q (want one of %v)",
				s.Name, s.Sweep.Axis, Axes())
		}
		if spec.block.drivesCluster() && s.Cluster == nil {
			return fmt.Errorf("scenario %q: sweep axis %q needs a cluster block", s.Name, s.Sweep.Axis)
		}
		if spec.block == edgesBlock && len(s.Edges) == 0 {
			return fmt.Errorf("scenario %q: sweep axis %q needs a tiers block with edges", s.Name, s.Sweep.Axis)
		}
		if spec.block == workloadBlock && !slices.Contains(spec.services, s.Workload.Service) {
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
			for _, p := range s.Sweep.Policies {
				if _, err := cluster.ParsePolicy(p); err != nil {
					return fmt.Errorf("scenario %q: %w", s.Name, err)
				}
			}
		} else {
			if len(s.Sweep.Policies) > 0 {
				return fmt.Errorf("scenario %q: sweep.policies only applies to the %q axis", s.Name, AxisPolicy)
			}
			if len(s.Sweep.Values) == 0 {
				return fmt.Errorf("scenario %q: sweep has no values", s.Name)
			}
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
			if spec.rule == ratioValue && v > 1 {
				return fmt.Errorf("scenario %q: %s value %g is outside [0, 1]", s.Name, s.Sweep.Axis, v)
			}
		}
	}
	if err := s.validateCluster(); err != nil {
		return err
	}
	if err := s.validateTiers(); err != nil {
		return err
	}
	if s.DurationMS < 0 {
		return fmt.Errorf("scenario %q: negative duration_ms", s.Name)
	}
	if err := s.Server.validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return nil
}

// validateCluster checks the cluster block's axis-independent parts.
// Fields a sweep drives (servers, policy) are only required when no
// sweep supplies them; per-point checks (override indices vs the applied
// fleet size) happen when the points are built.
func (s *Scenario) validateCluster() error {
	c := s.Cluster
	if c == nil {
		return nil
	}
	sweepAxis := ""
	if s.Sweep != nil {
		sweepAxis = s.Sweep.Axis
	}
	if s.Workload.Service == "sysbench" {
		return fmt.Errorf("scenario %q: cluster needs an open-loop service — closed-loop sysbench clients bind to one machine and bypass the balancer", s.Name)
	}
	return s.validateClusterBlock(c, sweepAxis, "cluster")
}

// validateClusterBlock checks one fleet-shape block — the scenario's
// cluster block (label "cluster", with sweep-driven fields relaxed) or
// a tier's inlined block (label "tiers[i]", sweepAxis empty: tier
// fields are never sweep-driven, so every field must be concrete).
func (s *Scenario) validateClusterBlock(c *Cluster, sweepAxis, label string) error {
	if c.Servers < 1 && sweepAxis != AxisServers {
		return fmt.Errorf("scenario %q: %s.servers must be at least 1", s.Name, label)
	}
	needsTarget := func(p cluster.Policy) bool {
		return p == cluster.PowerAware || p == cluster.RackPowerAware
	}
	capped := false
	if sweepAxis == AxisPolicy {
		if c.Policy != "" {
			return fmt.Errorf("scenario %q: %s.policy %q conflicts with the policy sweep — leave it empty", s.Name, label, c.Policy)
		}
		for _, p := range s.Sweep.Policies {
			if pol, err := cluster.ParsePolicy(p); err == nil && needsTarget(pol) {
				capped = true
			}
		}
	} else {
		pol, err := cluster.ParsePolicy(c.Policy)
		if err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		capped = needsTarget(pol)
	}
	if c.P99TargetUS < 0 {
		return fmt.Errorf("scenario %q: negative %s.p99_target_us", s.Name, label)
	}
	if capped && c.P99TargetUS <= 0 {
		return fmt.Errorf("scenario %q: power_aware policies need %s.p99_target_us > 0", s.Name, label)
	}
	if c.Racks < 0 {
		return fmt.Errorf("scenario %q: negative %s.racks", s.Name, label)
	}
	if c.TorLatencyUS < 0 {
		return fmt.Errorf("scenario %q: negative %s.tor_latency_us", s.Name, label)
	}
	if c.DrainHoldUS < 0 {
		return fmt.Errorf("scenario %q: negative %s.drain_hold_us", s.Name, label)
	}
	if c.FeedbackEpochUS < 0 {
		return fmt.Errorf("scenario %q: negative %s.feedback_epoch_us", s.Name, label)
	}
	// The balancer-dynamics knobs only act on the cap-based packing
	// policies; anywhere else they would be silently inert, like
	// sweeping an ignored axis.
	if (c.DrainHoldUS > 0 || c.FeedbackEpochUS > 0) && !capped {
		return fmt.Errorf("scenario %q: %s.drain_hold_us/feedback_epoch_us need a power_aware or rack_power_aware policy", s.Name, label)
	}
	if (sweepAxis == AxisDrainHold || sweepAxis == AxisFeedbackEpoch) && !capped {
		return fmt.Errorf("scenario %q: the %s axis needs a power_aware or rack_power_aware policy", s.Name, sweepAxis)
	}
	// A ToR hop with nothing non-local to cross would be silently inert,
	// like sweeping an ignored axis — reject it up front.
	if c.TorLatencyUS > 0 && c.Racks <= 1 && sweepAxis != AxisRacks {
		return fmt.Errorf("scenario %q: %s.tor_latency_us needs racks > 1", s.Name, label)
	}
	if sweepAxis == AxisTorLatency && c.Racks <= 1 {
		return fmt.Errorf("scenario %q: the %s axis needs cluster.racks > 1 — a flat fleet pays no ToR hop", s.Name, AxisTorLatency)
	}
	for _, key := range slices.Sorted(maps.Keys(c.ServerOverrides)) {
		idx, err := strconv.Atoi(key)
		if err != nil || idx < 0 {
			return fmt.Errorf("scenario %q: %s.server_overrides key %q is not a server index", s.Name, label, key)
		}
		if err := c.ServerOverrides[key].validate(); err != nil {
			return fmt.Errorf("scenario %q: server_overrides[%s]: %w", s.Name, key, err)
		}
	}
	return s.validateFaultsBlock(c, sweepAxis, label)
}

// validateFaultsBlock checks one faults block (the cluster block's or a
// tier's): non-negative knobs, the same coherence rules
// cluster.FaultConfig enforces at assembly (restated here so a bad file
// fails at load, not mid-run), and the package's "silently inert knob"
// rule — a field whose mechanism can never fire is a typo, not a
// configuration.
func (s *Scenario) validateFaultsBlock(c *Cluster, sweepAxis, label string) error {
	fc := c.Faults
	if fc == nil {
		if axes[sweepAxis].block == faultsBlock {
			return fmt.Errorf("scenario %q: the %s axis needs a cluster.faults block", s.Name, sweepAxis)
		}
		return nil
	}
	// Declared order (mirrors the FaultConfig field order), so the
	// first offending knob reported is deterministic.
	for _, kv := range []struct {
		name string
		v    float64
	}{
		{"mtbf_us", fc.MTBFUS}, {"mttr_us", fc.MTTRUS},
		{"brownout_mtbf_us", fc.BrownoutMTBFUS}, {"brownout_duration_us", fc.BrownoutDurationUS},
		{"brownout_factor", fc.BrownoutFactor},
		{"tor_partition_mtbf_us", fc.TorPartitionMTBFUS}, {"tor_partition_duration_us", fc.TorPartitionDurationUS},
		{"request_timeout_us", fc.RequestTimeoutUS}, {"hedge_delay_us", fc.HedgeDelayUS},
	} {
		if kv.v < 0 {
			return fmt.Errorf("scenario %q: negative %s.faults.%s", s.Name, label, kv.name)
		}
	}
	if fc.MaxRetries < 0 {
		return fmt.Errorf("scenario %q: negative %s.faults.max_retries", s.Name, label)
	}
	// Crash process: a crash with no repair never ends; a repair time
	// with no crash process never fires. The mtbf_us axis supplies the
	// crash side per point, so mttr_us alone is fine under it.
	if (fc.MTBFUS > 0 || sweepAxis == AxisMTBF) && fc.MTTRUS <= 0 && sweepAxis != AxisMTTR {
		return fmt.Errorf("scenario %q: %s.faults.mtbf_us needs mttr_us > 0", s.Name, label)
	}
	if fc.MTTRUS > 0 && fc.MTBFUS <= 0 && sweepAxis != AxisMTBF {
		return fmt.Errorf("scenario %q: %s.faults.mttr_us needs mtbf_us > 0 (or the %s axis)", s.Name, label, AxisMTBF)
	}
	if sweepAxis == AxisMTTR {
		if fc.MTBFUS <= 0 {
			return fmt.Errorf("scenario %q: the %s axis needs cluster.faults.mtbf_us > 0", s.Name, AxisMTTR)
		}
		for _, v := range s.Sweep.Values {
			if v <= 0 {
				return fmt.Errorf("scenario %q: %s value %g — a crash with no repair process never ends", s.Name, AxisMTTR, v)
			}
		}
	}
	// Brownout process: the three fields only act together.
	if fc.BrownoutMTBFUS > 0 && (fc.BrownoutDurationUS <= 0 || fc.BrownoutFactor <= 1) {
		return fmt.Errorf("scenario %q: %s.faults.brownout_mtbf_us needs brownout_duration_us > 0 and brownout_factor > 1", s.Name, label)
	}
	if (fc.BrownoutDurationUS > 0 || fc.BrownoutFactor != 0) && fc.BrownoutMTBFUS <= 0 {
		return fmt.Errorf("scenario %q: %s.faults.brownout_duration_us/brownout_factor need brownout_mtbf_us > 0", s.Name, label)
	}
	// Partition process: needs a duration and a ToR to cut.
	if fc.TorPartitionMTBFUS > 0 {
		if fc.TorPartitionDurationUS <= 0 {
			return fmt.Errorf("scenario %q: %s.faults.tor_partition_mtbf_us needs tor_partition_duration_us > 0", s.Name, label)
		}
		if c.Racks <= 1 && sweepAxis != AxisRacks {
			return fmt.Errorf("scenario %q: %s.faults.tor_partition_mtbf_us needs racks > 1 — a flat fleet has no ToR uplink to cut", s.Name, label)
		}
		if sweepAxis == AxisRacks {
			for _, v := range s.Sweep.Values {
				if v <= 1 {
					return fmt.Errorf("scenario %q: racks value %g with ToR partition faults — a flat fleet has no ToR uplink to cut", s.Name, v)
				}
			}
		}
	}
	if fc.TorPartitionDurationUS > 0 && fc.TorPartitionMTBFUS <= 0 {
		return fmt.Errorf("scenario %q: %s.faults.tor_partition_duration_us needs tor_partition_mtbf_us > 0", s.Name, label)
	}
	// Retries only fire on a timeout or an injected loss; with neither
	// the budget is inert.
	injecting := fc.MTBFUS > 0 || fc.BrownoutMTBFUS > 0 || fc.TorPartitionMTBFUS > 0 ||
		sweepAxis == AxisMTBF
	if (fc.MaxRetries > 0 || sweepAxis == AxisMaxRetries) &&
		fc.RequestTimeoutUS <= 0 && sweepAxis != AxisRequestTimeout && !injecting {
		return fmt.Errorf("scenario %q: %s.faults.max_retries needs request_timeout_us > 0 or a fault-injection process — nothing would ever retry", s.Name, label)
	}
	return nil
}

// validateTiers checks the tiers/edges service-graph blocks. Failures
// inside one tier or edge are wrapped in a blockError so load can point
// at the element's line and column in the source file.
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
	if s.Workload.Service == "sysbench" {
		return fmt.Errorf("scenario %q: tiers need an open-loop service — closed-loop sysbench clients bind to one machine and bypass the balancer", s.Name)
	}
	sweepAxis := ""
	if s.Sweep != nil {
		sweepAxis = s.Sweep.Axis
	}
	if axes[sweepAxis].block.drivesCluster() {
		// Unreachable today (cluster axes require a cluster block, which
		// tiers exclude), kept as a guard: tier fields are never
		// sweep-driven.
		return fmt.Errorf("scenario %q: sweep axis %q drives the cluster block, which tiers replace", s.Name, sweepAxis)
	}
	names := make(map[string]int, len(s.Tiers))
	for i := range s.Tiers {
		t := &s.Tiers[i]
		if t.Name == "" {
			return blockErr("tiers", i, fmt.Errorf("scenario %q: tiers[%d] has no name", s.Name, i))
		}
		if j, dup := names[t.Name]; dup {
			return blockErr("tiers", i, fmt.Errorf("scenario %q: tiers[%d] duplicates tier name %q (tiers[%d])", s.Name, i, t.Name, j))
		}
		names[t.Name] = i
		if i == 0 && t.Service != "" {
			return blockErr("tiers", 0, fmt.Errorf("scenario %q: tiers[0] (%q) is driven by the scenario workload — drop its service field", s.Name, t.Name))
		}
		if i > 0 {
			switch t.Service {
			case "memcached", "mysql", "kafka":
			case "":
				return blockErr("tiers", i, fmt.Errorf("scenario %q: tiers[%d] (%q) needs a service — the miss stream must know what requests to issue", s.Name, i, t.Name))
			default:
				return blockErr("tiers", i, fmt.Errorf("scenario %q: tiers[%d] (%q) has unknown service %q (want memcached, mysql or kafka)", s.Name, i, t.Name, t.Service))
			}
		}
		if err := s.validateClusterBlock(&t.Cluster, "", fmt.Sprintf("tiers[%d]", i)); err != nil {
			return blockErr("tiers", i, err)
		}
	}
	for i := range s.Edges {
		e := &s.Edges[i]
		from, ok := names[e.From]
		if !ok {
			return blockErr("edges", i, fmt.Errorf("scenario %q: edges[%d].from names unknown tier %q", s.Name, i, e.From))
		}
		to, ok := names[e.To]
		if !ok {
			return blockErr("edges", i, fmt.Errorf("scenario %q: edges[%d].to names unknown tier %q", s.Name, i, e.To))
		}
		if from == to {
			return blockErr("edges", i, fmt.Errorf("scenario %q: edges[%d] loops tier %q onto itself", s.Name, i, e.From))
		}
		if to == 0 {
			return blockErr("edges", i, fmt.Errorf("scenario %q: edges[%d] feeds tier %q — tiers[0] is the client-facing tier and takes no in-edges", s.Name, i, e.To))
		}
		if e.HitRatio < 0 || e.HitRatio > 1 {
			return blockErr("edges", i, fmt.Errorf("scenario %q: edges[%d].hit_ratio %g is outside [0, 1]", s.Name, i, e.HitRatio))
		}
		if e.TTLUS < 0 {
			return blockErr("edges", i, fmt.Errorf("scenario %q: negative edges[%d].ttl_us", s.Name, i))
		}
		if e.Fanout < 0 {
			return blockErr("edges", i, fmt.Errorf("scenario %q: negative edges[%d].fanout", s.Name, i))
		}
		// An edge that can never miss makes fan-out (configured or swept)
		// silently inert — unless the sweep drives the miss model itself.
		neverMisses := e.HitRatio >= 1 && e.TTLUS == 0 &&
			sweepAxis != AxisHitRatio && sweepAxis != AxisTTL
		if e.Fanout > 1 && neverMisses {
			return blockErr("edges", i, fmt.Errorf("scenario %q: edges[%d] sets fanout %d on an edge that never misses (hit_ratio 1, no ttl)", s.Name, i, e.Fanout))
		}
		if sweepAxis == AxisFanout && neverMisses {
			return blockErr("edges", i, fmt.Errorf("scenario %q: the %s axis is inert on edges[%d] — it never misses (hit_ratio 1, no ttl)", s.Name, AxisFanout, i))
		}
		// A sweep value can recreate the never-miss shape per point:
		// hit_ratio swept to 1 (or ttl_us to 0) on a fan-out edge.
		if e.Fanout > 1 {
			if sweepAxis == AxisHitRatio && e.TTLUS == 0 {
				for _, v := range s.Sweep.Values {
					if v >= 1 {
						return blockErr("edges", i, fmt.Errorf("scenario %q: %s value %g makes edges[%d] never miss — its fanout %d would be silently inert", s.Name, AxisHitRatio, v, i, e.Fanout))
					}
				}
			}
			if sweepAxis == AxisTTL && e.HitRatio >= 1 {
				for _, v := range s.Sweep.Values {
					if v == 0 {
						return blockErr("edges", i, fmt.Errorf("scenario %q: %s value 0 makes edges[%d] never miss — its fanout %d would be silently inert", s.Name, AxisTTL, i, e.Fanout))
					}
				}
			}
		}
	}
	adj := make([][]int, len(s.Tiers))
	for _, e := range s.Edges {
		adj[names[e.From]] = append(adj[names[e.From]], names[e.To])
	}
	// An edge closes a cycle exactly when its source is already
	// reachable from its destination.
	for i := range s.Edges {
		e := &s.Edges[i]
		if reaches(adj, names[e.To], names[e.From]) {
			return blockErr("edges", i, fmt.Errorf("scenario %q: edges[%d] (%s -> %s) closes a cycle — the service graph must be acyclic", s.Name, i, e.From, e.To))
		}
	}
	// Every tier must sit on a path from the root, or it simulates
	// nothing — a silently inert tier, rejected like an ignored axis.
	seen := make([]bool, len(s.Tiers))
	seen[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		for _, n := range adj[t] {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return blockErr("tiers", i, fmt.Errorf("scenario %q: tiers[%d] (%q) is unreachable from tiers[0] — it would be silently inert", s.Name, i, s.Tiers[i].Name))
		}
	}
	return nil
}

// reaches reports whether target is reachable from start in adj.
func reaches(adj [][]int, start, target int) bool {
	if start == target {
		return true
	}
	seen := make([]bool, len(adj))
	seen[start] = true
	stack := []int{start}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range adj[t] {
			if n == target {
				return true
			}
			if !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return false
}

// validateTrace checks the workload.trace block with validateFaults'
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
		if err := scs[i].Validate(); err != nil {
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
// reading the records. The runner repeats it per resolved point so
// programmatically-built scenarios (which never went through Load) fail
// before any simulation runs.
func (t *Trace) preflight() error {
	f, err := os.Open(t.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := replay.NewReader(f)
	if err != nil {
		return fmt.Errorf("%s: %w", t.Path, err)
	}
	h := rd.Header()
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
	prefix := data[:off]
	line := 1 + bytes.Count(prefix, []byte("\n"))
	col := off - int64(bytes.LastIndexByte(prefix, '\n'))
	if col < 1 {
		col = 1
	}
	return fmt.Errorf("line %d, column %d: %w", line, col, err)
}

// locateArrayElement walks the JSON token stream and returns the byte
// offset of the opening brace of element `index` of the array keyed by
// `key`. It reports ok=false when the key's array appears zero times or
// more than once (ambiguous), or the element is not an object.
func locateArrayElement(data []byte, key string, index int) (int64, bool) {
	type frame struct {
		obj       bool // object frame (vs array)
		expectKey bool // next string token is an object key
		matched   bool // array frame holding the keyed elements
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var stack []frame
	pendingMatch := false // the next '[' is the keyed array's opening
	var matches [][]int64 // element start offsets, per matched array
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch t := tok.(type) {
		case json.Delim:
			switch t {
			case '{', '[':
				if t == '{' && len(stack) > 0 {
					if top := &stack[len(stack)-1]; !top.obj && top.matched {
						// A direct element of the keyed array: its '{' is
						// the byte just consumed.
						matches[len(matches)-1] = append(matches[len(matches)-1], dec.InputOffset()-1)
					}
				}
				isMatch := t == '[' && pendingMatch
				if isMatch {
					matches = append(matches, nil)
				}
				stack = append(stack, frame{obj: t == '{', expectKey: t == '{', matched: isMatch})
				pendingMatch = false
			case '}', ']':
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					if top := &stack[len(stack)-1]; top.obj {
						top.expectKey = true
					}
				}
			}
		default:
			pendingMatch = false
			if len(stack) > 0 {
				if top := &stack[len(stack)-1]; top.obj {
					if top.expectKey {
						if s, isStr := tok.(string); isStr && s == key {
							pendingMatch = true
						}
						top.expectKey = false
					} else {
						top.expectKey = true
					}
				}
			}
		}
	}
	if len(matches) != 1 || index >= len(matches[0]) {
		return 0, false
	}
	return matches[0][index], true
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
	prefix := data[:idx]
	line := 1 + bytes.Count(prefix, []byte("\n"))
	col := int64(idx) - int64(bytes.LastIndexByte(prefix, '\n'))
	if col < 1 {
		col = 1
	}
	return fmt.Errorf("line %d, column %d: %w", line, col, err)
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
