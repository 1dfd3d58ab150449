// Package agilepkgc is a discrete-event simulation reproduction of
// "AgilePkgC: An Agile System Idle State Architecture for Energy
// Proportional Datacenter Servers" (MICRO 2022).
//
// Latency-critical servers idle 60–70% of the time but almost never get
// to use deep package C-states: entry and exit are too slow for
// microsecond-scale request gaps. The paper's answer, reproduced here,
// is PC1A — an agile package C-state run by a small dedicated hardware
// FSM (the APMU) that harvests only the fast-entry/fast-exit savings
// (CLM retention voltage, DRAM CKE-off, IO link standby, PLLs kept
// locked) so the whole round trip costs ~200 ns instead of tens of
// microseconds.
//
// # Layer map
//
// Everything runs on one deterministic discrete-event engine; each
// layer below builds on the ones above it:
//
//	internal/sim          the engine: pooled, allocation-free, strict
//	                      (time, sequence) event order
//	internal/clock        PLLs and relock latencies
//	internal/pdn          FIVR power delivery and voltage ramps
//	internal/cpu          cores, core C-states and their residency
//	                      counters, idle governors
//	internal/ios          PCIe/DMI/UPI links and their L-states
//	internal/dram         memory controllers, CKE power-down, self-refresh
//	internal/uncore       CLM (cache/LLC module) retention
//	internal/pmu          global PMU: the legacy PC2/PC6 flows
//	internal/core         the APMU FSM implementing PC1A
//	internal/soc          assembles the above into the paper's three
//	                      evaluated configurations (Cshallow, Cdeep, CPC1A)
//	internal/power        piecewise-constant power/energy accounting
//	internal/workload     Memcached/MySQL/Kafka open-loop streams and a
//	                      closed-loop sysbench client, behind a Source
//	                      seam that also admits recorded streams
//	internal/workload/replay
//	                      the binary arrival-trace format: a fuzzed
//	                      zero-copy decoder, a deterministic recorder,
//	                      and a Replay source that reproduces a
//	                      recorded stream byte-identically to the
//	                      generator that made it
//	internal/server       the software stack of one service instance:
//	                      NIC DMA, kernel overhead, core dispatch,
//	                      client-observed latency
//	internal/cluster      fleets: N servers on one shared engine behind
//	                      a load balancer with power-aware and
//	                      rack-affinity routing over a multi-rack
//	                      topology (ToR hops, per-rack power zones),
//	                      plus balancer dynamics — a hysteretic drain
//	                      controller and a p99-driven SLA feedback loop
//	                      over the packing caps — and fault injection
//	                      with failure recovery: crashes, brownouts and
//	                      ToR partitions answered by timeouts, bounded
//	                      retries, hedged requests and load shedding,
//	                      and multi-tier service graphs: fleets wired
//	                      by lossy cache edges (hit ratio, TTL,
//	                      fan-out) with misses cascading downstream on
//	                      the same engine
//	internal/trace        full-idle period tracing: Fig 6 histogram, wake probe
//	internal/stats        histograms, distributions, RNG
//	internal/experiments  the self-registering registry of paper
//	                      artifacts plus the parallel sweep runner
//	internal/scenario     declarative JSON scenarios over all of the
//	                      above
//
// # Entry points
//
// cmd/apcsim regenerates any subset of the paper's evaluation
// (`apcsim list`, `apcsim run all`, `apcsim scenario file.json`),
// cmd/apctop is a live TUI over a simulated machine's MSR/PMU readout
// surfaces, and cmd/tracegen authors and inspects the binary arrival
// traces that scenarios replay (`tracegen synth|convert|dump`).
// examples/quickstart is the one programmatic driver of the library,
// and examples/scenarios holds scenario files for `apcsim scenario`.
//
// Every run is reproducible: same seed, bit-identical traces, at any
// parallelism. README.md is the tour; DESIGN.md documents the engine
// internals, the registry/scenario architecture, the cluster layer and
// the power-model calibration.
package agilepkgc
