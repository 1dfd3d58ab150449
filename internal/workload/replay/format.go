// Package replay records and replays arrival traces: the bridge from
// "reproduces the paper's figures on synthetic arrival processes" to
// "predicts PC1A residency and tail latency for a recorded production
// day". A trace is a compact fixed-width binary stream — one 24-byte
// record per arrival (timestamp, service demand, connection, memory
// accesses) behind a versioned header carrying the record count, the
// source workload's identity (name, mean rate, mean service time) and a
// CRC64 checksum — read back by a buffered streaming Reader that never
// holds more than one bufio window in memory, and driven into a fleet
// by Replay, a workload.Source whose steady-state read path allocates
// nothing.
//
// # Determinism and the parity contract
//
// Records store absolute trace-stream timestamps, and equal timestamps
// replay in record order (the engine's FIFO same-instant ordering —
// records are scheduled in file order, so index order is arrival
// order). Replay maps stream time onto engine time with a per-window
// offset recomputed at every Start, which excises the engine's drain
// gaps from the stream timeline; a trace synthesized by Synthesize
// through the same warmup/measurement window split therefore replays
// byte-identically to running the synthetic generator directly
// (TestReplayMatchesSynthetic locks report and CSV bytes).
//
// See DESIGN.md §10 for the full format specification and the
// determinism/tie-break contract.
package replay

import (
	"fmt"
	"hash/crc64"
	"math"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/stats"
	"agilepkgc/internal/workload"
)

// Format constants. All multi-byte fields are little-endian.
const (
	// Magic opens every trace file.
	Magic = "APCTRACE"
	// Version is the current format version.
	Version = 1
	// headerSize is the fixed portion of the header: magic(8) version(4)
	// nameLen(4) count(8) firstTS(8) lastTS(8) meanQPS(8) serviceMean(8)
	// connections(4) memAccesses(4) crc(8). The workload name (nameLen
	// bytes of UTF-8) follows immediately; records start at
	// headerSize+nameLen.
	headerSize = 72
	// RecordSize is one arrival record: ts(8) service(8) conn(4) mem(4).
	RecordSize = 24
	// maxNameLen bounds the variable-length name so a corrupt length
	// field cannot demand an absurd allocation (the "length-field lie"
	// failure mode FuzzTraceDecode exercises).
	maxNameLen = 4096
)

// crcTable is the CRC64-ECMA table every writer and reader shares; the
// checksum covers the record bytes (not the header).
var crcTable = crc64.MakeTable(crc64.ECMA)

// Header describes one trace: the stream's shape plus the identity of
// the workload that produced it, carried so a replayed fleet derives
// the same packing caps and prints the same report fields (workload
// name, offered QPS) as the synthetic run the trace was recorded from.
type Header struct {
	// Name is the workload name reports print (e.g. "memcached-20000qps").
	Name string
	// Count is the number of records.
	Count uint64
	// FirstTS and LastTS are the first and last record timestamps
	// (stream time, nanoseconds). Looping replay uses LastTS as the
	// wrap period.
	FirstTS sim.Time
	LastTS  sim.Time
	// MeanQPS and ServiceMean are the source workload's long-run arrival
	// rate (requests/second) and mean service time (seconds), stored as
	// exact float64 bits so a trace-backed Spec reproduces the synthetic
	// spec's derived values (packing caps, offered-QPS report fields)
	// bit for bit.
	MeanQPS     float64
	ServiceMean float64
	// Connections and MemAccesses mirror workload.Spec.
	Connections int
	MemAccesses int
	// CRC is the CRC64-ECMA of the record bytes.
	CRC uint64
}

// Record is one arrival: its stream timestamp, service demand and the
// per-request fields workload.Request carries.
type Record struct {
	// TS is the arrival instant in stream time (nanoseconds). Records
	// are ordered by TS; equal timestamps keep file order.
	TS sim.Time
	// Service is the application service time at nominal frequency.
	Service sim.Duration
	// Conn identifies the client connection (dispatch pinning).
	Conn uint32
	// Mem is the request's DRAM transaction count.
	Mem uint32
}

// FormatError locates a malformed trace: the byte offset of the failing
// field, the record index it belongs to (−1 for header errors) and what
// was wrong. The decoder returns it for every failure mode — truncation,
// corrupt checksums, out-of-order timestamps, length-field lies — and
// never panics or reads past the failing field.
type FormatError struct {
	// Offset is the file byte offset of the failing field.
	Offset int64
	// Record is the index of the record holding it, −1 in the header.
	Record int64
	// Msg says what was wrong.
	Msg string
}

func (e *FormatError) Error() string {
	if e.Record < 0 {
		return fmt.Sprintf("trace: header (byte %d): %s", e.Offset, e.Msg)
	}
	return fmt.Sprintf("trace: record %d (byte %d): %s", e.Record, e.Offset, e.Msg)
}

// headerErr and recordErr build located errors.
func headerErr(off int64, format string, args ...any) *FormatError {
	return &FormatError{Offset: off, Record: -1, Msg: fmt.Sprintf(format, args...)}
}

func recordErr(off, rec int64, format string, args ...any) *FormatError {
	return &FormatError{Offset: off, Record: rec, Msg: fmt.Sprintf(format, args...)}
}

// Spec returns the trace-backed workload description: same name, rate,
// mean service time, connection and memory-access counts as the spec
// the trace was recorded from, with placeholder distributions that
// carry the recorded means but cannot be sampled (replay reads demands
// from the records, never from an RNG). Everything the fleet derives
// from a spec — packing caps via Service.Mean(), report fields via
// MeanQPS() — is a pure function of these stored bits, which is what
// makes a replayed fleet's configuration identical to the synthetic
// run's.
func (h Header) Spec() workload.Spec {
	return workload.Spec{
		Name:        h.Name,
		Arrivals:    traceArrivals{rate: h.MeanQPS},
		Service:     traceService{mean: h.ServiceMean},
		Connections: h.Connections,
		MemAccesses: h.MemAccesses,
	}
}

// traceArrivals is the arrival-process placeholder of a trace-backed
// spec: it knows the recorded long-run rate and nothing else. Replay
// never draws gaps — NextGap panicking loudly is the guard against a
// trace spec leaking into the synthetic generator.
type traceArrivals struct{ rate float64 }

func (a traceArrivals) NextGap(*stats.RNG, *stats.ArrivalStream) float64 {
	panic("replay: trace-backed spec cannot generate synthetic arrivals")
}
func (a traceArrivals) Rate() float64  { return a.rate }
func (a traceArrivals) String() string { return fmt.Sprintf("trace(%g/s)", a.rate) }

// traceService is the service-distribution placeholder: mean only.
type traceService struct{ mean float64 }

func (d traceService) Sample(*stats.RNG) float64 {
	panic("replay: trace-backed spec cannot sample service times")
}
func (d traceService) Mean() float64  { return d.mean }
func (d traceService) String() string { return fmt.Sprintf("trace(mean=%g)", d.mean) }

// validTS rejects u64 timestamp/duration fields whose value cannot be a
// sim.Time (negative after the int64 conversion).
//
//apcvet:noalloc
func validTS(v uint64) bool { return v <= math.MaxInt64 }
