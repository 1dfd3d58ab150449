package replay

import (
	"fmt"
	"io"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/workload"
)

// Options configures how a Replay maps the trace onto engine time.
type Options struct {
	// TimeScale multiplies arrival timestamps (service demands are never
	// scaled): 0.5 replays the trace at double speed, 2 at half speed.
	// Zero means 1. A scale of exactly 1 bypasses float arithmetic so
	// replayed arrival instants are the recorded integers, bit for bit.
	TimeScale float64
	// Loop restarts the trace when it runs out instead of stopping:
	// iteration j replays with every timestamp shifted by j times the
	// trace's last timestamp (the wrap period), which keeps the stream
	// non-decreasing. Requires a trace whose last timestamp is positive.
	Loop bool
}

// Replay is the recorded counterpart of workload.Generator: a
// workload.Source that drives a trace's records into a sink under the
// engine's window protocol. The steady-state read path allocates
// nothing — records decode in place out of the reader's bufio window,
// requests come from a pool, and the single arrival closure is built
// once at Bind.
//
// Stream time maps onto engine time through an offset recomputed at
// every Start: the engine's clock keeps running between measurement
// windows (drain, idle gaps), but the trace's clock must not, so each
// Start re-anchors the unconsumed remainder of the stream at the
// current instant. Within back-to-back windows (warmup straight into
// measurement) the offset is stable, which is what makes a replayed
// trace reproduce its source generator's arrival instants exactly.
//
// The arrival chain peeks the next record to schedule it and consumes
// it only when it actually emits; a chain cut off by the end of a
// window (the scheduled instant lands at or past the stop time) leaves
// the record in the stream for the next window, mirroring the
// generator's noop-without-consuming behavior at a window boundary.
//
// A Replay is single-use per Bind; Bind rewinds the trace and is the
// reset path for fleet reuse. Decode failures after Bind panic: the
// scenario layer validates the header and the file's existence up
// front, so a mid-replay decode error means the file changed or
// corrupted underneath a validated run — the same unreachable-after-
// validation contract the cluster layer panics on.
type Replay struct {
	rd    *Reader
	hdr   Header
	scale float64
	loop  bool

	eng  *sim.Engine
	sink func(*workload.Request)

	nextID   uint64
	stopAt   sim.Time
	offset   sim.Time // engine time = offset + iterBase + scale(record TS)
	iterBase sim.Time // accumulated loop shift (scaled wrap periods)
	started  bool
	pending  sim.Event

	// pool holds requests handed back via Release for reuse.
	pool sim.Pool[workload.Request]
}

// New builds a replay over an open reader. Bind must be called before
// Start.
func New(rd *Reader, opts Options) (*Replay, error) {
	if opts.TimeScale < 0 {
		return nil, fmt.Errorf("replay: negative time scale %g", opts.TimeScale)
	}
	if opts.Loop && rd.Header().LastTS <= 0 {
		return nil, fmt.Errorf("replay: cannot loop a trace whose last timestamp is %d — the wrap period would not advance time", rd.Header().LastTS)
	}
	scale := opts.TimeScale
	if scale == 0 {
		scale = 1
	}
	return &Replay{rd: rd, hdr: rd.Header(), scale: scale, loop: opts.Loop}, nil
}

// Header returns the trace header.
func (r *Replay) Header() Header { return r.hdr }

// Bind attaches the replay to an engine and sink and rewinds the trace
// to record 0, resetting all replay state; the request pool survives,
// so a rebound replay emits without allocating from the first arrival
// on.
// Bind is the reset path: a fleet rebuilt for the next sweep point
// rebinds the same Replay against its fresh engine.
func (r *Replay) Bind(eng *sim.Engine, sink func(*workload.Request)) error {
	if sink == nil {
		panic("replay: nil sink")
	}
	if err := r.rd.Rewind(); err != nil {
		return fmt.Errorf("replay: rewind: %w", err)
	}
	r.eng = eng
	r.sink = sink
	r.nextID = 0
	r.stopAt = 0
	r.offset = 0
	r.iterBase = 0
	r.started = false
	r.pending = sim.Event{}
	return nil
}

// arrivalTimer is the arrival chain's event: the replay seen as a
// sim.Handler, so the chain schedules without allocating.
type arrivalTimer Replay

// Fire emits the scheduled record unless the window is over, then
// schedules the next.
//
//apcvet:noalloc
func (t *arrivalTimer) Fire() {
	r := (*Replay)(t)
	r.pending = sim.Event{}
	if r.eng.Now() >= r.stopAt {
		// Window over: leave the record unconsumed for the next one.
		return
	}
	r.emit()
	r.scheduleNext()
}

// Generated returns how many records have been emitted.
func (r *Replay) Generated() uint64 { return r.nextID }

// Start begins (or restarts) replay until the given stop time,
// re-anchoring the unconsumed stream at the current instant. Restart
// semantics match the Generator's: any pending arrival is replaced, so
// exactly one arrival chain is ever live.
func (r *Replay) Start(until sim.Time) {
	r.pending.Cancel()
	r.pending = sim.Event{}
	if r.started {
		// The stream consumed exactly the previous window's span of
		// trace time (records past it were left unconsumed), so the
		// stream position is that window's stop in stream coordinates.
		streamPos := r.stopAt - r.offset
		r.offset = r.eng.Now() - streamPos
	} else {
		r.offset = r.eng.Now()
		r.started = true
	}
	r.stopAt = until
	r.scheduleNext()
}

// Stop cancels the pending arrival, ending replay immediately. The
// unconsumed remainder of the trace stays readable by a later Start.
func (r *Replay) Stop() {
	r.pending.Cancel()
	r.pending = sim.Event{}
}

// scheduleNext peeks the next record and schedules the arrival chain at
// its engine instant, wrapping the trace when looping. The record is
// not consumed until it emits.
//
//apcvet:noalloc
func (r *Replay) scheduleNext() {
	for {
		rec, err := r.rd.Peek()
		if err == io.EOF {
			if !r.loop || r.hdr.Count == 0 {
				return // trace exhausted: the chain simply ends
			}
			//apcvet:alloc loop wraparound: once per trace iteration, not per record
			if rerr := r.rd.Rewind(); rerr != nil {
				panic(fmt.Sprintf("replay: rewind for loop: %v", rerr)) //apcvet:alloc panic path: the message is built only when the program is about to die
			}
			r.iterBase += r.scaleTS(r.hdr.LastTS)
			continue
		}
		if err != nil {
			panic(fmt.Sprintf("replay: trace corrupted after validation: %v", err)) //apcvet:alloc panic path: the message is built only when the program is about to die
		}
		at := r.offset + r.iterBase + r.scaleTS(rec.TS)
		r.pending = r.eng.At(at, (*arrivalTimer)(r))
		return
	}
}

// emit consumes the scheduled record and delivers it.
//
//apcvet:noalloc
func (r *Replay) emit() {
	rec, err := r.rd.Next()
	if err != nil {
		// scheduleNext peeked this record successfully; only the stream
		// changing underneath the run gets here.
		panic(fmt.Sprintf("replay: trace corrupted after validation: %v", err)) //apcvet:alloc panic path: the message is built only when the program is about to die
	}
	req, _ := r.pool.Get()
	*req = workload.Request{
		ID:          r.nextID,
		Arrival:     r.eng.Now(),
		Service:     rec.Service,
		Conn:        int(rec.Conn),
		MemAccesses: int(rec.Mem),
	}
	r.nextID++
	r.sink(req)
}

// Release hands a request back for reuse by a later arrival, keeping
// steady-state replay allocation-free. Same contract as the
// Generator's: sink only, once per request, after last use.
//
//apcvet:poolput
//apcvet:noalloc
func (r *Replay) Release(req *workload.Request) {
	r.pool.Put(req)
}

// scaleTS maps a stream timestamp through the time scale. Scale 1 is
// the identity on the integer values — no float round trip — which is
// what the byte-for-byte replay≡synthetic parity contract relies on.
//
//apcvet:noalloc
func (r *Replay) scaleTS(ts sim.Time) sim.Time {
	if r.scale == 1 {
		return ts
	}
	return sim.Time(float64(ts) * r.scale)
}
