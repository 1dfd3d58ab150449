package core

import (
	"testing"
	"testing/quick"

	"agilepkgc/internal/cpu"
	"agilepkgc/internal/pmu"
	"agilepkgc/internal/sim"
	"agilepkgc/internal/stats"
)

// Randomized event fuzzing: arbitrary interleavings of core work, IO
// transactions, and timer pulses at nanosecond-scale spacings must never
// wedge the APMU — after quiescing, the system is back in PC1A with a
// consistent device configuration.
func TestFuzzAPMURandomEvents(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		r := newRig(4)
		rng := stats.NewRNG(seed)
		events := int(n%300) + 50
		for i := 0; i < events; i++ {
			gap := sim.Duration(rng.Uint64() % 3000) // 0-3us between events
			r.eng.Run(r.eng.Now() + gap)
			switch rng.Uint64() % 4 {
			case 0:
				core := r.cores[rng.Uint64()%4]
				core.Enqueue(cpu.Work{Duration: sim.Duration(rng.Uint64()%5000) + 100})
			case 1:
				l := r.links[rng.Uint64()%uint64(len(r.links))]
				if l.Idle() {
					l.StartTransaction()
					dur := sim.Duration(rng.Uint64()%500) + 10
					r.eng.Schedule(dur, sim.Func(l.EndTransaction))
				}
			case 2:
				r.gpmu.FireTimer()
			case 3:
				// MC traffic while (possibly) in CKE-off.
				r.mcs[rng.Uint64()%2].Access(nil)
			}
		}
		// Quiesce.
		r.eng.Run(r.eng.Now() + 10*sim.Millisecond)
		if r.apmu.State() != pmu.PC1A {
			t.Logf("seed %d: state %v after quiesce", seed, r.apmu.State())
			return false
		}
		if !r.clm.AtRetentionVoltage() || !r.clm.Gated() {
			t.Logf("seed %d: CLM not settled", seed)
			return false
		}
		if !r.clm.PLL().Locked() {
			return false
		}
		for _, l := range r.links {
			if !l.InL0s().Level() {
				t.Logf("seed %d: link %s not in standby", seed, l.Name())
				return false
			}
		}
		// Residency bookkeeping consistent.
		var total sim.Duration
		for _, s := range []pmu.PkgState{pmu.PC0, pmu.ACC1, pmu.PC1A} {
			total += r.apmu.Residency(s)
		}
		return total <= r.eng.Now() && total >= r.eng.Now()-sim.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Back-to-back wake/entry races: a core interrupt landing in every
// distinct phase of the entry flow (ACC1 wait, L0s window, FSM slot,
// ramp) must always unwind cleanly.
func TestWakeInEveryEntryPhase(t *testing.T) {
	for _, delay := range []sim.Duration{
		1 * sim.Nanosecond,   // ACC1, links still counting down
		8 * sim.Nanosecond,   // mid L0s window
		17 * sim.Nanosecond,  // between InL0s and FSM action
		19 * sim.Nanosecond,  // inside the FSM slot
		25 * sim.Nanosecond,  // just after PC1A, ramp starting
		100 * sim.Nanosecond, // mid-ramp
		200 * sim.Nanosecond, // ramp done, settled PC1A
	} {
		r := newRig(2)
		// Get to a clean PC0→ACC1 edge first.
		r.eng.Run(10 * sim.Microsecond)
		r.cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
		r.eng.Run(r.eng.Now() + 10*sim.Microsecond) // settled in PC1A again

		// Cycle once more and interrupt at the chosen phase offset from
		// the ACC1 entry.
		var acc1At sim.Time = -1
		r.apmu.OnTransition(func(old, new pmu.PkgState) {
			if new == pmu.ACC1 && acc1At < 0 {
				acc1At = r.eng.Now()
				r.eng.Schedule(delay, sim.Func(func() {
					r.cores[1].Enqueue(cpu.Work{Duration: sim.Microsecond})
				}))
			}
		})
		r.cores[0].Enqueue(cpu.Work{Duration: sim.Microsecond})
		r.eng.Run(r.eng.Now() + sim.Millisecond)

		if r.apmu.State() != pmu.PC1A {
			t.Errorf("delay %v: state %v after recovery, want PC1A", delay, r.apmu.State())
		}
		if !r.clm.AtRetentionVoltage() {
			t.Errorf("delay %v: CLM not at retention after recovery", delay)
		}
	}
}
