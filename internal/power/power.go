// Package power implements piecewise-constant energy accounting for the
// simulated SoC, mirroring what Intel's RAPL interface exposes on real
// hardware: cumulative energy counters for the Package (SoC) and DRAM
// domains.
//
// Every modeled hardware component owns one or more Channels. A component
// calls Channel.Set whenever its power draw changes (which, in a
// discrete-event simulation, happens only at events); the meter
// integrates watts × elapsed-virtual-time into joules exactly, with no
// sampling error. This is the measurement substrate for every power
// number the experiments report.
package power

import (
	"fmt"

	"agilepkgc/internal/sim"
)

// Domain identifies a RAPL-like accounting domain.
type Domain int

const (
	// Package covers everything on the processor die: cores, CLM, IOs,
	// PLLs, PMUs. Matches RAPL.Package.
	Package Domain = iota
	// DRAM covers the memory devices. Matches RAPL.DRAM.
	DRAM
	numDomains
)

// String returns the domain name.
func (d Domain) String() string {
	switch d {
	case Package:
		return "Package"
	case DRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// Channel is one component's contribution to a domain. Channels are
// created via Meter.Channel and must not be copied.
type Channel struct {
	// eng duplicates the meter's engine: flush runs on every power
	// transition of every component, and the direct pointer saves it a
	// dependent load.
	eng        *sim.Engine
	name       sim.Name
	domain     Domain
	watts      float64
	lastUpdate sim.Time
	joules     float64
}

// Set changes the channel's draw to watts, accounting the energy consumed
// at the previous level first.
func (c *Channel) Set(watts float64) {
	if watts < 0 {
		panic(fmt.Sprintf("power: negative power %g on %s", watts, c.name))
	}
	c.flush()
	c.watts = watts
}

// AddEnergy deposits e joules into the channel directly: the impulse
// form of Set, for events that carry energy but no duration (a DRAM
// access burst). Prior draw is accounted first, exactly as Set does,
// and the draw itself is unchanged. This replaces the old pattern of
// raising the draw by e/1ns for one nanosecond of virtual time, which
// cost an engine event and three Set calls per impulse to deposit the
// same energy.
func (c *Channel) AddEnergy(e float64) {
	c.flush()
	c.joules += e
}

// Watts returns the current draw.
func (c *Channel) Watts() float64 { return c.watts }

// Name returns the channel's registered name.
func (c *Channel) Name() string { return c.name.String() }

// Energy returns the channel's cumulative energy in joules up to the
// current virtual time.
func (c *Channel) Energy() float64 {
	c.flush()
	return c.joules
}

func (c *Channel) flush() {
	now := c.eng.Now()
	if now > c.lastUpdate {
		c.joules += c.watts * (now - c.lastUpdate).Seconds()
		c.lastUpdate = now
	}
}

// Meter owns all channels and answers domain-level energy queries.
type Meter struct {
	eng      *sim.Engine
	channels []*Channel // in registration order
	// slab is the storage Channel hands channels out of. A full slab is
	// replaced, never grown, so every channel handed out stays put.
	slab []Channel
}

// slabChannels is the channel count one slab holds: a whole SoC's (30
// with the default configuration), so a machine's meter allocates its
// channels at once.
const slabChannels = 32

// Init binds the meter to the simulation engine with no channels, and
// returns m. The zero Meter is ready for Init. A meter
// that registered channels before keeps their storage: its next
// registrations reuse those channels in registration order, so
// rebuilding a machine of the same shape allocates nothing here. The
// channels handed out before Init must no longer be used.
func (m *Meter) Init(eng *sim.Engine) *Meter {
	m.eng = eng
	m.channels = m.channels[:0]
	return m
}

// Channel registers a new channel with a unique name in the given domain,
// starting at zero watts. Registering a duplicate name panics — the SoC
// wiring is static and a duplicate indicates a construction bug.
func (m *Meter) Channel(name sim.Name, domain Domain) *Channel {
	if domain < 0 || domain >= numDomains {
		panic(fmt.Sprintf("power: invalid domain %d", domain))
	}
	for _, c := range m.channels {
		if c.name.Equal(name) {
			panic(fmt.Sprintf("power: duplicate channel %q", name))
		}
	}
	// The list's spare capacity still holds, in order, the channels
	// registered before the last Init: reuse the next one.
	n := len(m.channels)
	var c *Channel
	if n < cap(m.channels) {
		c = m.channels[:n+1][n]
	}
	if c == nil {
		if len(m.slab) == cap(m.slab) {
			m.slab = make([]Channel, 0, slabChannels)
			m.channels = append(make([]*Channel, 0, n+slabChannels), m.channels...)
		}
		m.slab = m.slab[:len(m.slab)+1]
		c = &m.slab[len(m.slab)-1]
	}
	*c = Channel{eng: m.eng, name: name, domain: domain, lastUpdate: m.eng.Now()}
	m.channels = append(m.channels, c)
	return c
}

// Lookup returns the channel with the given name, or nil. It scans the
// channels, matching each stored name without composing it: a machine
// has a few dozen, and lookups happen at setup.
func (m *Meter) Lookup(name string) *Channel {
	for _, c := range m.channels {
		if c.name.Is(name) {
			return c
		}
	}
	return nil
}

// Power returns the instantaneous draw of a domain in watts.
func (m *Meter) Power(d Domain) float64 {
	var w float64
	for _, c := range m.channels {
		if c.domain == d {
			w += c.watts
		}
	}
	return w
}

// TotalPower returns the instantaneous SoC+DRAM draw in watts.
func (m *Meter) TotalPower() float64 { return m.Power(Package) + m.Power(DRAM) }

// Energy returns cumulative joules consumed by a domain up to the current
// virtual time.
func (m *Meter) Energy(d Domain) float64 {
	var j float64
	for _, c := range m.channels {
		if c.domain == d {
			j += c.Energy()
		}
	}
	return j
}

// Snapshot captures the cumulative energy counters at the current time so
// that a later Average call measures only the interval in between —
// exactly how RAPL is used in practice (read counter, run workload, read
// counter, divide by wall time).
type Snapshot struct {
	meter *Meter
	at    sim.Time
	e     [numDomains]float64
}

// Snapshot reads the counters now.
func (m *Meter) Snapshot() Snapshot {
	return Snapshot{
		meter: m,
		at:    m.eng.Now(),
		e:     [numDomains]float64{m.Energy(Package), m.Energy(DRAM)},
	}
}

// IntervalEnergy returns joules consumed by domain d since the snapshot.
func (s Snapshot) IntervalEnergy(d Domain) float64 {
	return s.meter.Energy(d) - s.e[d]
}

// AveragePower returns the mean watts of domain d since the snapshot.
// With no elapsed time it returns the instantaneous power.
func (s Snapshot) AveragePower(d Domain) float64 {
	dt := (s.meter.eng.Now() - s.at).Seconds()
	if dt <= 0 {
		return s.meter.Power(d)
	}
	return s.IntervalEnergy(d) / dt
}

// AverageTotal returns mean SoC+DRAM watts since the snapshot.
func (s Snapshot) AverageTotal() float64 {
	return s.AveragePower(Package) + s.AveragePower(DRAM)
}

// Elapsed returns the virtual time since the snapshot.
func (s Snapshot) Elapsed() sim.Duration { return s.meter.eng.Now() - s.at }
