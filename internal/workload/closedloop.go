package workload

import (
	"fmt"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/stats"
)

// ClosedLoopClient models a fixed population of synchronous client
// threads (sysbench threads, one mutilate connection in closed mode):
// each thread issues a request, waits for the response, thinks for a
// sampled delay, and repeats. Unlike the open-loop Generator, offered
// load self-throttles under server slowdown — the behaviour that
// distinguishes benchmark harnesses from production traffic.
//
// The server side signals completion by firing the done handler passed
// with each request.
type ClosedLoopClient struct {
	eng     *sim.Engine
	rng     *stats.RNG
	service stats.Dist
	think   stats.Dist
	threads int
	memAcc  int

	sink func(*Request, sim.Handler)

	nextID    uint64
	completed uint64
	stopped   bool
}

// NewClosedLoopClient builds a client with the given thread count. sink
// receives each request plus a completion handler the server must fire
// when the response is sent.
func NewClosedLoopClient(eng *sim.Engine, threads int, service, think stats.Dist,
	memAccesses int, seed uint64, sink func(*Request, sim.Handler)) *ClosedLoopClient {
	if sink == nil {
		panic("workload: nil sink")
	}
	if threads <= 0 {
		panic("workload: non-positive thread count")
	}
	return &ClosedLoopClient{
		eng:     eng,
		rng:     stats.NewRNG(seed),
		service: service,
		think:   think,
		threads: threads,
		memAcc:  memAccesses,
		sink:    sink,
	}
}

// Start launches every thread with an initial desynchronizing think.
func (c *ClosedLoopClient) Start() {
	for i := 0; i < c.threads; i++ {
		conn := i
		c.eng.Schedule(c.sampleThink(), sim.Func(func() { c.issue(conn) }))
	}
}

// Stop prevents threads from issuing further requests after their
// current one completes.
func (c *ClosedLoopClient) Stop() { c.stopped = true }

// Completed returns the number of finished requests.
func (c *ClosedLoopClient) Completed() uint64 { return c.completed }

// Issued returns the number of issued requests.
func (c *ClosedLoopClient) Issued() uint64 { return c.nextID }

func (c *ClosedLoopClient) sampleThink() sim.Duration {
	d := sim.Duration(c.think.Sample(c.rng) * float64(sim.Second))
	if d < 0 {
		d = 0
	}
	return d
}

func (c *ClosedLoopClient) issue(conn int) {
	if c.stopped {
		return
	}
	req := &Request{
		ID:          c.nextID,
		Arrival:     c.eng.Now(),
		Service:     sim.Duration(c.service.Sample(c.rng) * float64(sim.Second)),
		Conn:        conn,
		MemAccesses: c.memAcc,
	}
	c.nextID++
	c.sink(req, sim.Func(func() {
		c.completed++
		if c.stopped {
			return
		}
		c.eng.Schedule(c.sampleThink(), sim.Func(func() { c.issue(conn) }))
	}))
}

// String describes the client.
func (c *ClosedLoopClient) String() string {
	return fmt.Sprintf("closed-loop(%d threads, service %v, think %v)",
		c.threads, c.service, c.think)
}

// SysbenchOLTP returns a closed-loop MySQL client shaped like the
// paper's sysbench setup: `threads` synchronous connections running the
// OLTP mix with a think time that sets the offered load.
func SysbenchOLTP(eng *sim.Engine, threads int, thinkMean float64, seed uint64,
	sink func(*Request, sim.Handler)) *ClosedLoopClient {
	return NewClosedLoopClient(eng, threads, mysqlService,
		stats.Exponential{MeanV: thinkMean}, 10, seed, sink)
}
