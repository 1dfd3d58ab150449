package workload

import (
	"testing"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/stats"
)

func TestClosedLoopBasics(t *testing.T) {
	eng := sim.NewEngine()
	var completions int
	cl := NewClosedLoopClient(eng, 4,
		stats.Deterministic{V: 10e-6}, stats.Deterministic{V: 90e-6},
		3, 1,
		func(r *Request, done sim.Handler) {
			// Serve instantly after the nominal service time.
			eng.Schedule(r.Service, sim.Func(func() {
				completions++
				done.Fire()
			}))
		})
	cl.Start()
	eng.Run(10 * sim.Millisecond)
	// Each thread cycles every 100us → ~100 per thread in 10ms.
	if cl.Completed() < 350 || cl.Completed() > 450 {
		t.Fatalf("completed %d, want ~400", cl.Completed())
	}
	if cl.Issued() < cl.Completed() {
		t.Fatal("issued < completed")
	}
	if cl.String() == "" {
		t.Fatal("description empty")
	}
}

// Closed-loop self-throttling: if the server slows down, the offered
// load falls instead of queueing unboundedly — the defining property.
func TestClosedLoopSelfThrottles(t *testing.T) {
	run := func(serverDelay sim.Duration) uint64 {
		eng := sim.NewEngine()
		cl := NewClosedLoopClient(eng, 8,
			stats.Deterministic{V: 10e-6}, stats.Deterministic{V: 50e-6},
			0, 2,
			func(r *Request, done sim.Handler) {
				eng.Schedule(r.Service+serverDelay, done)
			})
		cl.Start()
		eng.Run(20 * sim.Millisecond)
		return cl.Completed()
	}
	fast := run(0)
	slow := run(500 * sim.Microsecond)
	if slow >= fast/4 {
		t.Fatalf("slow server completed %d, fast %d — expected strong throttling", slow, fast)
	}
}

func TestClosedLoopStop(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewClosedLoopClient(eng, 2,
		stats.Deterministic{V: 5e-6}, stats.Deterministic{V: 5e-6},
		0, 3,
		func(r *Request, done sim.Handler) { eng.Schedule(r.Service, done) })
	cl.Start()
	eng.Run(sim.Millisecond)
	cl.Stop()
	at := cl.Issued()
	eng.Run(10 * sim.Millisecond)
	if cl.Issued() != at {
		t.Fatalf("requests issued after Stop: %d -> %d", at, cl.Issued())
	}
}

func TestClosedLoopConnStableAcrossThreads(t *testing.T) {
	eng := sim.NewEngine()
	conns := map[int]bool{}
	cl := NewClosedLoopClient(eng, 5,
		stats.Deterministic{V: 1e-6}, stats.Deterministic{V: 1e-6},
		0, 4,
		func(r *Request, done sim.Handler) {
			conns[r.Conn] = true
			eng.Schedule(r.Service, done)
		})
	cl.Start()
	eng.Run(sim.Millisecond)
	if len(conns) != 5 {
		t.Fatalf("saw %d connections, want 5 (one per thread)", len(conns))
	}
}

func TestClosedLoopPanics(t *testing.T) {
	eng := sim.NewEngine()
	for _, fn := range []func(){
		func() {
			NewClosedLoopClient(eng, 1, stats.Deterministic{V: 1}, stats.Deterministic{V: 1}, 0, 1, nil)
		},
		func() {
			NewClosedLoopClient(eng, 0, stats.Deterministic{V: 1}, stats.Deterministic{V: 1}, 0, 1,
				func(*Request, sim.Handler) {})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSysbenchOLTPShape(t *testing.T) {
	eng := sim.NewEngine()
	var svc stats.Summary
	cl := SysbenchOLTP(eng, 16, 1e-3, 5, func(r *Request, done sim.Handler) {
		svc.Add(float64(r.Service) / float64(sim.Second))
		if r.MemAccesses != 10 {
			t.Fatal("OLTP mem accesses wrong")
		}
		eng.Schedule(r.Service, done)
	})
	cl.Start()
	eng.Run(200 * sim.Millisecond)
	// OLTP mix mean ≈ 132us.
	if svc.Mean() < 100e-6 || svc.Mean() > 170e-6 {
		t.Fatalf("service mean %v, want ~132us", svc.Mean())
	}
	// 16 threads × ~1/(1ms+132us) ≈ 14.1k/s → ~2800 in 200ms.
	if cl.Completed() < 2200 || cl.Completed() > 3400 {
		t.Fatalf("completed %d, want ~2800", cl.Completed())
	}
}
