package server

import (
	"testing"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/soc"
	"agilepkgc/internal/workload"
)

// TestFreshInflightCostsOnlySlabs pins that a fresh in-flight record
// costs nothing beyond its share of the pool's slabs: it is its own
// event handler, so binding it allocates nothing. n fresh records
// allocate exactly what n Gets from a bare pool of the same type do.
func TestFreshInflightCostsOnlySlabs(t *testing.T) {
	s := NewClosedLoop(soc.New(soc.DefaultConfig(soc.CPC1A)), DefaultConfig())
	req := &workload.Request{}
	for _, n := range []int{1, 8, 9, 100, 1000} {
		var bare sim.Pool[inflight]
		want := testing.AllocsPerRun(1, func() {
			bare = sim.Pool[inflight]{}
			for i := 0; i < n; i++ {
				bare.Get()
			}
		})
		got := testing.AllocsPerRun(1, func() {
			s.pool = sim.Pool[inflight]{}
			for i := 0; i < n; i++ {
				s.newInflight(req, nil)
			}
		})
		if got != want {
			t.Errorf("%d fresh in-flight records: %v allocations, want the pool's %v", n, got, want)
		}
	}
}
