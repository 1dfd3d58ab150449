package cluster

import (
	"testing"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/workload"
)

// slabAllocs returns what n Gets from a bare pool of T allocate: the
// slabs alone.
func slabAllocs[T any](n int) float64 {
	var p sim.Pool[T]
	return testing.AllocsPerRun(1, func() {
		p = sim.Pool[T]{}
		for i := 0; i < n; i++ {
			p.Get()
		}
	})
}

// TestFreshRecordsCostOnlySlabs pins that the balancer's pooled records
// cost nothing beyond their share of the pools' slabs: each record is
// its own event handler (or, for a logical request's two timers, is
// converted to one), so binding a fresh record allocates nothing. n
// fresh records of each kind allocate exactly what n Gets from a bare
// pool of the same type do.
func TestFreshRecordsCostOnlySlabs(t *testing.T) {
	f, err := New(resetConfig(resetCases[3].cfg), workload.Memcached(10000), 1)
	if err != nil {
		t.Fatal(err)
	}
	fs, m, req := f.flt, f.members[0], &workload.Request{}
	if fs == nil {
		t.Fatal("the fault case attached no fault layer")
	}
	for _, n := range []int{1, 8, 9, 100, 1000} {
		for _, c := range []struct {
			name string
			want float64
			get  func()
		}{
			{"routed", slabAllocs[routedReq](n), func() {
				f.routed = sim.Pool[routedReq]{}
				for i := 0; i < n; i++ {
					f.newRouted(m, req)
				}
			}},
			{"logical", slabAllocs[logicalReq](n), func() {
				fs.logicals = sim.Pool[logicalReq]{}
				for i := 0; i < n; i++ {
					fs.newLogical()
				}
			}},
			{"attempt", slabAllocs[attempt](n), func() {
				fs.attempts = sim.Pool[attempt]{}
				for i := 0; i < n; i++ {
					fs.newAttempt(nil, m)
				}
			}},
		} {
			if got := testing.AllocsPerRun(1, c.get); got != c.want {
				t.Errorf("%d fresh %s records: %v allocations, want the pool's %v", n, c.name, got, c.want)
			}
		}
	}
}
