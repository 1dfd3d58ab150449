package experiments

import (
	"runtime"
	"sync"
)

// This file is the sweep fan-out layer. Every sweep-style experiment
// (Fig5–Fig9, Sensitivity, Batching, Remote) evaluates a list of
// independent (config, load) points, and each point runs on a machine
// (and engine) reset for it alone, with its own seed — there is no
// shared mutable state between points. Sweep and SweepWith exploit
// that: runPoints fans the points across a bounded worker pool and
// writes each result into its slot by index, so the returned slice is
// in deterministic point order regardless of which worker finished
// first or in what order. Because every point is a pure function of
// (Options, point), a parallel sweep is bit-identical to the serial one
// with the same seed.

// Parallelism resolves an Options.Parallelism knob to a worker count:
// values above 1 are used as-is, 0 and 1 mean serial, and negative
// means one worker per available CPU.
func (o Options) parallelism() int {
	switch {
	case o.Parallelism < 0:
		return runtime.GOMAXPROCS(0)
	case o.Parallelism == 0:
		return 1
	default:
		return o.Parallelism
	}
}

// runPoints evaluates fn for points 0..n-1 on at most par concurrent
// goroutines and returns the results in index order; with par <= 1 it
// runs inline with no goroutines at all. newS builds one scratch value
// per worker (exactly one for serial runs), which fn receives alongside
// each point index, and release gets it back when the sweep ends. Scratch
// reuse is what lets sweeps recycle heavy per-point state (a fleet, its
// engine arena) without sharing anything between workers.
//
// Worker w runs points w, w+par, w+2·par, …; every scratch is made before
// any worker starts, in worker order, and released after all finish, in
// reverse order. So which worker runs which point, and which of the
// keep's graphs each worker draws, never depends on thread timing, and
// the next identical sweep draws every worker the graphs it had (the keep
// hands out the newest first): a machine regrows its pools and run
// queues only for points larger than it served before, the same ones in
// every run.
func runPoints[S, T any](par, n int, newS func() S, release func(S), fn func(s S, i int) T) []T {
	out := make([]T, n)
	if par > n {
		par = n
	}
	if par <= 1 {
		s := newS()
		for i := range out {
			out[i] = fn(s, i)
		}
		release(s)
		return out
	}
	workers := par // never reassigned, so the goroutines share it off the heap
	ss := make([]S, workers)
	for w := range ss {
		ss[w] = newS()
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w, s := range ss {
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				out[i] = fn(s, i)
			}
		}()
	}
	wg.Wait()
	for w := workers - 1; w >= 0; w-- {
		release(ss[w])
	}
	return out
}

// Sweep evaluates fn over points with the parallelism configured in
// opt, returning results in point order. It is the one-liner for
// sweeps whose points need no per-worker scratch:
//
//	r.SlewPts = Sweep(opt, []float64{1, 2, 4, 8}, func(mv float64) SlewPoint {...})
func Sweep[P, T any](opt Options, points []P, fn func(P) T) []T {
	return runPoints(opt.parallelism(), len(points),
		func() struct{} { return struct{}{} },
		func(struct{}) {},
		func(_ struct{}, i int) T { return fn(points[i]) })
}

// SweepWith is Sweep with per-worker scratch: newS runs once per worker
// (once total for serial sweeps), fn receives that worker's scratch
// alongside each point, and release hands the scratch back when the
// sweep ends. The machine sweeps thread *cluster.GraphReuse values
// through here: a worker's consecutive points reset one graph instead of
// building a new one, its first graph comes from the process-wide keep
// when an earlier sweep left one of its shape there, and release returns
// the graph to the keep for the next sweep. Because a reset graph is
// byte-identical to a fresh build, every point remains a pure function
// of (Options, point) and parallel sweeps stay bit-identical to serial
// ones.
func SweepWith[S, P, T any](opt Options, points []P, newS func() S, release func(S), fn func(S, P) T) []T {
	return runPoints(opt.parallelism(), len(points), newS, release, func(s S, i int) T {
		return fn(s, points[i])
	})
}
