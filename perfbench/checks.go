package main

import (
	"fmt"
	"math"

	"agilepkgc/internal/experiments"
	"agilepkgc/internal/scenario"
)

// violation is one failed output check, pinned to the operating point
// it concerns (results[scenario].Points[point]).
type violation struct {
	scenario, point int
	msg             string
}

func (v violation) String() string { return v.msg }

// checkResults runs every output check on one repetition's results:
// request conservation, edge fan-out accounting and residency bounds on
// every point, plus the paper's Fig 7 claims on the paper workload.
func checkResults(w workloadDef, results []*scenario.Result) []violation {
	var out []violation
	for si, r := range results {
		for pi := range r.Points {
			p := &r.Points[pi]
			label := fmt.Sprintf("%s[%s=%g]", r.Scenario.Name, axisName(r.Axis), p.Axis)
			for _, msg := range checkPoint(&r.Scenario, p) {
				out = append(out, violation{si, pi, label + ": " + msg})
			}
		}
	}
	if w.paper {
		_, vs := paperFigures(results)
		out = append(out, vs...)
	}
	return out
}

func axisName(axis string) string {
	if axis == "" {
		return "point"
	}
	return axis
}

// checkPoint checks one operating point and returns what it violates.
func checkPoint(sc *scenario.Scenario, p *scenario.Point) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if p.Generated == 0 {
		fail("no requests generated")
	}
	if !(p.TotalWatts > 0) {
		fail("total watts %g not positive", p.TotalWatts)
	}
	unit("cc0", p.CC0Residency, fail)
	unit("cc1", p.CC1Residency, fail)
	unit("all-idle", p.AllIdle, fail)
	unit("all-idle-censored", p.AllIdleCensored, fail)
	unitPtr("pc1a", p.PC1AResidency, fail)
	for _, s := range p.Servers {
		unit(fmt.Sprintf("server %d cc0", s.Index), s.CC0Residency, fail)
		unit(fmt.Sprintf("server %d all-idle", s.Index), s.AllIdle, fail)
		unitPtr(fmt.Sprintf("server %d pc1a", s.Index), s.PC1AResidency, fail)
	}
	for _, r := range p.Racks {
		unit(fmt.Sprintf("rack %d all-idle", r.Index), r.AllIdle, fail)
		unitPtr(fmt.Sprintf("rack %d pc1a", r.Index), r.PC1AResidency, fail)
	}

	switch {
	case len(p.Tiers) > 0:
		bad = append(bad, checkGraph(sc, p)...)
	case sc.Cluster != nil && faultsOn(sc.Cluster.Faults):
		if p.OK+p.Failed+p.Shed != p.Generated {
			fail("ok %d + failed %d + shed %d != generated %d", p.OK, p.Failed, p.Shed, p.Generated)
		}
		if p.Dropped != 0 {
			fail("%d requests still in flight after the drain", p.Dropped)
		}
	default:
		if p.Served+p.Dropped != p.Generated {
			fail("served %d + dropped %d != generated %d", p.Served, p.Dropped, p.Generated)
		}
		if len(p.Servers) > 0 {
			var routed uint64
			for _, s := range p.Servers {
				routed += s.Routed
			}
			if routed != p.Generated {
				fail("routed %d != generated %d", routed, p.Generated)
			}
		}
	}
	return bad
}

// checkGraph checks a multi-tier point: per-tier conservation (the
// fault identity on tiers with faults), the client-side identity, each
// edge's fan-out accounting, and that every backend request a tier saw
// was issued by one of its in-edges.
func checkGraph(sc *scenario.Scenario, p *scenario.Point) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if len(p.Tiers) != len(sc.Tiers) {
		return []string{fmt.Sprintf("%d tier measurements for %d tiers", len(p.Tiers), len(sc.Tiers))}
	}
	tierIdx := make(map[string]int, len(p.Tiers))
	issuedInto := make([]uint64, len(p.Tiers))
	for ti := range p.Tiers {
		tierIdx[p.Tiers[ti].Name] = ti
	}
	// okResolved is how many of a tier's requests resolved successfully:
	// those are the ones its out-edges look up.
	okResolved := make([]uint64, len(p.Tiers))
	for ti := range p.Tiers {
		t := &p.Tiers[ti]
		m := &t.Fleet
		unit(t.Name+" cc0", m.CC0Residency, fail)
		unit(t.Name+" all-idle", m.AllIdle, fail)
		unitPtr(t.Name+" pc1a", m.PC1AResidency, fail)
		for _, s := range m.Servers {
			unit(fmt.Sprintf("%s server %d all-idle", t.Name, s.Index), s.AllIdle, fail)
		}
		if faultsOn(sc.Tiers[ti].Faults) {
			if m.OK+m.Failed+m.Shed != m.Generated {
				fail("tier %s: ok %d + failed %d + shed %d != generated %d", t.Name, m.OK, m.Failed, m.Shed, m.Generated)
			}
			okResolved[ti] = m.OK
		} else {
			if m.Served+m.Dropped != m.Generated {
				fail("tier %s: served %d + dropped %d != generated %d", t.Name, m.Served, m.Dropped, m.Generated)
			}
			okResolved[ti] = m.Served
		}
		if m.Dropped != 0 {
			fail("tier %s: %d requests still in flight after the drain", t.Name, m.Dropped)
		}
	}
	for _, e := range p.Edges {
		if e.Issued != uint64(e.Fanout)*e.Misses {
			fail("edge %s->%s: issued %d != fanout %d x misses %d", e.From, e.To, e.Issued, e.Fanout, e.Misses)
		}
		if e.Hits+e.Misses != e.Lookups {
			fail("edge %s->%s: hits %d + misses %d != lookups %d", e.From, e.To, e.Hits, e.Misses, e.Lookups)
		}
		from, okFrom := tierIdx[e.From]
		to, okTo := tierIdx[e.To]
		if !okFrom || !okTo {
			fail("edge %s->%s names an unknown tier", e.From, e.To)
			continue
		}
		if e.Lookups != okResolved[from] {
			fail("edge %s->%s: lookups %d != successful resolutions %d in %s", e.From, e.To, e.Lookups, okResolved[from], e.From)
		}
		issuedInto[to] += e.Issued
	}
	for ti := 1; ti < len(p.Tiers); ti++ {
		if issuedInto[ti] != p.Tiers[ti].Fleet.Generated {
			fail("tier %s: generated %d != issued into it %d", p.Tiers[ti].Name, p.Tiers[ti].Fleet.Generated, issuedInto[ti])
		}
	}
	if c := p.Client; c == nil {
		fail("no client view on a multi-tier point")
	} else if c.Served+c.Failed != p.Generated {
		fail("client served %d + failed %d != generated %d", c.Served, c.Failed, p.Generated)
	}
	return bad
}

// unit reports a residency outside [0,1] through fail.
func unit(name string, x float64, fail func(string, ...any)) {
	if !(x >= 0 && x <= 1) {
		fail("%s residency %g outside [0,1]", name, x)
	}
}

// unitPtr is unit for the optional PC1A residencies (nil without an
// APMU).
func unitPtr(name string, x *float64, fail func(string, ...any)) {
	if x != nil {
		unit(name, *x, fail)
	}
}

// faultsOn mirrors the scenario layer's rule for when a faults block
// attaches the fault layer at all.
func faultsOn(f *scenario.Faults) bool {
	return f != nil && (f.MTBFUS > 0 || f.BrownoutMTBFUS > 0 || f.TorPartitionMTBFUS > 0 ||
		f.RequestTimeoutUS > 0 || f.MaxRetries > 0 || f.HedgeDelayUS > 0)
}

// paperComparison is the paper workload's Fig 7(b,c) reading.
type paperComparison struct {
	qps     []float64
	savings []float64 // 1 - W(CPC1A)/W(Cshallow) per QPS point
	// errPP is the largest |simulated - published| saving over the
	// paper's 4K and 50K rows, in percentage points.
	errPP float64
	// impactPct is the worst latency impact, in percent.
	impactPct float64
}

// paperFigures pairs the Cshallow and CPC1A sweeps point by point and
// checks the paper's claims on them: the PC1A saving is positive at
// every rate and falls as the rate rises, and the mean-latency impact
// stays under the paper's 0.1% bound.
func paperFigures(results []*scenario.Result) (paperComparison, []violation) {
	var pc paperComparison
	sh, ap := -1, -1
	for i, r := range results {
		switch r.Scenario.Config {
		case "Cshallow":
			sh = i
		case "CPC1A":
			ap = i
		}
	}
	if sh < 0 || ap < 0 || len(results[sh].Points) != len(results[ap].Points) || len(results[ap].Points) == 0 {
		return pc, []violation{{0, -1, "paper: needs matching Cshallow and CPC1A sweeps"}}
	}
	var bad []violation
	fail := func(pi int, format string, args ...any) {
		bad = append(bad, violation{ap, pi, fmt.Sprintf("paper: "+format, args...)})
	}
	errPP := 0.0
	rows := 0
	for pi := range results[ap].Points {
		s, a := &results[sh].Points[pi], &results[ap].Points[pi]
		if s.Axis != a.Axis {
			fail(pi, "point %d: Cshallow qps %g vs CPC1A qps %g", pi, s.Axis, a.Axis)
			continue
		}
		save := (s.TotalWatts - a.TotalWatts) / s.TotalWatts
		impact := (a.MeanLatency - s.MeanLatency) / s.MeanLatency
		pc.qps = append(pc.qps, a.Axis)
		pc.savings = append(pc.savings, save)
		if !(save > 0) {
			fail(pi, "CPC1A saving %.4f at %g QPS is not positive", save, a.Axis)
		}
		if n := len(pc.savings); n > 1 && !(save < pc.savings[n-2]) {
			fail(pi, "CPC1A saving %.4f at %g QPS does not fall below %.4f at %g QPS", save, a.Axis, pc.savings[n-2], pc.qps[n-2])
		}
		if !(impact < experiments.PaperFig7MaxImpact) {
			fail(pi, "latency impact %.4f%% at %g QPS is not under %.1f%%", impact*100, a.Axis, experiments.PaperFig7MaxImpact*100)
		}
		pc.impactPct = math.Max(pc.impactPct, impact*100)
		var published float64
		switch a.Axis {
		case 4000:
			published = experiments.PaperFig7Save4K
		case 50000:
			published = experiments.PaperFig7Save50K
		default:
			continue
		}
		rows++
		errPP = math.Max(errPP, math.Abs(save-published)*100)
	}
	if rows != 2 {
		fail(-1, "the sweep must include the paper's 4K and 50K rows")
	}
	pc.errPP = errPP
	return pc, bad
}
