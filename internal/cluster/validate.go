package cluster

import (
	"fmt"
	"strings"

	"agilepkgc/internal/sim"
	"agilepkgc/internal/workload"
)

// Field names a configuration setting by its Go path below a
// TierConfig's Cluster or an EdgeConfig ("P99Target", "Faults.MTTR",
// "Topology.Racks", "HitRatio").
type Field string

// ConfigError is one broken configuration rule. Tier and Edge locate
// the element it belongs to (-1 when it belongs to neither), Field is
// the offending setting (empty when the rule is about the element as a
// whole), and Format states the rule: its first verb takes the
// offending field's name, and the Args follow it.
type ConfigError struct {
	Tier, Edge int
	Field      Field
	Format     string
	Args       []any
}

func ruleErr(field Field, format string, args ...any) error {
	return &ConfigError{Tier: -1, Edge: -1, Field: field, Format: format, Args: args}
}

// at stamps the tier or edge a rule failure belongs to.
func at(err error, tier, edge int) error {
	if ce, ok := err.(*ConfigError); ok {
		ce.Tier, ce.Edge = tier, edge
	}
	return err
}

func (e *ConfigError) Error() string {
	elem, subject := "", string(e.Field)
	if e.Tier >= 0 {
		elem = fmt.Sprintf("tier %d", e.Tier)
	} else if e.Edge >= 0 {
		elem = fmt.Sprintf("edge %d", e.Edge)
	}
	if subject == "" {
		elem, subject = "", elem
	} else if elem != "" {
		elem += ": "
	}
	return "cluster: " + elem + e.Render(subject, func(f Field) string { return string(f) })
}

// Render states the rule in another vocabulary: subject names the
// offending field or element, and name maps each other Field among the
// Args, of which Render prints the last dot-separated segment.
func (e *ConfigError) Render(subject string, name func(Field) string) string {
	args := append(make([]any, 0, 1+len(e.Args)), subject)
	for _, a := range e.Args {
		if f, ok := a.(Field); ok {
			n := name(f)
			a = n[strings.LastIndexByte(n, '.')+1:]
		}
		args = append(args, a)
	}
	return fmt.Sprintf(e.Format, args...)
}

// setting pairs a duration with its field, for the negative checks.
type setting struct {
	field Field
	d     sim.Duration
}

// firstNegative rejects the first negative setting, in the order given,
// so the field reported is the same on every run.
func firstNegative(ss ...setting) error {
	for _, s := range ss {
		if s.d < 0 {
			return ruleErr(s.field, "negative %s")
		}
	}
	return nil
}

// Fits checks that t has at least one rack and one server per rack and
// shapes exactly n servers.
func (t Topology) Fits(n int) error {
	if t.Racks < 1 || t.ServersPerRack < 1 {
		return ruleErr("Topology", "%s %v needs at least 1 rack and 1 server per rack", t)
	}
	if t.Servers() != n {
		return ruleErr("Topology", "%s %v shapes %d servers but the fleet has %d members", t, t.Servers(), n)
	}
	return nil
}

// check validates the fleet's settings, reading neither its Members
// nor a spec.
func (cfg Config) check() error {
	if err := firstNegative(setting{"P99Target", cfg.P99Target}, setting{"TorLatency", cfg.TorLatency},
		setting{"DrainHold", cfg.DrainHold}, setting{"FeedbackEpoch", cfg.FeedbackEpoch}); err != nil {
		return err
	}
	switch {
	case !cfg.Policy.known():
		return ruleErr("Policy", "unknown %s %v", cfg.Policy)
	case cfg.Policy.Packs() && cfg.P99Target == 0:
		return ruleErr("P99Target", "%[2]v needs %[1]s > 0", cfg.Policy)
	}
	if t := cfg.Topology; t != (Topology{}) {
		if err := t.Fits(t.Servers()); err != nil { // the shape alone
			return err
		}
	}
	return cfg.Faults.validate(cfg.Topology)
}

// admit validates what NewOn reads beyond the settings — the spec and
// the members' fit to the topology — and returns the topology, Flat(n)
// standing for the zero value.
func (cfg Config) admit(spec workload.Spec) (Topology, error) {
	if spec.Arrivals == nil {
		return Topology{}, ruleErr("Spec", "%s needs an arrival process — a fleet takes open-loop workloads only")
	}
	topo := cfg.Topology
	if topo == (Topology{}) {
		topo = Flat(len(cfg.Members))
	}
	return topo, topo.Fits(len(cfg.Members))
}

// validate rejects incoherent fault configurations before they reach
// the engine.
func (fc FaultConfig) validate(topo Topology) error {
	if err := firstNegative(
		setting{"Faults.MTBF", fc.MTBF}, setting{"Faults.MTTR", fc.MTTR},
		setting{"Faults.BrownoutMTBF", fc.BrownoutMTBF}, setting{"Faults.BrownoutDuration", fc.BrownoutDuration},
		setting{"Faults.TorPartitionMTBF", fc.TorPartitionMTBF}, setting{"Faults.TorPartitionDuration", fc.TorPartitionDuration},
		setting{"Faults.RequestTimeout", fc.RequestTimeout}, setting{"Faults.HedgeDelay", fc.HedgeDelay},
	); err != nil {
		return err
	}
	switch {
	case fc.MaxRetries < 0:
		return ruleErr("Faults.MaxRetries", "negative %s")
	case fc.BrownoutFactor < 0:
		return ruleErr("Faults.BrownoutFactor", "negative %s")
	case fc.MTBF > 0 && fc.MTTR <= 0:
		return ruleErr("Faults.MTBF", "%s needs %s > 0 — a crash with no repair process never ends", Field("Faults.MTTR"))
	case fc.BrownoutMTBF > 0 && (fc.BrownoutDuration <= 0 || fc.BrownoutFactor <= 1):
		return ruleErr("Faults.BrownoutMTBF", "%s needs %s > 0 and %s > 1",
			Field("Faults.BrownoutDuration"), Field("Faults.BrownoutFactor"))
	case fc.TorPartitionMTBF > 0 && fc.TorPartitionDuration <= 0:
		return ruleErr("Faults.TorPartitionMTBF", "%s needs %s > 0", Field("Faults.TorPartitionDuration"))
	case fc.TorPartitionMTBF > 0 && topo.IsFlat():
		return ruleErr("Faults.TorPartitionMTBF", "%s needs %s > 1 — a flat fleet has no ToR uplink to cut", Field("Topology.Racks"))
	}
	return nil
}

// Check validates the graph's settings — every tier's fleet rules and
// every edge rule — without reading any tier's Spec, Members or
// NewSource. A failure is a *ConfigError naming the tier or edge.
func (cfg GraphConfig) Check() error {
	if len(cfg.Tiers) == 0 {
		return ruleErr("Tiers", "%s needs at least one tier")
	}
	for i := range cfg.Tiers {
		if err := cfg.Tiers[i].Cluster.check(); err != nil {
			return at(err, i, -1)
		}
	}
	for i, e := range cfg.Edges {
		if err := cfg.checkEdge(e); err != nil {
			return at(err, -1, i)
		}
	}
	// An edge closes a cycle — one arrival would generate unbounded
	// downstream work — exactly when its source is reachable from its
	// target. Checking edges in order names the first such edge.
	// seen lives on the stack for up to 8 tiers, so the check every
	// graph reset repeats allocates nothing.
	var buf [8]bool
	seen := buf[:0]
	if n := len(cfg.Tiers); n <= len(buf) {
		seen = buf[:n]
	} else {
		seen = make([]bool, n)
	}
	for i, e := range cfg.Edges {
		if cfg.reach(e.To, seen); seen[e.From] {
			return at(ruleErr("", "%s (%s -> %s) closes a cycle — the graph must be acyclic",
				cfg.Tiers[e.From].Name, cfg.Tiers[e.To].Name), -1, i)
		}
	}
	// A tier no edge path reaches from the root would sit idle forever.
	cfg.reach(0, seen)
	for i, ok := range seen {
		if !ok {
			return at(ruleErr("", "%s is unreachable from the root tier — it would be silently inert"), i, -1)
		}
	}
	return nil
}

// checkEdge validates one edge on its own.
func (cfg GraphConfig) checkEdge(e EdgeConfig) error {
	switch {
	case e.From < 0 || e.From >= len(cfg.Tiers):
		return ruleErr("From", "%s tier %d is out of range", e.From)
	case e.To < 0 || e.To >= len(cfg.Tiers):
		return ruleErr("To", "%s tier %d is out of range", e.To)
	case e.From == e.To:
		return ruleErr("", "%s loops tier %q onto itself", cfg.Tiers[e.From].Name)
	case e.To == 0:
		return ruleErr("", "%s feeds tier %q — the root tier is client-facing and takes no in-edges", cfg.Tiers[0].Name)
	case e.HitRatio < 0 || e.HitRatio > 1:
		return ruleErr("HitRatio", "%s %g is outside [0, 1]", e.HitRatio)
	case e.TTL < 0:
		return ruleErr("TTL", "negative %s")
	case e.Fanout < 0:
		return ruleErr("Fanout", "negative %s")
	case e.Fanout > 1 && e.HitRatio >= 1 && e.TTL == 0:
		return ruleErr("", "%s sets fan-out %d on an edge that never misses (hit ratio 1, no TTL) — the fan-out is inert", e.Fanout)
	}
	return nil
}

// reach marks in seen every tier reachable from tier from along the
// edges (from itself included).
func (cfg GraphConfig) reach(from int, seen []bool) {
	clear(seen)
	seen[from] = true
	for grew := true; grew; {
		grew = false
		for _, e := range cfg.Edges {
			if seen[e.From] && !seen[e.To] {
				seen[e.To], grew = true, true
			}
		}
	}
}

// Validate checks everything NewGraph needs: Check's settings, plus
// each tier's members and spec and that only the root tier sets
// NewSource.
func (cfg GraphConfig) Validate() error {
	for i, tc := range cfg.Tiers {
		if i > 0 && tc.Cluster.NewSource != nil {
			return at(ruleErr("NewSource", "%s is for the root tier only — later tiers are driven by upstream misses"), i, -1)
		}
		if _, err := tc.Cluster.admit(tc.Spec); err != nil {
			return at(err, i, -1)
		}
	}
	return cfg.Check()
}
