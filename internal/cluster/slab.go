package cluster

// A measurement is collected into scratch that the fleet or graph
// rewrites at its next measurement, and a graph that goes back to the
// keep (graph.go) takes its scratch along to whichever sweep draws it
// next. What a caller keeps is therefore copied out into a Slab: storage
// handed out in order from one backing array per kind, so a caller that
// sizes one Slab for many measurements pays a fixed handful of
// allocations for all of them, and a copy shares nothing with any
// scratch.

// SlabSize counts what a Slab holds: tier measurements, server and rack
// rows, edge rows, client views, and PC1A cells (one per pair of PC1A
// pointers).
type SlabSize struct {
	Tiers, Servers, Racks, Edges, Clients, PC1A int
}

// Add returns the sum of two sizes.
func (n SlabSize) Add(o SlabSize) SlabSize {
	return SlabSize{n.Tiers + o.Tiers, n.Servers + o.Servers, n.Racks + o.Racks,
		n.Edges + o.Edges, n.Clients + o.Clients, n.PC1A + o.PC1A}
}

// Slab is storage that measurements are copied into. Each kind is
// taken in order from its own array; a kind that runs short gets a new
// array of just what was asked for, never an element already handed
// out, so a miscounted Slab costs allocations, not correctness. The
// zero Slab allocates whatever it is asked for.
type Slab struct {
	tiers   []TierMeasurement
	servers []ServerStats
	racks   []RackStats
	edges   []EdgeStats
	clients []ClientStats
	pc1a    []pc1aCell
}

// MakeSlab allocates a Slab holding n: one array per kind n asks for.
func MakeSlab(n SlabSize) Slab {
	return Slab{
		tiers:   make([]TierMeasurement, n.Tiers),
		servers: make([]ServerStats, n.Servers),
		racks:   make([]RackStats, n.Racks),
		edges:   make([]EdgeStats, n.Edges),
		clients: make([]ClientStats, n.Clients),
		pc1a:    make([]pc1aCell, n.PC1A),
	}
}

// Take hands out n of s's storage as a Slab of its own.
func (s *Slab) Take(n SlabSize) Slab {
	return Slab{
		tiers:   take(&s.tiers, n.Tiers),
		servers: take(&s.servers, n.Servers),
		racks:   take(&s.racks, n.Racks),
		edges:   take(&s.edges, n.Edges),
		clients: take(&s.clients, n.Clients),
		pc1a:    take(&s.pc1a, n.PC1A),
	}
}

// take returns the next n elements of *buf and advances *buf past
// them; when *buf holds fewer, it returns a new array of n. It returns
// nil for n = 0, as an empty measurement field is nil.
func take[T any](buf *[]T, n int) []T {
	switch {
	case n == 0:
		return nil
	case len(*buf) < n:
		return make([]T, n)
	}
	out := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return out
}

// PC1A stores a PC1A residency and entry count in s and points at them.
func (s *Slab) PC1A(res float64, ents uint64) (*float64, *uint64) {
	return take(&s.pc1a, 1)[0].set(res, ents)
}

// copyPC1A copies a pair of PC1A pointers' values into s; nil stays
// nil.
func (s *Slab) copyPC1A(res *float64, ents *uint64) (*float64, *uint64) {
	if res == nil {
		return nil, nil
	}
	return s.PC1A(*res, *ents)
}

// fleet copies m into s.
func (s *Slab) fleet(m *Measurement) Measurement {
	out := *m
	out.PC1AResidency, out.PC1AEntries = s.copyPC1A(m.PC1AResidency, m.PC1AEntries)
	out.Servers = take(&s.servers, len(m.Servers))
	for i := range out.Servers {
		ss := &out.Servers[i]
		*ss = m.Servers[i]
		ss.PC1AResidency, ss.PC1AEntries = s.copyPC1A(ss.PC1AResidency, ss.PC1AEntries)
	}
	out.Racks = take(&s.racks, len(m.Racks))
	for i := range out.Racks {
		rs := &out.Racks[i]
		*rs = m.Racks[i]
		rs.PC1AResidency, rs.PC1AEntries = s.copyPC1A(rs.PC1AResidency, rs.PC1AEntries)
	}
	return out
}

// graph copies gm into s.
func (s *Slab) graph(gm *GraphMeasurement) GraphMeasurement {
	out := GraphMeasurement{
		Tiers: take(&s.tiers, len(gm.Tiers)),
		Edges: take(&s.edges, len(gm.Edges)),
	}
	for i := range out.Tiers {
		out.Tiers[i] = TierMeasurement{Name: gm.Tiers[i].Name, Fleet: s.fleet(&gm.Tiers[i].Fleet)}
	}
	copy(out.Edges, gm.Edges)
	if gm.Client != nil {
		out.Client = &take(&s.clients, 1)[0]
		*out.Client = *gm.Client
	}
	return out
}

// slabSize is what the fleet's measurement holds.
func (f *Fleet) slabSize() SlabSize {
	n := SlabSize{Servers: len(f.members), PC1A: 1 + len(f.members)}
	if !f.topo.IsFlat() {
		n.Racks = f.topo.Racks
		n.PC1A += f.topo.Racks
	}
	return n
}

// slabSize is what the graph's measurement holds.
func (g *Graph) slabSize() SlabSize {
	n := SlabSize{Tiers: len(g.tiers), Edges: len(g.edges)}
	if len(g.edges) > 0 {
		n.Clients = 1
	}
	for _, t := range g.tiers {
		n = n.Add(t.fl.slabSize())
	}
	return n
}
