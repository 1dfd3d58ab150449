package cluster

// A measurement is collected straight into a Slab: storage handed out
// in order from one backing array per kind, so a caller that sizes one
// Slab for many measurements pays a fixed handful of allocations for
// all of them, and a measurement shares nothing with the graph's
// scratch, which a graph that goes back to the keep (graph.go) takes
// along to whichever sweep draws it next.

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

// Slab is storage that measurements are collected into. Each kind is
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
	c := &take(&s.pc1a, 1)[0]
	c.res, c.ents = res, ents
	return &c.res, &c.ents
}

// pc1aCell is the storage behind one pair of PC1A pointers.
type pc1aCell struct {
	res  float64
	ents uint64
}

// FleetSize is what the measurement of a fleet of servers members in
// racks racks holds: a row and a PC1A cell per member, a PC1A cell for
// the fleet, and, on more than one rack, a row and a PC1A cell per
// rack.
func FleetSize(servers, racks int) SlabSize {
	n := SlabSize{Servers: servers, PC1A: 1 + servers}
	if racks > 1 {
		n.Racks = racks
		n.PC1A += racks
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
		n = n.Add(FleetSize(len(t.fl.members), t.fl.topo.Racks))
	}
	return n
}
