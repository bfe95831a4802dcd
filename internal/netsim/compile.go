package netsim

// Topology compilation: a validated topo.Graph is lowered into one
// cellPlan per graph cell. A cellPlan is the static half of a cell's
// simulator state — source groups, links with their routing
// continuations, and SµDC worker slices — with every reference
// expressed in cell-local indices so each cell simulates its subgraph
// independently. Cross-cell edges record the destination cell and the
// continuation *in that cell's* index space; at run time the frame
// crosses as a timestamped shardMsg.
//
// The compilation is a pure function of the graph (never of the shard
// count), which is what makes the sharded results byte-identical for
// any Config.Shards value.

import (
	"fmt"

	"sudc/internal/degrade"
	"sudc/internal/faults"
	"sudc/internal/obs/window"
	"sudc/internal/topo"
	"sudc/internal/units"
)

// planLink is one compiled ISL edge owned by the cell of its From node.
type planLink struct {
	rate     units.DataRate // 0 = inherit Config.ISLRate
	delay    float64        // propagation delay, s
	dest     int            // local continuation: edge index, or ^sudcIndex
	cross    bool
	destCell int
	crossTo  int // cross continuation, in the destination cell's index space
	name     string
}

// planSudc is one compiled SµDC node.
type planSudc struct {
	workers int
	name    string
}

// planSource is one compiled capture group.
type planSource struct {
	sats int
	edge int // local first-hop edge
}

// cellPlan is one cell's compiled subgraph.
type cellPlan struct {
	sources []planSource
	links   []planLink
	sudcs   []planSudc
	sats    int
	workers int
}

// compile lowers a validated graph into per-cell plans. Node and edge
// iteration order fixes all local indices, so the lowering is
// deterministic.
func compile(g *topo.Graph) ([]cellPlan, error) {
	routes, err := g.Routes()
	if err != nil {
		return nil, err
	}
	plans := make([]cellPlan, g.Cells())

	// SµDC nodes first: their local indices are referenced by edge
	// continuations.
	nodeSudc := make([]int, len(g.Nodes))
	for i := range nodeSudc {
		nodeSudc[i] = -1
	}
	for i, nd := range g.Nodes {
		if nd.Kind != topo.SuDC {
			continue
		}
		p := &plans[nd.Cell]
		nodeSudc[i] = len(p.sudcs)
		p.sudcs = append(p.sudcs, planSudc{workers: nd.Workers, name: nd.Name})
		p.workers += nd.Workers
	}

	// ISL edges, owned by the cell of their From node. Downlink edges
	// carry no simulated frame traffic (insight accounting happens at
	// the SµDC), so they compile away.
	edgeLocal := make([]int, len(g.Edges))
	for i := range edgeLocal {
		edgeLocal[i] = -1
	}
	for ei, e := range g.Edges {
		if e.Kind != topo.ISL {
			continue
		}
		p := &plans[g.Nodes[e.From].Cell]
		edgeLocal[ei] = len(p.links)
		p.links = append(p.links, planLink{
			rate:  e.Rate,
			delay: e.Delay.Seconds(),
			name:  g.EdgeName(ei),
		})
	}

	// Continuations: a frame delivered at edge (u → v) continues into
	// v's input queue (v is an SµDC) or onto v's own route edge.
	for ei, e := range g.Edges {
		if e.Kind != topo.ISL {
			continue
		}
		srcCell := g.Nodes[e.From].Cell
		dstCell := g.Nodes[e.To].Cell
		var target int
		if g.Nodes[e.To].Kind == topo.SuDC {
			target = ^nodeSudc[e.To]
		} else {
			r := routes[e.To]
			if r < 0 {
				return nil, fmt.Errorf("netsim: edge %s delivers to %q, which has no route to an SµDC",
					g.EdgeName(ei), g.Nodes[e.To].Name)
			}
			target = edgeLocal[r]
		}
		l := &plans[srcCell].links[edgeLocal[ei]]
		if srcCell == dstCell {
			l.dest = target
		} else {
			l.cross = true
			l.destCell = dstCell
			l.crossTo = target
			l.dest = ^0
		}
	}

	// Capture groups, in node order within each cell.
	for i, nd := range g.Nodes {
		if nd.Kind != topo.Source {
			continue
		}
		p := &plans[nd.Cell]
		p.sources = append(p.sources, planSource{sats: nd.Sats, edge: edgeLocal[routes[i]]})
		p.sats += nd.Sats
	}
	return plans, nil
}

// frameIDBits is the per-cell frame-ID namespace width: cell c assigns
// IDs starting at c<<frameIDBits, so IDs stay globally unique when a
// frame's lifecycle spans cells.
const frameIDBits = 40

// resetTopo prepares the pooled simulator to run one compiled cell.
// The caller has already scoped c.Obs / c.Trace (and c.Seed) to the
// cell and built the cell's fault schedule over its own workers and
// links; cells is the total cell count, which splits the shared
// placement downlink.
func (s *simulator) resetTopo(c Config, p *cellPlan, sched faults.Schedule, deg *degrade.Schedule, cell, cells int) {
	s.resetCommon(c, p.workers)
	s.setDegrade(deg)
	s.need = p.workers
	if cells == 1 && c.NeedWorkers > 0 {
		// A one-cell graph may define full service below its worker
		// complement (the sized need, with the rest as spares).
		s.need = c.NeedWorkers
	}
	s.totalSats = p.sats
	s.setPlacement(c.Placement, cells)
	// The cell collects its own fragments; the shard runner owns the
	// merger (see newShardRunner for the lone-cell case). An Obs-only
	// run collects one-minute windows for its series alone.
	width := c.Window
	if width == 0 && c.Obs != nil {
		width = sampleEvery
	}
	if width > 0 {
		s.win = window.NewCollector(width.Seconds(), cell)
	}
	s.frameID = int64(cell) << frameIDBits

	// Edge labels tag trace events and outage causes only where there
	// is more than one ISL to tell apart.
	labeled := cells > 1 || len(p.links) > 1
	s.links = resizeLinks(s.links, len(p.links))
	for i := range p.links {
		pl, l := &p.links[i], &s.links[i]
		rate := pl.rate
		if rate == 0 {
			rate = c.ISLRate
		}
		l.sendTime = s.frameBits / float64(rate)
		l.delay = pl.delay
		l.dest = pl.dest
		l.cross = pl.cross
		l.destCell = pl.destCell
		l.crossTo = pl.crossTo
		l.name = pl.name
		if labeled {
			l.label = pl.name
		}
	}

	s.sudcs = resizeSudcs(s.sudcs, len(p.sudcs))
	s.workerSudc = resize(s.workerSudc, p.workers)
	w0 := 0
	for i := range p.sudcs {
		d := &s.sudcs[i]
		d.w0, d.nw = w0, p.sudcs[i].workers
		for w := w0; w < w0+d.nw; w++ {
			s.workerSudc[w] = i
		}
		w0 += d.nw
	}

	if cap(s.sources) >= len(p.sources) {
		s.sources = s.sources[:len(p.sources)]
	} else {
		s.sources = make([]sourceState, len(p.sources))
	}
	for i := range p.sources {
		s.sources[i] = sourceState{sats: p.sources[i].sats, edge: p.sources[i].edge}
	}
	s.satEdge = resize(s.satEdge, p.sats)

	s.q.grow(p.sats + 4*p.workers +
		len(sched.Deaths) + len(sched.Hangs) + len(sched.Outages) + s.degPhases() + 64)
	s.fq.grow(p.sats)
	s.sizeLatencies(p.sats)

	if c.Obs != nil {
		s.rec = newRecorder(c.Obs, s, width.Seconds())
	}
	s.seedEvents(sched)
	if s.deg != nil {
		s.applyPhase(0)
	}
}
