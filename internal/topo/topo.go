// Package topo models a constellation as an explicit graph: satellite
// capture groups, SµDC compute nodes, and ground stations joined by
// inter-satellite links (ISLs) and downlinks, each edge carrying its own
// rate and propagation delay. The graph is the system-level object the
// paper's SµDC argument needs — compute placed *somewhere* in a
// constellation, fed over *specific* links — and it is what the
// discrete-event simulator (internal/netsim), the fault engine
// (internal/faults), and the flight recorder consume instead of the old
// implicit "every satellite feeds one SµDC over one aggregate ISL".
//
// Cells and sharding. Every node belongs to a cell (an orbital plane or
// a dense formation-flying cluster). Cells are the unit of parallel
// simulation: each cell advances on its own event loop and cells
// synchronize conservatively, using the minimum cross-cell ISL
// propagation delay as the lookahead window. The package therefore
// validates the property the conservative synchronizer depends on:
// every edge that crosses a cell boundary must have a positive
// propagation delay.
//
// Three constructors cover the architecture space the related work
// spans: Star (the paper's single-SµDC reference shape), Walker
// (multi-plane constellations with an SµDC every k-th plane and
// inter-plane relay rings), and Clusters (dense formation-flying
// clusters of single-satellite FSO links into a hub, after Pénot &
// Balakrishnan).
package topo

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sudc/internal/units"
)

// NodeKind classifies a graph node.
type NodeKind uint8

const (
	// Source is a group of EO capture satellites sharing one first-hop
	// link (Sats counts them). Source nodes may also relay transit
	// frames toward an SµDC.
	Source NodeKind = iota
	// SuDC is a compute node hosting Workers GPU workers; frames route
	// to their nearest SuDC.
	SuDC
	// Ground is a ground station, the terminus of downlink edges.
	Ground
)

// String returns the kind's stable name.
func (k NodeKind) String() string {
	switch k {
	case Source:
		return "source"
	case SuDC:
		return "sudc"
	case Ground:
		return "ground"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is one graph vertex.
type Node struct {
	// Name is the unique node label; it names the node in metrics,
	// traces, and fault schedules.
	Name string
	Kind NodeKind
	// Cell is the shard cell (orbital plane or cluster) the node
	// belongs to; cells must be numbered 0..Cells()-1 with no gaps.
	Cell int
	// Sats is the capture-satellite count of a Source node (≥ 1).
	Sats int
	// Workers is the GPU worker count of a SuDC node (≥ 1).
	Workers int
}

// EdgeKind classifies a graph edge.
type EdgeKind uint8

const (
	// ISL is an optical inter-satellite link; frames route over ISLs.
	ISL EdgeKind = iota
	// Downlink is a space-to-ground link; insights leave over it.
	// Downlinks are expressible and validated but carry no simulated
	// frame traffic yet (insight accounting happens at the SµDC).
	Downlink
)

// Edge is one directed link. Frame traffic flows From → To.
type Edge struct {
	From, To int
	Kind     EdgeKind
	// Rate is the link capacity; 0 means "inherit the simulation
	// config's aggregate ISL rate".
	Rate units.DataRate
	// Delay is the one-way propagation delay. Edges that cross cells
	// must have Delay > 0: it bounds the conservative lookahead.
	Delay time.Duration
}

// Graph is an explicit constellation topology.
type Graph struct {
	Nodes []Node
	Edges []Edge
}

// EdgeName returns the stable label of edge i: "<from>-<to>".
func (g *Graph) EdgeName(i int) string {
	e := g.Edges[i]
	return g.Nodes[e.From].Name + "-" + g.Nodes[e.To].Name
}

// Cells returns the cell count (max cell index + 1).
func (g *Graph) Cells() int {
	max := -1
	for _, n := range g.Nodes {
		if n.Cell > max {
			max = n.Cell
		}
	}
	return max + 1
}

// Sats returns the total capture-satellite count.
func (g *Graph) Sats() int {
	total := 0
	for _, n := range g.Nodes {
		if n.Kind == Source {
			total += n.Sats
		}
	}
	return total
}

// Workers returns the total GPU worker count over all SµDC nodes.
func (g *Graph) Workers() int {
	total := 0
	for _, n := range g.Nodes {
		if n.Kind == SuDC {
			total += n.Workers
		}
	}
	return total
}

// CellEdge is one directed edge of the cell graph: the minimum
// propagation delay over the cross-cell ISL edges joining one cell to
// another. The sharded simulator's per-cell conservative lookahead is
// computed over these tables.
type CellEdge struct {
	Cell  int
	Delay time.Duration
}

// CellGraph condenses the cross-cell ISL edges into per-cell min-delay
// adjacency tables: out[c] lists the cells c sends into and in[c] the
// cells that send into c, each with the minimum delay over the
// parallel physical edges and sorted by ascending cell index. Both
// tables are pure functions of the graph, so anything derived from
// them inherits the sharded runner's determinism contract.
func (g *Graph) CellGraph() (out, in [][]CellEdge) {
	cells := g.Cells()
	out = make([][]CellEdge, cells)
	in = make([][]CellEdge, cells)
	for _, e := range g.Edges {
		if e.Kind != ISL {
			continue
		}
		from, to := g.Nodes[e.From].Cell, g.Nodes[e.To].Cell
		if from == to {
			continue
		}
		out[from] = insertCellEdge(out[from], to, e.Delay)
		in[to] = insertCellEdge(in[to], from, e.Delay)
	}
	return out, in
}

// insertCellEdge merges one physical edge into a cell-sorted adjacency
// row, keeping the minimum delay per destination cell.
func insertCellEdge(row []CellEdge, cell int, delay time.Duration) []CellEdge {
	i := 0
	for i < len(row) && row[i].Cell < cell {
		i++
	}
	if i < len(row) && row[i].Cell == cell {
		if delay < row[i].Delay {
			row[i].Delay = delay
		}
		return row
	}
	row = append(row, CellEdge{})
	copy(row[i+1:], row[i:])
	row[i] = CellEdge{Cell: cell, Delay: delay}
	return row
}

// Routes computes static nearest-SµDC routing: out[u] is the ISL edge
// node u forwards frames on (toward the SµDC minimizing propagation
// delay, then hop count, then node index — a deterministic tie-break),
// or -1 for SuDC and Ground nodes. Unreachable Source nodes yield an
// error; Validate calls Routes, so a validated graph always routes.
func (g *Graph) Routes() ([]int, error) {
	n := len(g.Nodes)
	const inf = math.MaxFloat64
	dist := make([]float64, n) // delay-seconds to nearest SuDC
	hops := make([]int, n)
	out := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i], hops[i], out[i] = inf, math.MaxInt32, -1
	}
	for i, nd := range g.Nodes {
		if nd.Kind == SuDC {
			dist[i], hops[i] = 0, 0
		}
	}
	// Dijkstra from all sinks over reversed ISL edges. Graphs are small
	// (thousands of nodes at mega-constellation scale), so the O(V²)
	// selection loop with a deterministic (dist, hops, index) order is
	// simpler than a heap and equally deterministic.
	better := func(d float64, h, u int, d2 float64, h2, u2 int) bool {
		if d != d2 {
			return d < d2
		}
		if h != h2 {
			return h < h2
		}
		return u < u2
	}
	for {
		u := -1
		for v := 0; v < n; v++ {
			if done[v] || dist[v] == inf {
				continue
			}
			if u < 0 || better(dist[v], hops[v], v, dist[u], hops[u], u) {
				u = v
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for ei, e := range g.Edges {
			if e.Kind != ISL || e.To != u || done[e.From] {
				continue
			}
			d, h := dist[u]+e.Delay.Seconds(), hops[u]+1
			v := e.From
			if better(d, h, ei, dist[v], hops[v], out[v]) {
				dist[v], hops[v], out[v] = d, h, ei
			}
		}
	}
	for i, nd := range g.Nodes {
		if nd.Kind == Source && dist[i] == inf {
			return nil, fmt.Errorf("topo: source %q cannot reach any SµDC", nd.Name)
		}
	}
	return out, nil
}

// Validate reports structural errors: dangling edge indices, duplicate
// or empty node names, non-contiguous cells, invalid per-kind counts,
// negative rates or delays, zero-delay cross-cell edges (they would
// collapse the conservative lookahead window), downlinks not ending at
// ground, and Source nodes with no route to an SµDC.
func (g *Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return errors.New("topo: graph has no nodes")
	}
	names := make(map[string]bool, len(g.Nodes))
	maxCell := -1
	sudcs := 0
	for i, nd := range g.Nodes {
		if nd.Name == "" {
			return fmt.Errorf("topo: node %d has no name", i)
		}
		if names[nd.Name] {
			return fmt.Errorf("topo: duplicate node name %q", nd.Name)
		}
		names[nd.Name] = true
		if nd.Cell < 0 {
			return fmt.Errorf("topo: node %q has negative cell %d", nd.Name, nd.Cell)
		}
		if nd.Cell > maxCell {
			maxCell = nd.Cell
		}
		switch nd.Kind {
		case Source:
			if nd.Sats < 1 {
				return fmt.Errorf("topo: source %q needs ≥ 1 satellite", nd.Name)
			}
		case SuDC:
			if nd.Workers < 1 {
				return fmt.Errorf("topo: sudc %q needs ≥ 1 worker", nd.Name)
			}
			sudcs++
		case Ground:
		default:
			return fmt.Errorf("topo: node %q has unknown kind %d", nd.Name, nd.Kind)
		}
	}
	if sudcs == 0 {
		return errors.New("topo: graph has no SµDC")
	}
	cellSeen := make([]bool, maxCell+1)
	for _, nd := range g.Nodes {
		cellSeen[nd.Cell] = true
	}
	for c, seen := range cellSeen {
		if !seen {
			return fmt.Errorf("topo: cell %d is empty (cells must be contiguous)", c)
		}
	}
	for i, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			return fmt.Errorf("topo: edge %d dangles (%d → %d of %d nodes)", i, e.From, e.To, len(g.Nodes))
		}
		if e.From == e.To {
			return fmt.Errorf("topo: edge %d is a self-loop on %q", i, g.Nodes[e.From].Name)
		}
		if e.Rate < 0 {
			return fmt.Errorf("topo: edge %s has negative rate", g.EdgeName(i))
		}
		if e.Delay < 0 {
			return fmt.Errorf("topo: edge %s has negative delay", g.EdgeName(i))
		}
		switch e.Kind {
		case ISL:
			if g.Nodes[e.To].Kind == Ground {
				return fmt.Errorf("topo: ISL edge %s ends at a ground station", g.EdgeName(i))
			}
			if g.Nodes[e.From].Cell != g.Nodes[e.To].Cell && e.Delay <= 0 {
				return fmt.Errorf("topo: cross-cell edge %s needs a positive delay (conservative lookahead)", g.EdgeName(i))
			}
		case Downlink:
			if g.Nodes[e.To].Kind != Ground {
				return fmt.Errorf("topo: downlink edge %s must end at a ground station", g.EdgeName(i))
			}
			if g.Nodes[e.From].Kind == Ground {
				return fmt.Errorf("topo: downlink edge %s starts at a ground station", g.EdgeName(i))
			}
		default:
			return fmt.Errorf("topo: edge %d has unknown kind %d", i, e.Kind)
		}
	}
	if _, err := g.Routes(); err != nil {
		return err
	}
	return nil
}

// Star is the paper's reference shape, and the graph a netsim config
// without a Topology runs: one aggregate Source of sats capture
// satellites feeding one SµDC of workers GPU workers over a single
// zero-delay aggregate ISL.
func Star(sats, workers int) *Graph {
	return &Graph{
		Nodes: []Node{
			{Name: "sats", Kind: Source, Cell: 0, Sats: sats},
			{Name: "sudc", Kind: SuDC, Cell: 0, Workers: workers},
		},
		Edges: []Edge{{From: 0, To: 1, Kind: ISL}},
	}
}

// Walker builds a Walker-style multi-plane constellation: planes orbital
// planes of satsPerPlane capture satellites each, with an SµDC of
// workersPerSuDC workers in every sudcEvery-th plane (plane 0, plane
// sudcEvery, …). Each plane is one cell. Within an SµDC plane, the
// plane's aggregate source feeds its SµDC over a zero-delay intra-plane
// ISL (the Star shape, per plane). When sudcEvery > 1 the planes
// are joined into a relay ring: every plane's source connects to both
// neighbor planes' sources with interPlaneDelay of propagation, and
// SµDC-less planes route their frames around the ring to the nearest
// compute plane — the cross-cell traffic the sharded simulator carries
// as timestamped messages. Ring edges inherit the config ISL rate.
func Walker(planes, satsPerPlane, workersPerSuDC, sudcEvery int, interPlaneDelay time.Duration) (*Graph, error) {
	switch {
	case planes < 1:
		return nil, errors.New("topo: walker needs ≥ 1 plane")
	case satsPerPlane < 1:
		return nil, errors.New("topo: walker needs ≥ 1 satellite per plane")
	case workersPerSuDC < 1:
		return nil, errors.New("topo: walker needs ≥ 1 worker per SµDC")
	case sudcEvery < 1 || sudcEvery > planes:
		return nil, fmt.Errorf("topo: walker sudcEvery %d out of [1, %d]", sudcEvery, planes)
	case sudcEvery > 1 && interPlaneDelay <= 0:
		return nil, errors.New("topo: walker relay rings need a positive inter-plane delay")
	}
	g := &Graph{}
	src := make([]int, planes)
	for p := 0; p < planes; p++ {
		src[p] = len(g.Nodes)
		g.Nodes = append(g.Nodes, Node{
			Name: fmt.Sprintf("p%02d/sats", p), Kind: Source, Cell: p, Sats: satsPerPlane,
		})
		if p%sudcEvery == 0 {
			sudc := len(g.Nodes)
			g.Nodes = append(g.Nodes, Node{
				Name: fmt.Sprintf("p%02d/sudc", p), Kind: SuDC, Cell: p, Workers: workersPerSuDC,
			})
			g.Edges = append(g.Edges, Edge{From: src[p], To: sudc, Kind: ISL})
		}
	}
	if sudcEvery > 1 {
		for p := 0; p < planes; p++ {
			next := (p + 1) % planes
			g.Edges = append(g.Edges, Edge{From: src[p], To: src[next], Kind: ISL, Delay: interPlaneDelay})
			if planes > 2 {
				// With > 2 planes the reverse direction is a distinct
				// physical link; with exactly 2, p→next and next→p are
				// already both emitted by the loop.
				g.Edges = append(g.Edges, Edge{From: src[next], To: src[p], Kind: ISL, Delay: interPlaneDelay})
			}
		}
	}
	return g, nil
}

// ClustersRing joins dense formation-flying clusters (Pénot &
// Balakrishnan) into an inter-cluster relay ring, the shape where
// per-cell lookahead diverges most from a single global window:
// intra-cluster FSO hops are short (fsoDelay) while the inter-cluster
// ring hops are long (ringDelay). Each cluster is one cell whose
// single-satellite Source nodes own their own FSO link into the hub, so
// per-edge queueing and per-edge outages are visible. Every
// sudcEvery-th cluster's hub is an SµDC of workersPerHub workers; the
// other clusters get a relay hub (a single-satellite Source) whose
// cluster forwards around the ring to the nearest compute cluster. Ring
// edges are emitted only in the directions that can carry traffic — out
// of relay hubs — so compute clusters have no outgoing cross-cell edges
// and their cells synchronize only against their upstream relays. With
// sudcEvery = 1 every hub computes and the clusters are independent.
func ClustersRing(clusters, satsPerCluster, workersPerHub, sudcEvery int, fsoRate units.DataRate, fsoDelay, ringDelay time.Duration) (*Graph, error) {
	switch {
	case clusters < 1:
		return nil, errors.New("topo: need ≥ 1 cluster")
	case satsPerCluster < 1:
		return nil, errors.New("topo: need ≥ 1 satellite per cluster")
	case workersPerHub < 1:
		return nil, errors.New("topo: need ≥ 1 worker per hub")
	case sudcEvery < 1 || sudcEvery > clusters:
		return nil, fmt.Errorf("topo: ring sudcEvery %d out of [1, %d]", sudcEvery, clusters)
	case fsoRate < 0:
		return nil, errors.New("topo: negative FSO rate")
	case fsoDelay < 0:
		return nil, errors.New("topo: negative FSO delay")
	case sudcEvery > 1 && ringDelay <= 0:
		return nil, errors.New("topo: relay rings need a positive ring delay")
	}
	g := &Graph{}
	hub := make([]int, clusters)
	relay := make([]bool, clusters)
	for c := 0; c < clusters; c++ {
		hub[c] = len(g.Nodes)
		relay[c] = c%sudcEvery != 0
		if relay[c] {
			g.Nodes = append(g.Nodes, Node{
				Name: fmt.Sprintf("c%02d/hub", c), Kind: Source, Cell: c, Sats: 1,
			})
		} else {
			g.Nodes = append(g.Nodes, Node{
				Name: fmt.Sprintf("c%02d/hub", c), Kind: SuDC, Cell: c, Workers: workersPerHub,
			})
		}
		for i := 0; i < satsPerCluster; i++ {
			sat := len(g.Nodes)
			g.Nodes = append(g.Nodes, Node{
				Name: fmt.Sprintf("c%02d/sat%02d", c, i), Kind: Source, Cell: c, Sats: 1,
			})
			g.Edges = append(g.Edges, Edge{From: sat, To: hub[c], Kind: ISL, Rate: fsoRate, Delay: fsoDelay})
		}
	}
	for c := 0; c < clusters; c++ {
		next := (c + 1) % clusters
		if next == c {
			break // single cluster: no ring
		}
		if relay[c] {
			g.Edges = append(g.Edges, Edge{From: hub[c], To: hub[next], Kind: ISL, Delay: ringDelay})
		}
		if relay[next] {
			g.Edges = append(g.Edges, Edge{From: hub[next], To: hub[c], Kind: ISL, Delay: ringDelay})
		}
		if clusters == 2 {
			break // the single pair has been emitted in both directions
		}
	}
	return g, nil
}
