package topo

import (
	"strings"
	"testing"
	"time"

	"sudc/internal/units"
)

// minCellDelay returns the smallest delay over g's cell-graph edges and
// whether the graph has any.
func minCellDelay(g *Graph) (time.Duration, bool) {
	out, _ := g.CellGraph()
	var min time.Duration
	found := false
	for _, row := range out {
		for _, e := range row {
			if !found || e.Delay < min {
				min, found = e.Delay, true
			}
		}
	}
	return min, found
}

func TestStarShape(t *testing.T) {
	g := Star(64, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Sats() != 64 || g.Workers() != 5 || g.Cells() != 1 {
		t.Errorf("star: sats %d workers %d cells %d, want 64/5/1", g.Sats(), g.Workers(), g.Cells())
	}
	if len(g.Edges) != 1 || g.EdgeName(0) != "sats-sudc" {
		t.Errorf("star edge = %q, want sats-sudc", g.EdgeName(0))
	}
	if _, ok := minCellDelay(g); ok {
		t.Error("single-cell star has cell-graph edges")
	}
}

func TestWalkerShape(t *testing.T) {
	g, err := Walker(6, 32, 8, 2, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Cells() != 6 {
		t.Errorf("cells = %d, want 6 (one per plane)", g.Cells())
	}
	if g.Sats() != 6*32 {
		t.Errorf("sats = %d, want %d", g.Sats(), 6*32)
	}
	// SµDCs in planes 0, 2, 4.
	if g.Workers() != 3*8 {
		t.Errorf("workers = %d, want %d", g.Workers(), 3*8)
	}
	w, ok := minCellDelay(g)
	if !ok || w != 200*time.Millisecond {
		t.Errorf("smallest cell-edge delay = %v/%v, want 200ms/true", w, ok)
	}
	// Every plane's source must route somewhere; SµDC-less planes route
	// around the ring.
	routes, err := g.Routes()
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range g.Nodes {
		if nd.Kind == Source && routes[i] < 0 {
			t.Errorf("source %s has no route", nd.Name)
		}
	}
}

func TestWalkerTwoPlanesHasNoDuplicateRingEdges(t *testing.T) {
	g, err := Walker(2, 4, 2, 2, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range g.Edges {
		name := g.EdgeName(i)
		if seen[name] {
			t.Errorf("duplicate edge %s", name)
		}
		seen[name] = true
	}
}

func TestWalkerDegenerateSingle(t *testing.T) {
	g, err := Walker(1, 64, 5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Cells() != 1 || len(g.Edges) != 1 {
		t.Errorf("1-plane walker: cells %d edges %d, want 1/1 (the star)", g.Cells(), len(g.Edges))
	}
}

func TestWalkerRejectsBadArgs(t *testing.T) {
	cases := []struct {
		name string
		fn   func() (*Graph, error)
	}{
		{"no planes", func() (*Graph, error) { return Walker(0, 1, 1, 1, 0) }},
		{"no sats", func() (*Graph, error) { return Walker(2, 0, 1, 1, time.Second) }},
		{"no workers", func() (*Graph, error) { return Walker(2, 1, 0, 1, time.Second) }},
		{"sudcEvery too big", func() (*Graph, error) { return Walker(2, 1, 1, 3, time.Second) }},
		{"ring without delay", func() (*Graph, error) { return Walker(4, 1, 1, 2, 0) }},
	}
	for _, tc := range cases {
		if _, err := tc.fn(); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestClustersShape(t *testing.T) {
	// sudcEvery = 1 gives every cluster a compute hub: independent
	// clusters with no ring.
	g, err := ClustersRing(3, 8, 4, 1, units.GbpsOf(10), 10*time.Microsecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Cells() != 3 || g.Sats() != 24 || g.Workers() != 12 {
		t.Errorf("clusters: cells %d sats %d workers %d, want 3/24/12", g.Cells(), g.Sats(), g.Workers())
	}
	if len(g.Edges) != 24 {
		t.Errorf("edges = %d, want one per satellite (24)", len(g.Edges))
	}
	if _, ok := minCellDelay(g); ok {
		t.Error("independent clusters have cell-graph edges")
	}
	if g.EdgeName(0) != "c00/sat00-c00/hub" {
		t.Errorf("edge name = %q", g.EdgeName(0))
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Graph { return Star(4, 2) }
	cases := []struct {
		name string
		mut  func(*Graph)
		want string
	}{
		{"empty", func(g *Graph) { g.Nodes = nil; g.Edges = nil }, "no nodes"},
		{"dangling edge", func(g *Graph) { g.Edges[0].To = 9 }, "dangles"},
		{"self loop", func(g *Graph) { g.Edges[0].To = 0 }, "self-loop"},
		{"dup name", func(g *Graph) { g.Nodes[1].Name = "sats" }, "duplicate"},
		{"unnamed", func(g *Graph) { g.Nodes[0].Name = "" }, "no name"},
		{"negative cell", func(g *Graph) { g.Nodes[0].Cell = -1 }, "negative cell"},
		{"gap cell", func(g *Graph) { g.Nodes[1].Cell = 2 }, "empty"},
		{"no sats", func(g *Graph) { g.Nodes[0].Sats = 0 }, "satellite"},
		{"no workers", func(g *Graph) { g.Nodes[1].Workers = 0 }, "worker"},
		{"no sudc", func(g *Graph) { g.Nodes[1].Kind = Ground; g.Edges = nil }, "no SµDC"},
		{"negative rate", func(g *Graph) { g.Edges[0].Rate = -1 }, "negative rate"},
		{"negative delay", func(g *Graph) { g.Edges[0].Delay = -time.Second }, "negative delay"},
		{"unroutable source", func(g *Graph) { g.Edges = nil }, "cannot reach"},
	}
	for _, tc := range cases {
		g := base()
		tc.mut(g)
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateRejectsZeroDelayCrossCellEdge(t *testing.T) {
	g := &Graph{
		Nodes: []Node{
			{Name: "a", Kind: Source, Cell: 0, Sats: 1},
			{Name: "b", Kind: SuDC, Cell: 1, Workers: 1},
		},
		Edges: []Edge{{From: 0, To: 1, Kind: ISL}},
	}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "positive delay") {
		t.Errorf("err = %v, want the conservative-lookahead complaint", err)
	}
	g.Edges[0].Delay = time.Millisecond
	if err := g.Validate(); err != nil {
		t.Errorf("with delay: %v", err)
	}
}

func TestRoutesPreferNearestSuDC(t *testing.T) {
	// A relay chain: s0 → s1 → sudc. s0 must route via s1; the route
	// edge of each source must depart from that source.
	g := &Graph{
		Nodes: []Node{
			{Name: "s0", Kind: Source, Cell: 0, Sats: 1},
			{Name: "s1", Kind: Source, Cell: 0, Sats: 1},
			{Name: "dc", Kind: SuDC, Cell: 0, Workers: 1},
		},
		Edges: []Edge{
			{From: 0, To: 1, Kind: ISL},
			{From: 1, To: 2, Kind: ISL},
		},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	routes, err := g.Routes()
	if err != nil {
		t.Fatal(err)
	}
	if routes[0] != 0 || routes[1] != 1 {
		t.Errorf("routes = %v, want [0 1 -1]", routes)
	}
	if routes[2] != -1 {
		t.Errorf("SµDC route = %d, want -1", routes[2])
	}
}

func TestISLIntoGroundRejected(t *testing.T) {
	g := Star(4, 2)
	g.Nodes = append(g.Nodes, Node{Name: "gs-svalbard", Kind: Ground})
	g.Edges = append(g.Edges, Edge{From: 1, To: 2, Kind: Downlink, Rate: units.GbpsOf(2), Delay: 3 * time.Millisecond})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// ISL edges must not terminate at the ground station.
	g.Edges = append(g.Edges, Edge{From: 0, To: 2, Kind: ISL})
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "ground") {
		t.Errorf("ISL into ground: err = %v", err)
	}
}

func TestCellGraphWalker(t *testing.T) {
	g, err := Walker(4, 8, 5, 2, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	out, in := g.CellGraph()
	if len(out) != 4 || len(in) != 4 {
		t.Fatalf("cell tables sized %d/%d, want 4/4", len(out), len(in))
	}
	for c := 0; c < 4; c++ {
		for _, e := range out[c] {
			if e.Cell == c {
				t.Errorf("out[%d] contains a same-cell edge", c)
			}
			if e.Delay != 250*time.Millisecond {
				t.Errorf("out[%d]→%d delay %v, want 250ms", c, e.Cell, e.Delay)
			}
			// Every out edge must appear as the destination's in edge.
			found := false
			for _, r := range in[e.Cell] {
				if r.Cell == c && r.Delay == e.Delay {
					found = true
				}
			}
			if !found {
				t.Errorf("out[%d]→%d has no matching in edge", c, e.Cell)
			}
		}
		for i := 1; i < len(out[c]); i++ {
			if out[c][i-1].Cell >= out[c][i].Cell {
				t.Errorf("out[%d] not in ascending cell order: %v", c, out[c])
			}
		}
	}
}

func TestCellGraphKeepsMinDelay(t *testing.T) {
	// Two parallel physical edges between the same cell pair must
	// condense to one adjacency entry carrying the smaller delay.
	g := &Graph{
		Nodes: []Node{
			{Name: "a/sats", Kind: Source, Cell: 0, Sats: 4},
			{Name: "a/dc", Kind: SuDC, Cell: 0, Workers: 2},
			{Name: "b/dc", Kind: SuDC, Cell: 1, Workers: 2},
		},
		Edges: []Edge{
			{From: 0, To: 1, Kind: ISL},
			{From: 1, To: 2, Kind: ISL, Delay: 300 * time.Millisecond},
			{From: 1, To: 2, Kind: ISL, Delay: 100 * time.Millisecond},
		},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	out, in := g.CellGraph()
	if len(out[0]) != 1 || out[0][0] != (CellEdge{Cell: 1, Delay: 100 * time.Millisecond}) {
		t.Errorf("out[0] = %v, want one edge to cell 1 at 100ms", out[0])
	}
	if len(in[1]) != 1 || in[1][0] != (CellEdge{Cell: 0, Delay: 100 * time.Millisecond}) {
		t.Errorf("in[1] = %v, want one edge from cell 0 at 100ms", in[1])
	}
}

func TestClustersRingShape(t *testing.T) {
	g, err := ClustersRing(6, 8, 4, 2, 10*units.Gbps, 2*time.Millisecond, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Cells() != 6 {
		t.Fatalf("cells = %d, want 6", g.Cells())
	}
	// Every second cluster hosts an SµDC; relay clusters contribute
	// their hub as an extra source satellite.
	if got, want := g.Workers(), 3*4; got != want {
		t.Errorf("workers = %d, want %d", got, want)
	}
	if got, want := g.Sats(), 6*8+3; got != want {
		t.Errorf("sats = %d, want %d", got, want)
	}
	// The cell graph must be heterogeneous: intra-cluster FSO hops do
	// not appear (same cell), ring edges carry the long delay, and all
	// cross-cell delay flows through relay hubs.
	out, _ := g.CellGraph()
	crossEdges := 0
	for c := range out {
		for _, e := range out[c] {
			crossEdges++
			if e.Delay != 400*time.Millisecond {
				t.Errorf("ring edge %d→%d delay %v, want 400ms", c, e.Cell, e.Delay)
			}
			if c%2 != 1 {
				t.Errorf("SµDC cluster %d sends into the ring", c)
			}
		}
	}
	if crossEdges != 6 {
		t.Errorf("cross-cell edges = %d, want 6 (each relay to both neighbors)", crossEdges)
	}
}

func TestClustersRingSingleAndPair(t *testing.T) {
	// One cluster: no ring at all.
	g, err := ClustersRing(1, 4, 2, 1, 10*units.Gbps, time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ := g.CellGraph()
	if len(out[0]) != 0 {
		t.Errorf("single cluster has cross edges: %v", out[0])
	}
	// Two clusters: exactly one relay→SµDC pair, no duplicate edges.
	g, err = ClustersRing(2, 4, 2, 2, 10*units.Gbps, time.Millisecond, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	ring := 0
	for _, e := range g.Edges {
		if e.Kind == ISL && g.Nodes[e.From].Cell != g.Nodes[e.To].Cell {
			ring++
		}
	}
	if ring != 1 {
		t.Errorf("two-cluster ring has %d cross edges, want 1", ring)
	}
}

func TestClustersRingValidation(t *testing.T) {
	cases := []struct {
		name string
		err  string
		call func() (*Graph, error)
	}{
		{"no clusters", "≥ 1 cluster", func() (*Graph, error) {
			return ClustersRing(0, 4, 2, 1, units.Gbps, 0, 0)
		}},
		{"no sats", "per cluster", func() (*Graph, error) {
			return ClustersRing(2, 0, 2, 1, units.Gbps, 0, time.Second)
		}},
		{"no workers", "worker per hub", func() (*Graph, error) {
			return ClustersRing(2, 4, 0, 1, units.Gbps, 0, time.Second)
		}},
		{"sudcEvery range", "out of", func() (*Graph, error) {
			return ClustersRing(2, 4, 2, 3, units.Gbps, 0, time.Second)
		}},
		{"relay needs ring delay", "positive ring delay", func() (*Graph, error) {
			return ClustersRing(4, 4, 2, 2, units.Gbps, 0, 0)
		}},
	}
	for _, tc := range cases {
		if _, err := tc.call(); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.err)
		}
	}
}
