package gen

import (
	"math"
	"testing"

	"thriftylp/graph"
)

func TestRMATDeterministic(t *testing.T) {
	cfg := DefaultRMAT(10, 8, 42)
	g1, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumVertices() != g2.NumVertices() || g1.NumDirectedEdges() != g2.NumDirectedEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for v := 0; v < g1.NumVertices(); v++ {
		n1, n2 := g1.Neighbors(uint32(v)), g2.Neighbors(uint32(v))
		if len(n1) != len(n2) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("vertex %d adjacency differs", v)
			}
		}
	}
	g3, err := RMAT(DefaultRMAT(10, 8, 43))
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumDirectedEdges() == g1.NumDirectedEdges() {
		// Extremely unlikely to collide exactly; treat as seed insensitivity.
		same := true
		for v := 0; v < g1.NumVertices() && same; v++ {
			if g1.Degree(uint32(v)) != g3.Degree(uint32(v)) {
				same = false
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestRMATIsSkewed(t *testing.T) {
	g, err := RMAT(DefaultRMAT(14, 16, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	maxDeg := g.Degree(g.MaxDegreeVertex())
	mean := float64(g.NumDirectedEdges()) / float64(g.NumVertices())
	if float64(maxDeg) < 20*mean {
		t.Fatalf("RMAT not skewed: max degree %d vs mean %.1f", maxDeg, mean)
	}
}

func TestRMATValidation(t *testing.T) {
	if _, err := RMAT(RMATConfig{Scale: -1}); err == nil {
		t.Fatal("negative scale accepted")
	}
	if _, err := RMAT(RMATConfig{Scale: 4, EdgeFactor: -1}); err == nil {
		t.Fatal("negative edge factor accepted")
	}
	if _, err := RMAT(RMATConfig{Scale: 4, EdgeFactor: 2, A: 0.9, B: 0.9, C: 0.9}); err == nil {
		t.Fatal("probabilities > 1 accepted")
	}
	if _, err := RMAT(RMATConfig{Scale: 4, EdgeFactor: 2, A: math.NaN(), B: 0.2, C: 0.2}); err == nil {
		t.Fatal("NaN probability accepted")
	}
	for _, noise := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := RMAT(RMATConfig{Scale: 4, EdgeFactor: 2, A: 0.57, B: 0.19, C: 0.19, Noise: noise}); err == nil {
			t.Fatalf("noise %v accepted", noise)
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(1000, 4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1000 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	// Dedup/loop removal strips some of the 4000, but most survive.
	if g.NumEdges() < 3500 || g.NumEdges() > 4000 {
		t.Fatalf("NumEdges = %d, want ~4000", g.NumEdges())
	}
	if _, err := ErdosRenyi(0, 10, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestGridShape(t *testing.T) {
	g, err := Grid(GridConfig{Rows: 10, Cols: 10})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 100 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	// Full lattice: 2·10·9 edges.
	if g.NumEdges() != 180 {
		t.Fatalf("NumEdges = %d, want 180", g.NumEdges())
	}
	// Corner has degree 2, interior degree 4.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree = %d", g.Degree(0))
	}
	if g.Degree(11) != 4 {
		t.Fatalf("interior degree = %d", g.Degree(11))
	}
	if _, err := Grid(GridConfig{Rows: 0, Cols: 5}); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := Grid(GridConfig{Rows: 2, Cols: 2, DropFraction: 1.5}); err == nil {
		t.Fatal("bad drop fraction accepted")
	}
}

func TestRoadIsNotSkewed(t *testing.T) {
	g, err := Road(10000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(g.MaxDegreeVertex()) > 4 {
		t.Fatalf("road max degree = %d, want <= 4", g.Degree(g.MaxDegreeVertex()))
	}
}

func TestWebHasChains(t *testing.T) {
	cfg := WebConfig{CoreScale: 8, CoreEdgeFactor: 8, NumChains: 4, ChainLength: 32, Seed: 9}
	g, err := Web(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Chain interior vertices have degree exactly 2 and tails degree 1;
	// at least NumChains degree-1 vertices must exist.
	deg1 := 0
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) == 1 {
			deg1++
		}
	}
	if deg1 < cfg.NumChains {
		t.Fatalf("found %d degree-1 vertices, want >= %d chain tails", deg1, cfg.NumChains)
	}
	if _, err := Web(WebConfig{CoreScale: 4, NumChains: -1}); err == nil {
		t.Fatal("negative chains accepted")
	}
	// An edgeless core leaves the chains nothing to anchor to.
	if _, err := Web(WebConfig{CoreScale: 4, CoreEdgeFactor: 0, NumChains: 2, ChainLength: 3}); err == nil {
		t.Fatal("chains on an edgeless core accepted")
	}
	if g, err := Web(WebConfig{CoreScale: 4, CoreEdgeFactor: 0}); err != nil || g.NumVertices() != 0 {
		t.Fatalf("edgeless core without chains: %v, %v", g, err)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g, err := BarabasiAlbert(2000, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2000 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	// Preferential attachment: hub degree far above the mean.
	maxDeg := g.Degree(g.MaxDegreeVertex())
	if maxDeg < 20 {
		t.Fatalf("BA hub degree = %d, expected a heavy tail", maxDeg)
	}
	if _, err := BarabasiAlbert(5, 5, 1); err == nil {
		t.Fatal("m >= n accepted")
	}
	if _, err := BarabasiAlbert(0, 1, 1); err == nil {
		t.Fatal("n = 0 accepted")
	}
}

func TestFixtures(t *testing.T) {
	p, err := Path(5)
	if err != nil || p.NumEdges() != 4 || p.Degree(0) != 1 || p.Degree(2) != 2 {
		t.Fatalf("Path: %v %v", p, err)
	}
	c, err := Cycle(5)
	if err != nil || c.NumEdges() != 5 || c.Degree(0) != 2 {
		t.Fatalf("Cycle: %v %v", c, err)
	}
	s, err := Star(5)
	if err != nil || s.Degree(0) != 4 || s.Degree(1) != 1 {
		t.Fatalf("Star: %v %v", s, err)
	}
	k, err := Complete(5)
	if err != nil || k.NumEdges() != 10 {
		t.Fatalf("Complete: %v %v", k, err)
	}
	e, err := Empty(5)
	if err != nil || e.NumVertices() != 5 || e.NumEdges() != 0 {
		t.Fatalf("Empty: %v %v", e, err)
	}
	f2, err := PaperFigure2()
	if err != nil || f2.NumVertices() != 7 || f2.NumEdges() != 8 {
		t.Fatalf("PaperFigure2: %v %v", f2, err)
	}
	if f2.MaxDegreeVertex() != 4 {
		t.Fatalf("PaperFigure2 hub = %d, want vertex E=4", f2.MaxDegreeVertex())
	}
	comps, err := Components(3, 4)
	if err != nil || comps.NumVertices() != 12 || comps.NumEdges() != 18 {
		t.Fatalf("Components: %v %v", comps, err)
	}
}

func TestDisjointUnion(t *testing.T) {
	a, _ := Complete(3)
	b, _ := Path(4)
	u, err := DisjointUnion(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumVertices() != 7 {
		t.Fatalf("NumVertices = %d", u.NumVertices())
	}
	if u.NumEdges() != a.NumEdges()+b.NumEdges() {
		t.Fatalf("NumEdges = %d", u.NumEdges())
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	// Vertex 3 (first of b's block) must connect to 4, not to a's block.
	nb := u.Neighbors(3)
	if len(nb) != 1 || nb[0] != 4 {
		t.Fatalf("block offsets wrong: N(3) = %v", nb)
	}
}

func TestIslands(t *testing.T) {
	g, err := Islands(5, 20, 77)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 100 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// No edge crosses an island boundary.
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if int(u)/20 != v/20 {
				t.Fatalf("edge %d-%d crosses islands", v, u)
			}
		}
	}
}

func TestRMATCompactHasNoIsolated(t *testing.T) {
	g, err := RMATCompact(DefaultRMAT(12, 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) == 0 {
			t.Fatalf("isolated vertex %d survived RMATCompact", v)
		}
	}
}

var _ = graph.Edge{} // keep the graph import for helper growth
