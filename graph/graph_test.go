package graph

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, edges []Edge, opts ...BuildOption) *Graph {
	t.Helper()
	g, err := BuildUndirected(edges, opts...)
	if err != nil {
		t.Fatalf("BuildUndirected: %v", err)
	}
	return g
}

func TestBuildBasic(t *testing.T) {
	g := mustBuild(t, []Edge{{0, 1}, {1, 2}, {0, 2}})
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if g.NumDirectedEdges() != 6 {
		t.Fatalf("NumDirectedEdges = %d", g.NumDirectedEdges())
	}
	for v := uint32(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("Degree(%d) = %d", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildEmpty(t *testing.T) {
	g := mustBuild(t, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g = mustBuild(t, nil, WithNumVertices(5))
	if g.NumVertices() != 5 || g.NumDirectedEdges() != 0 {
		t.Fatalf("edgeless graph: %v", g)
	}
}

func TestBuildSelfLoops(t *testing.T) {
	g := mustBuild(t, []Edge{{0, 0}, {0, 1}})
	if g.Degree(0) != 2 { // one loop slot + one edge slot
		t.Fatalf("Degree(0) = %d, want 2", g.Degree(0))
	}
	g = mustBuild(t, []Edge{{0, 0}, {0, 1}}, WithoutSelfLoops())
	if g.Degree(0) != 1 {
		t.Fatalf("Degree(0) with WithoutSelfLoops = %d, want 1", g.Degree(0))
	}
}

func TestBuildDedup(t *testing.T) {
	g := mustBuild(t, []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 1}}, WithDedup())
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges after dedup = %d, want 2", g.NumEdges())
	}
	nb := g.Neighbors(1)
	if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
		t.Fatalf("adjacency not sorted: %v", nb)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildOutOfRange(t *testing.T) {
	if _, err := BuildUndirected([]Edge{{0, 9}}, WithNumVertices(5)); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestMaxDegreeVertex(t *testing.T) {
	g := mustBuild(t, []Edge{{0, 1}, {2, 1}, {3, 1}, {3, 4}})
	if got := g.MaxDegreeVertex(); got != 1 {
		t.Fatalf("MaxDegreeVertex = %d, want 1", got)
	}
	// Ties resolve to smallest id.
	g = mustBuild(t, []Edge{{0, 1}, {2, 3}})
	if got := g.MaxDegreeVertex(); got != 0 {
		t.Fatalf("MaxDegreeVertex tie = %d, want 0", got)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	orig := []Edge{{0, 1}, {1, 2}, {3, 3}, {2, 4}}
	g := mustBuild(t, orig)
	back := g.Edges()
	if len(back) != len(orig) {
		t.Fatalf("Edges() returned %d, want %d", len(back), len(orig))
	}
	g2 := mustBuild(t, back, WithNumVertices(g.NumVertices()))
	if !reflect.DeepEqual(g.Offsets(), g2.Offsets()) {
		t.Fatal("offsets differ after round trip")
	}
}

// TestQuickBuildInvariants: for arbitrary edge lists, the built CSR
// validates, has twice as many slots as non-loop edges plus loop slots, and
// degree sums match.
func TestQuickBuildInvariants(t *testing.T) {
	f := func(raw []uint16) bool {
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{U: uint32(raw[i] % 512), V: uint32(raw[i+1] % 512)})
		}
		g, err := BuildUndirected(edges, WithNumVertices(512))
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		wantSlots := 0
		for _, e := range edges {
			if e.U == e.V {
				wantSlots++
			} else {
				wantSlots += 2
			}
		}
		if int(g.NumDirectedEdges()) != wantSlots {
			return false
		}
		degSum := 0
		for v := 0; v < g.NumVertices(); v++ {
			degSum += g.Degree(uint32(v))
		}
		return degSum == wantSlots
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveIsolated(t *testing.T) {
	g := mustBuild(t, []Edge{{1, 3}, {3, 5}}, WithNumVertices(7))
	ng, origID := RemoveIsolated(g)
	if ng.NumVertices() != 3 {
		t.Fatalf("NumVertices after removal = %d, want 3", ng.NumVertices())
	}
	if ng.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", ng.NumEdges())
	}
	want := []uint32{1, 3, 5}
	if !reflect.DeepEqual(origID, want) {
		t.Fatalf("origID = %v, want %v", origID, want)
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edge structure preserved: new 0-1-2 path.
	if ng.Degree(1) != 2 || ng.Degree(0) != 1 || ng.Degree(2) != 1 {
		t.Fatal("structure not preserved")
	}
	// No-op case returns the same graph.
	g2 := mustBuild(t, []Edge{{0, 1}})
	ng2, m2 := RemoveIsolated(g2)
	if ng2 != g2 || m2 != nil {
		t.Fatal("RemoveIsolated copied a graph with no isolated vertices")
	}
}

func TestFromCSRRejectsCorrupt(t *testing.T) {
	// Non-monotone offsets.
	if _, err := FromCSR([]int64{0, 2, 1}, []uint32{1, 0}); err == nil {
		t.Fatal("non-monotone offsets accepted")
	}
	// Out-of-range neighbour.
	if _, err := FromCSR([]int64{0, 1, 2}, []uint32{1, 5}); err == nil {
		t.Fatal("out-of-range neighbour accepted")
	}
	// Asymmetric adjacency (0→1 without 1→0).
	if _, err := FromCSR([]int64{0, 1, 1}, []uint32{1}); err == nil {
		t.Fatal("asymmetric CSR accepted")
	}
	// Asymmetric adjacency above parallelBuildCutoff slots, so the in-degree
	// count splits into one part per thread: a cycle whose slot 0→1 is
	// redirected to 0→2 leaves vertex 1 one in-slot short.
	const n = parallelBuildCutoff
	cycle := make([]Edge, n)
	for v := range cycle {
		cycle[v] = Edge{U: uint32(v), V: uint32((v + 1) % n)}
	}
	c := mustBuild(t, cycle)
	adj := slices.Clone(c.Adjacency())
	if adj[0] != 1 {
		t.Fatalf("vertex 0's first slot is %d, want 1", adj[0])
	}
	adj[0] = 2
	_, err := FromCSR(c.Offsets(), adj)
	if want := "graph: vertex 1 has out-degree 2 but in-degree 1 (asymmetric CSR)"; err == nil || err.Error() != want {
		t.Fatalf("large asymmetric CSR: got error %v, want %q", err, want)
	}
	// Valid round trip.
	g := mustBuild(t, []Edge{{0, 1}})
	if _, err := FromCSR(g.Offsets(), g.Adjacency()); err != nil {
		t.Fatal(err)
	}
}
