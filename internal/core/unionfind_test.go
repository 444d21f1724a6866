package core

import (
	"maps"
	"testing"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/afforest"
	"thriftylp/internal/counters"
	"thriftylp/internal/parallel"
)

// TestAfforestLinkUnitesAndIsIdempotent exercises the hooking primitive
// directly.
func TestAfforestLinkUnitesAndIsIdempotent(t *testing.T) {
	comp := []uint32{0, 1, 2, 3}
	afforestLink(1, 3, comp, noInstr{})
	// Roots 1 and 3: the higher id hooks under the lower.
	if comp[3] != 1 {
		t.Fatalf("comp after link = %v", comp)
	}
	afforestLink(1, 3, comp, noInstr{}) // already united: no change
	if comp[3] != 1 || comp[1] != 1 {
		t.Fatalf("comp after re-link = %v", comp)
	}
	// Transitive union through non-roots.
	afforestLink(3, 2, comp, noInstr{})
	afforestCompress(parallel.Default(), comp, noInstr{})
	if comp[2] != 1 || comp[3] != 1 {
		t.Fatalf("comp after transitive link+compress = %v", comp)
	}
}

// TestAfforestCompressFlattens: after compress every entry points directly
// at a root.
func TestAfforestCompressFlattens(t *testing.T) {
	// A chain 4→3→2→1→0.
	comp := []uint32{0, 0, 1, 2, 3}
	afforestCompress(parallel.Default(), comp, noInstr{})
	for v, p := range comp {
		if p != 0 {
			t.Fatalf("comp[%d] = %d after compress", v, p)
		}
	}
}

// TestSampleFrequentComponent: an overwhelmingly dominant label must win.
func TestSampleFrequentComponent(t *testing.T) {
	comp := make([]uint32, 10000)
	for i := range comp {
		comp[i] = 7
	}
	comp[3] = 9
	if got := afforest.FrequentRoot(comp); got != 7 {
		t.Fatalf("FrequentRoot = %d", got)
	}
}

// TestAfforestTiedSampleIsDeterministic: when the sample splits evenly
// between two components, the mode must not depend on map iteration order.
// The fixture counts afforest.FrequentRoot's probes per vertex to give two
// components exactly half the probes each — a star and a path, so the
// finish pass's edge count depends on which one is skipped — and requires
// identical one-thread counters over 20 runs.
func TestAfforestTiedSampleIsDeterministic(t *testing.T) {
	const n = 2048
	hits := make([]int, n)
	afforest.Probes(n, func(v int) { hits[v]++ })
	var star, path []uint32
	inStar := 0
	for v := uint32(0); v < n; v++ {
		if inStar+hits[v] <= afforest.Samples/2 {
			star = append(star, v)
			inStar += hits[v]
		} else {
			path = append(path, v)
		}
	}
	if inStar != afforest.Samples/2 || len(star) < 4 || len(path) < 2 {
		t.Fatalf("fixture does not tie: star holds %d of %d probes", inStar, afforest.Samples)
	}
	var edges []graph.Edge
	for _, v := range star[1:] {
		edges = append(edges, graph.Edge{U: star[0], V: v})
	}
	for i := 1; i < len(path); i++ {
		edges = append(edges, graph.Edge{U: path[i-1], V: path[i]})
	}
	g := mustGraph(graph.BuildUndirected(edges))

	pool := parallel.NewPool(1)
	defer pool.Close()
	var first map[counters.Event]int64
	for run := 0; run < 20; run++ {
		cfg := Config{Pool: pool, Ctr: counters.New(1)}
		res := Afforest(g, cfg)
		if res.Labels[star[len(star)-1]] != star[0] || res.Labels[path[len(path)-1]] != path[0] {
			t.Fatalf("run %d: wrong components", run)
		}
		snap := cfg.Ctr.Snapshot()
		if first == nil {
			first = snap
		} else if !maps.Equal(snap, first) {
			t.Fatalf("run %d: counters %v, run 0 %v", run, snap, first)
		}
	}
}

// TestAfforestSkipsGiantEdges: phase 2 must process far fewer edges than
// the whole graph on a giant-component RMAT — the sampling payoff that
// makes Afforest the paper's strongest baseline.
func TestAfforestSkipsGiantEdges(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(13, 16, 4)))
	ctr := counters.New(1)
	Afforest(g, Config{Ctr: ctr})
	edges := ctr.Total(counters.EdgesProcessed)
	// Neighbour rounds cost ≈ 2·|V|; phase 2 only touches non-giant
	// vertices. Altogether this must be well under half the directed slots.
	if edges*2 > g.NumDirectedEdges() {
		t.Fatalf("Afforest processed %d of %d slots — sampling skip not effective",
			edges, g.NumDirectedEdges())
	}
}

// TestJTProcessesEachEdgeOnce: JT's edge loop visits each undirected edge
// exactly once (u<v direction), matching the paper's description.
func TestJTProcessesEachEdgeOnce(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(11, 8, 8)))
	ctr := counters.New(1)
	JayantiTarjan(g, Config{Ctr: ctr})
	edges := ctr.Total(counters.EdgesProcessed)
	want := g.NumDirectedEdges() / 2
	// Self-loops are stored once with u == v and are skipped by the u < v
	// filter, so edges <= want; it must be within the loop-count slack.
	if edges > want || edges < want-int64(g.NumVertices()) {
		t.Fatalf("JT processed %d edges, want ~%d (each edge once)", edges, want)
	}
}

// TestSVTerminatesOnPathologicalShapes: long chains and stars exercise the
// hook/shortcut interplay.
func TestSVTerminatesOnPathologicalShapes(t *testing.T) {
	for name, g := range map[string]func() Result{
		"path": func() Result { return ShiloachVishkin(mustGraph(gen.Path(3000)), Config{}) },
		"star": func() Result { return ShiloachVishkin(mustGraph(gen.Star(3000)), Config{}) },
	} {
		res := g()
		if res.Iterations > 60 {
			t.Fatalf("%s: SV needed %d passes", name, res.Iterations)
		}
	}
}

// TestFastSVLogarithmicPasses: FastSV's grandparent hooking converges in
// O(log n) passes even on a maximum-diameter input. (Plain SV can finish in
// fewer passes here purely through the sequential in-order hook sweep — a
// Gauss-Seidel effect — so the two counts are not directly comparable on
// one core; the logarithmic bound is the meaningful invariant.)
func TestFastSVLogarithmicPasses(t *testing.T) {
	g := mustGraph(gen.Path(5000))
	sv := ShiloachVishkin(g, Config{})
	fsv := FastSV(g, Config{})
	if fsv.Iterations > 40 { // ~3·log2(5000)
		t.Fatalf("FastSV needed %d passes on a 5000-path", fsv.Iterations)
	}
	if !Equivalent(sv.Labels, fsv.Labels) {
		t.Fatal("partitions differ")
	}
}

// TestConnectItBFSSamplingClaimsGiant: after the BFS sampling phase the
// finish loop must skip nearly everything on a one-component graph —
// total edge traversals stay near one full scan (the BFS itself).
func TestConnectItBFSSamplingClaimsGiant(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(12, 16, 6)))
	ctr := counters.New(1)
	ConnectItBFS(g, Config{Ctr: ctr})
	edges := ctr.Total(counters.EdgesProcessed)
	if edges > 2*g.NumDirectedEdges() {
		t.Fatalf("ConnectIt-BFS processed %d of %d slots", edges, g.NumDirectedEdges())
	}
}
