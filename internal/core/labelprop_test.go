package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/bitmap"
	"thriftylp/internal/counters"
	"thriftylp/internal/parallel"
	"thriftylp/internal/worklist"
)

// TestDOLPStartsDense: Algorithm 1 initializes the frontier to all
// vertices, so iteration 0 must be a pull at density >= 1.
func TestDOLPStartsDense(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(10, 8, 1)))
	tr := &counters.Trace{}
	DOLP(g, Config{Trace: tr})
	if tr.Iters[0].Kind != counters.KindPull {
		t.Fatalf("iteration 0 kind = %s", tr.Iters[0].Kind)
	}
	if tr.Iters[0].Density < 1 {
		t.Fatalf("iteration 0 density = %v, want >= 1 (all vertices + all edges active)", tr.Iters[0].Density)
	}
	if tr.Iters[0].Active != int64(g.NumVertices()) {
		t.Fatalf("iteration 0 active = %d, want |V|", tr.Iters[0].Active)
	}
}

// TestDOLPSwitchesToPushWhenSparse: once the frontier shrinks below the
// threshold the traversal must flip to push.
func TestDOLPSwitchesToPushWhenSparse(t *testing.T) {
	// A long path keeps exactly 1-2 active vertices after the wave passes.
	g := mustGraph(gen.Path(2000))
	tr := &counters.Trace{}
	DOLP(g, Config{Trace: tr})
	sawPush := false
	for i, it := range tr.Iters {
		if it.Kind == counters.KindPush {
			sawPush = true
			if it.Density >= DefaultDOLPThreshold {
				t.Fatalf("iteration %d pushed at density %v", i, it.Density)
			}
		}
	}
	if !sawPush {
		t.Fatal("path graph never triggered a push iteration")
	}
}

// TestDOLPThresholdRespected: the direction rule is "push when density <
// threshold". A threshold above any possible density ((|V|+|E|)/|E| < 10)
// forces all-push; a threshold of 0 forces all-pull. Both must still be
// correct.
func TestDOLPThresholdRespected(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(10, 8, 2)))
	rAllPush := DOLP(g, Config{Threshold: 10})
	if rAllPush.PullIterations != 0 {
		t.Fatalf("threshold 10 produced %d pull iterations", rAllPush.PullIterations)
	}
	rAllPull := DOLP(g, Config{Threshold: 1e-300})
	if rAllPull.PushIterations != 0 {
		t.Fatalf("threshold ~0 produced %d push iterations", rAllPull.PushIterations)
	}
	if !Equivalent(rAllPull.Labels, rAllPush.Labels) {
		t.Fatal("threshold changed the partition")
	}
}

// TestFrontierCountsAndFill exercises the dense-frontier plumbing: a
// dolpRule pull returns the changed-vertex count and degree sum and marks
// exactly those vertices, fillFrontier turns the marks into an ascending
// one-thread worklist, and a push from it returns its own counts.
func TestFrontierCountsAndFill(t *testing.T) {
	g := mustGraph(gen.Star(64))
	n := g.NumVertices()
	pool := parallel.NewPool(1)
	defer pool.Close()
	sch := newScheduler(g, Config{}, pool)

	// Hub 0 holds 1 and leaves 5 and 63 hold 2, every other leaf 0: one pull
	// lowers exactly 0, 5 and 63 to a neighbour's smaller label.
	read := make([]uint32, n)
	read[0], read[5], read[63] = 1, 2, 2
	write := slices.Clone(read)
	bm := bitmap.New(n)
	v, e := pullSweep[splitLabels, minLabel, dolpRule](g, sch, read, write, frontier{bm: bm}, nil, noInstr{})
	if v != 3 || bm.Count() != 3 {
		t.Fatalf("pull changed %d vertices, marked %d; want 3", v, bm.Count())
	}
	// Vertex 0 is the hub with degree 63; 5 and 63 are leaves of degree 1.
	if e != 65 {
		t.Fatalf("pull degree sum = %d, want 65", e)
	}
	if d := density(g, v, e); d <= 0 {
		t.Fatalf("density = %v", d)
	}

	ws := worklist.NewQueue(1)
	fillFrontier(pool, ws, bm)
	var got []uint32
	ws.Drain(0, func(v uint32) { got = append(got, v) })
	if !slices.Equal(got, []uint32{0, 5, 63}) {
		t.Fatalf("fillFrontier listed %v, want [0 5 63]", got)
	}
	ws.Reset()
	fillFrontier(pool, ws, bm)

	// After the pull the hub holds 0 and leaves 5 and 63 hold 1: pushing
	// from {0, 5, 63} lowers exactly those two leaves, degree 1 each.
	copy(read, write)
	next := bitmap.New(n)
	v, e = pushSweep[splitLabels, minLabel, dolpRule](g, pool, read, write, ws, frontier{bm: next}, v+e, nil, noInstr{})
	if v != 2 || e != 2 || next.Count() != 2 || !next.Get(5) || !next.Get(63) {
		t.Fatalf("push returned %d vertices, degree sum %d, marked %d; want 2, 2, {5, 63}", v, e, next.Count())
	}
}

// TestTable5InvariantAcrossSuite: Thrifty never needs more iterations than
// DO-LP on skewed graphs (the Table V claim).
func TestTable5InvariantAcrossSuite(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := mustGraph(gen.RMAT(gen.DefaultRMAT(12, 12, seed)))
		rd := DOLP(g, Config{})
		rt := Thrifty(g, Config{})
		if rt.Iterations > rd.Iterations {
			t.Fatalf("seed %d: Thrifty %d iterations > DO-LP %d", seed, rt.Iterations, rd.Iterations)
		}
	}
}

var updateTraces = flag.Bool("update-traces", false, "rewrite testdata/lpfamily_traces.golden from the current kernels")

const lpFamilyTraceGolden = "testdata/lpfamily_traces.golden"

// lpFamilyTraces renders the per-iteration trace of DOLP, DOLPUnified, LP
// and Thrifty (default, NoInitialPush and EagerFrontier) on every
// instrFixtures graph, one line per iteration, at one thread, where
// traversal order and therefore every field is deterministic. Zero and
// Duration are left out: Duration is wall time, and Zero is pinned
// separately by TestTraceZeroCountsLabelZero.
func lpFamilyTraces(t *testing.T) []byte {
	fixtures := instrFixtures(t)
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	pool := parallel.NewPool(1)
	defer pool.Close()
	var b bytes.Buffer
	b.WriteString("# fixture algo index kind active active-edges changed edges density threshold\n")
	for _, name := range names {
		g := fixtures[name]
		for _, algo := range []string{"dolp", "dolp-unified", "lp", "thrifty", "thrifty-no-initial-push", "thrifty-eager-frontier"} {
			tr := &counters.Trace{}
			cfg := Config{Pool: pool, Ctr: counters.New(1), Trace: tr}
			run := instrAlgos[algo]
			switch algo {
			case "thrifty-no-initial-push":
				run, cfg.NoInitialPush = Thrifty, true
			case "thrifty-eager-frontier":
				run, cfg.EagerFrontier = Thrifty, true
			}
			run(g, cfg)
			for _, r := range tr.Iters {
				fmt.Fprintf(&b, "%s %s %d %s %d %d %d %d %v %v\n", name, algo, r.Index, r.Kind,
					r.Active, r.ActiveEdges, r.Changed, r.Edges, r.Density, r.Threshold)
			}
		}
	}
	return b.Bytes()
}

// TestLPFamilyTracesMatchGolden pins the per-iteration direction decisions
// and work of the label-propagation baselines: the kind, frontier size,
// density and edges of every iteration must not move when the kernels are
// restructured. Regenerate with `go test ./internal/core -run
// TestLPFamilyTracesMatchGolden -update-traces` only for a deliberate change
// of algorithm behaviour.
func TestLPFamilyTracesMatchGolden(t *testing.T) {
	got := lpFamilyTraces(t)
	if *updateTraces {
		if err := os.MkdirAll(filepath.Dir(lpFamilyTraceGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lpFamilyTraceGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(lpFamilyTraceGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("trace diverges at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("trace length differs: got %d lines, want %d", len(gl), len(wl))
}

// TestTraceZeroCountsLabelZero: IterRecord.Zero means "vertices holding
// label 0" for every kernel, not a kernel-specific count. The
// label-propagation baselines label each component by its minimum vertex
// id, so at convergence the zero count is the size of vertex 0's component.
func TestTraceZeroCountsLabelZero(t *testing.T) {
	g := instrFixtures(t)["components-4x8"]
	oracle := SeqCC(g)
	var want int64
	for _, l := range oracle {
		if l == oracle[0] {
			want++
		}
	}
	for _, algo := range []string{"dolp", "dolp-unified", "lp"} {
		tr := &counters.Trace{}
		instrAlgos[algo](g, Config{Trace: tr})
		if len(tr.Iters) == 0 {
			t.Fatalf("%s: no trace records", algo)
		}
		if got := tr.Iters[len(tr.Iters)-1].Zero; got != want {
			t.Errorf("%s: last record Zero = %d, want %d (size of vertex 0's component)", algo, got, want)
		}
	}
}

// propagationFixtures are the graphs the hop-distance program and the
// two-array vs one-array comparison run on: skewed, long-diameter, disjoint
// and degenerate shapes.
func propagationFixtures(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	// loophub: the max-degree vertex's only edge is a self-loop, so a root
	// there reaches nothing; every vertex must still be compared with its
	// neighbours once, which iteration 0's full pull does.
	loopHub, err := graph.BuildUndirected(
		[]graph.Edge{{U: 0, V: 0}, {U: 1, V: 2}}, graph.WithNumVertices(4))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"rmat":    mustGraph(gen.RMAT(gen.DefaultRMAT(11, 8, 4))),
		"path":    mustGraph(gen.Path(700)),
		"star":    mustGraph(gen.Star(500)),
		"cliques": mustGraph(gen.Components(4, 7)),
		"web":     mustGraph(gen.Web(gen.WebConfig{CoreScale: 8, CoreEdgeFactor: 6, NumChains: 6, ChainLength: 48, Seed: 2})),
		"grid":    mustGraph(gen.Grid(gen.GridConfig{Rows: 30, Cols: 30})),
		"loophub": loopHub,
	}
}

// bfsOracle computes hop distances from root sequentially.
func bfsOracle(g *graph.Graph, root uint32) []uint32 {
	dist := make([]uint32, g.NumVertices())
	if len(dist) == 0 {
		return dist
	}
	for i := range dist {
		dist[i] = Unreached
	}
	dist[root] = 0
	queue := []uint32{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] == Unreached {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

var hopKernels = []struct {
	name string
	run  func(*graph.Graph, uint32, Config) Result
}{{"two-array", HopDistance}, {"one-array", HopDistanceUnified}}

// TestHopDistanceAgreesWithBFS: with either labels array, the hop-distance
// program's fixed point is the BFS distance from the hub and from the last
// vertex.
func TestHopDistanceAgreesWithBFS(t *testing.T) {
	for name, g := range propagationFixtures(t) {
		for _, root := range []uint32{g.MaxDegreeVertex(), uint32(g.NumVertices() - 1)} {
			want := bfsOracle(g, root)
			for _, k := range hopKernels {
				got := k.run(g, root, Config{}).Labels
				if !slices.Equal(got, want) {
					t.Fatalf("%s root %d %s: distances differ from BFS", name, root, k.name)
				}
			}
		}
	}
}

// TestHopDistanceFromPathEnd: rooted at one end of a path, every distance is
// the number of vertices between, and the root is the only vertex at 0.
func TestHopDistanceFromPathEnd(t *testing.T) {
	g := mustGraph(gen.Path(10))
	for _, k := range hopKernels {
		got := k.run(g, 9, Config{}).Labels
		for v := range 10 {
			if got[v] != uint32(9-v) {
				t.Fatalf("%s: dist[%d] = %d, want %d", k.name, v, got[v], 9-v)
			}
		}
	}
}

// TestPropagationEmptyGraph: every DO-LP program returns no labels and runs
// no iteration on a graph without vertices.
func TestPropagationEmptyGraph(t *testing.T) {
	g := mustGraph(gen.Empty(0))
	runs := map[string]func() Result{
		"dolp":         func() Result { return DOLP(g, Config{}) },
		"dolp-unified": func() Result { return DOLPUnified(g, Config{}) },
	}
	for _, k := range hopKernels {
		runs["hop-"+k.name] = func() Result { return k.run(g, 0, Config{}) }
	}
	for name, run := range runs {
		if res := run(); len(res.Labels) != 0 || res.Iterations != 0 {
			t.Errorf("%s: %d labels, %d iterations on the empty graph", name, len(res.Labels), res.Iterations)
		}
	}
}

// TestEdgelessFrontierHasNoEdges: on a graph with vertices but no edges,
// every traced iteration of Thrifty (with and without the initial push) and
// DO-LP reports no active edges and density 0.
func TestEdgelessFrontierHasNoEdges(t *testing.T) {
	g := mustGraph(gen.Empty(5))
	for name, run := range map[string]func(Config) Result{
		"thrifty":                 func(cfg Config) Result { return Thrifty(g, cfg) },
		"thrifty-no-initial-push": func(cfg Config) Result { cfg.NoInitialPush = true; return Thrifty(g, cfg) },
		"dolp":                    func(cfg Config) Result { return DOLP(g, cfg) },
	} {
		tr := &counters.Trace{}
		res := run(Config{Trace: tr})
		if len(tr.Iters) == 0 || len(res.Labels) != 5 {
			t.Fatalf("%s: %d records, %d labels", name, len(tr.Iters), len(res.Labels))
		}
		for _, r := range tr.Iters {
			if r.ActiveEdges != 0 || r.Density != 0 {
				t.Errorf("%s iteration %d (%s): ActiveEdges %d, Density %v; want 0, 0",
					name, r.Index, r.Kind, r.ActiveEdges, r.Density)
			}
		}
	}
}

// TestQuickHopDistanceAgreesWithBFS runs both hop-distance kernels on random
// 96-vertex multigraphs with self-loops, rooted at the hub.
func TestQuickHopDistanceAgreesWithBFS(t *testing.T) {
	f := func(raw []byte) bool {
		var edges []graph.Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{U: uint32(raw[i] % 96), V: uint32(raw[i+1] % 96)})
		}
		g, err := graph.BuildUndirected(edges, graph.WithNumVertices(96))
		if err != nil {
			return false
		}
		root := g.MaxDegreeVertex()
		want := bfsOracle(g, root)
		for _, k := range hopKernels {
			if !slices.Equal(k.run(g, root, Config{}).Labels, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestUnifiedNeverMoreIterations is the §VII correspondence made checkable:
// one labels array lets values travel several hops per sweep, so it never
// needs more iterations than two arrays, for either program and at either
// threshold. It holds at any thread count: every value in the one array is
// at most its two-array counterpart after each iteration.
func TestUnifiedNeverMoreIterations(t *testing.T) {
	for name, g := range propagationFixtures(t) {
		root := g.MaxDegreeVertex()
		for _, th := range []float64{DefaultDOLPThreshold, DefaultThriftyThreshold} {
			cfg := Config{Threshold: th}
			if two, one := DOLP(g, cfg).Iterations, DOLPUnified(g, cfg).Iterations; one > two {
				t.Errorf("%s threshold %v: DOLPUnified took %d iterations, DOLP %d", name, th, one, two)
			}
			if two, one := HopDistance(g, root, cfg).Iterations, HopDistanceUnified(g, root, cfg).Iterations; one > two {
				t.Errorf("%s threshold %v: HopDistanceUnified took %d iterations, HopDistance %d", name, th, one, two)
			}
		}
	}
}

// TestDOLPMatchesOracleBothArrays: with two labels arrays or one, the CC
// program reaches the oracle's partition at either threshold.
func TestDOLPMatchesOracleBothArrays(t *testing.T) {
	for name, g := range propagationFixtures(t) {
		oracle := SeqCC(g)
		for _, th := range []float64{DefaultDOLPThreshold, DefaultThriftyThreshold} {
			cfg := Config{Threshold: th}
			if !Equivalent(DOLP(g, cfg).Labels, oracle) || !Equivalent(DOLPUnified(g, cfg).Labels, oracle) {
				t.Errorf("%s threshold %v: DO-LP partition differs from the oracle", name, th)
			}
		}
	}
}
