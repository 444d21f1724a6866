package core

import (
	"fmt"
	"testing"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/counters"
	"thriftylp/internal/parallel"
)

// The instrumentation-policy split (instr.go) must be invisible to results:
// the monomorphized fast path and the counting path are the same kernel, so
// they must produce identical labels, and the counting path must report the
// same counter totals as the pre-split implementation did.

// instrFixtures are small deterministic graphs exercising every traversal
// regime: hub push, long sparse chains, multiple components, and RMAT /
// web-analog skew.
func instrFixtures(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for name, build := range map[string]func() (*graph.Graph, error){
		"figure2":        gen.PaperFigure2,
		"star-64":        func() (*graph.Graph, error) { return gen.Star(64) },
		"path-100":       func() (*graph.Graph, error) { return gen.Path(100) },
		"components-4x8": func() (*graph.Graph, error) { return gen.Components(4, 8) },
		"rmat-small":     func() (*graph.Graph, error) { return gen.RMATCompact(gen.DefaultRMAT(12, 8, 7)) },
		"weblike-small":  func() (*graph.Graph, error) { return gen.Web(gen.DefaultWeb(10, 7)) },
	} {
		g, err := build()
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		out[name] = g
	}
	return out
}

var instrAlgos = map[string]func(*graph.Graph, Config) Result{
	"thrifty":        Thrifty,
	"dolp":           DOLP,
	"dolp-unified":   DOLPUnified,
	"lp":             LP,
	"sv":             ShiloachVishkin,
	"fastsv":         FastSV,
	"jt":             JayantiTarjan,
	"bfs":            BFSCC,
	"afforest":       Afforest,
	"connectit-kout": ConnectItKOut,
	"connectit-bfs":  ConnectItBFS,
}

// TestFastPathMatchesInstrumented asserts the noInstr and counting kernel
// instantiations compute identical results. Both runs share a 1-thread pool:
// the label fixed point is unique per algorithm regardless of scheduling,
// but iteration counts are timing-sensitive on the unified labels array
// (in-iteration visibility depends on interleaving), and the policy-
// equivalence claim is about traversal structure, not scheduling luck.
func TestFastPathMatchesInstrumented(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	for name, g := range instrFixtures(t) {
		for algo, run := range instrAlgos {
			t.Run(fmt.Sprintf("%s/%s", name, algo), func(t *testing.T) {
				fastCfg := Config{Pool: pool}
				if !fastCfg.fastInstr() {
					t.Fatal("counter-free Config should select the fast path")
				}
				fast := run(g, fastCfg)

				instCfg := Config{
					Pool:  pool,
					Ctr:   counters.New(1),
					Lines: counters.NewLineTracker(g.NumVertices()),
					Trace: &counters.Trace{},
				}
				if instCfg.fastInstr() {
					t.Fatal("instrumented Config must not select the fast path")
				}
				inst := run(g, instCfg)

				if fast.Iterations != inst.Iterations {
					t.Errorf("iterations diverge: fast %d, instrumented %d", fast.Iterations, inst.Iterations)
				}
				for v := range fast.Labels {
					if fast.Labels[v] != inst.Labels[v] {
						t.Fatalf("label diverges at vertex %d: fast %d, instrumented %d",
							v, fast.Labels[v], inst.Labels[v])
					}
				}
				if instCfg.Ctr.Total(counters.EdgesProcessed) == 0 && g.NumDirectedEdges() > 0 {
					t.Error("instrumented run recorded no edge traversals")
				}
			})
		}
	}
}

// seedCounterGoldens pins the instrumented counter totals measured on the
// pre-policy implementation of each kernel with a single-thread pool, where
// traversal order — and therefore every counter — is deterministic. The
// policy split must not change what the counting path counts.
var seedCounterGoldens = []struct {
	fixture                                            string
	algo                                               string
	edges, visits, loads, stores, cas, branches, lines int64
}{
	{"figure2", "thrifty", 8, 22, 26, 6, 4, 35, 4},
	{"figure2", "dolp", 80, 35, 150, 52, 0, 115, 15},
	{"figure2", "dolp-unified", 32, 14, 46, 6, 0, 46, 2},
	{"figure2", "lp", 80, 35, 115, 17, 0, 115, 0},
	{"star-64", "thrifty", 63, 65, 65, 63, 63, 127, 8},
	{"star-64", "dolp", 252, 128, 508, 191, 0, 380, 24},
	{"star-64", "dolp-unified", 252, 128, 380, 63, 0, 380, 8},
	{"star-64", "lp", 252, 128, 380, 63, 0, 380, 0},
	{"path-100", "thrifty", 99, 201, 298, 99, 2, 493, 15},
	{"path-100", "dolp", 19215, 9706, 38921, 14950, 9, 28915, 2082},
	{"path-100", "dolp-unified", 396, 200, 596, 99, 0, 596, 14},
	{"path-100", "lp", 19800, 10000, 29800, 4950, 0, 29800, 0},
	{"components-4x8", "thrifty", 343, 65, 401, 28, 7, 476, 5},
	{"components-4x8", "dolp", 448, 64, 576, 92, 0, 512, 12},
	{"components-4x8", "dolp-unified", 448, 64, 512, 28, 0, 512, 4},
	{"components-4x8", "lp", 448, 64, 512, 28, 0, 512, 0},
	{"rmat-small", "thrifty", 3160, 9022, 11281, 3005, 901, 16480, 751},
	{"rmat-small", "dolp", 214437, 12281, 244760, 26126, 301, 226465, 3142},
	{"rmat-small", "dolp-unified", 160612, 9030, 169642, 3653, 10, 169633, 572},
	{"rmat-small", "lp", 321204, 18042, 339246, 8084, 0, 339246, 0},
	{"weblike-small", "thrifty", 2087, 3335, 4666, 1257, 756, 6886, 407},
	{"weblike-small", "dolp", 70884, 5254, 180484, 107758, 2044, 75100, 13791},
	{"weblike-small", "dolp-unified", 51972, 3334, 55306, 1304, 342, 55134, 352},
	{"weblike-small", "lp", 1703790, 104346, 1808136, 3372, 0, 1808136, 0},
	// The union-find, hooking and BFS kernels, measured while they still
	// counted into hand-incremented blocks. They track no cache lines.
	{"figure2", "sv", 32, 28, 98, 6, 6, 46, 0},
	{"figure2", "fastsv", 64, 56, 184, 41, 156, 156, 0},
	{"figure2", "jt", 8, 7, 53, 6, 6, 16, 0},
	{"figure2", "bfs", 16, 7, 0, 6, 16, 0, 0},
	{"figure2", "afforest", 12, 35, 79, 6, 6, 13, 0},
	{"figure2", "connectit-kout", 20, 35, 106, 10, 6, 15, 0},
	{"figure2", "connectit-bfs", 16, 21, 28, 6, 16, 7, 0},
	{"star-64", "sv", 252, 256, 823, 63, 63, 380, 0},
	{"star-64", "fastsv", 252, 256, 760, 191, 632, 632, 0},
	{"star-64", "jt", 63, 64, 486, 108, 108, 126, 0},
	{"star-64", "bfs", 126, 64, 0, 63, 126, 0, 0},
	{"star-64", "afforest", 65, 320, 641, 63, 63, 127, 0},
	{"star-64", "connectit-kout", 128, 320, 767, 63, 63, 127, 0},
	{"star-64", "connectit-bfs", 126, 192, 256, 63, 126, 64, 0},
	{"path-100", "sv", 396, 400, 1291, 99, 99, 596, 0},
	{"path-100", "fastsv", 1584, 1600, 4768, 1373, 3968, 3968, 0},
	{"path-100", "jt", 99, 100, 874, 195, 195, 198, 0},
	{"path-100", "bfs", 198, 100, 0, 99, 198, 0, 0},
	{"path-100", "afforest", 198, 500, 1195, 99, 99, 199, 0},
	{"path-100", "connectit-kout", 323, 500, 1849, 246, 99, 224, 0},
	{"path-100", "connectit-bfs", 198, 300, 400, 99, 198, 100, 0},
	{"components-4x8", "sv", 448, 128, 1052, 28, 28, 512, 0},
	{"components-4x8", "fastsv", 448, 128, 1024, 92, 960, 960, 0},
	{"components-4x8", "jt", 112, 32, 688, 49, 49, 224, 0},
	{"components-4x8", "bfs", 224, 32, 0, 28, 224, 0, 0},
	{"components-4x8", "afforest", 184, 160, 596, 28, 28, 60, 0},
	{"components-4x8", "connectit-kout", 232, 160, 738, 38, 29, 73, 0},
	{"components-4x8", "connectit-bfs", 224, 72, 461, 28, 77, 53, 0},
	{"rmat-small", "sv", 107068, 12028, 253634, 5975, 21528, 116053, 0},
	{"rmat-small", "fastsv", 267670, 30070, 565410, 24666, 550375, 550375, 0},
	{"rmat-small", "jt", 26767, 3007, 169303, 5870, 5870, 53534, 0},
	{"rmat-small", "bfs", 3941, 9037, 0, 3004, 559, 12403, 0},
	{"rmat-small", "afforest", 5369, 15035, 52119, 5991, 4689, 9327, 0},
	{"rmat-small", "connectit-kout", 6034, 15035, 65328, 5985, 7645, 12364, 0},
	{"rmat-small", "connectit-bfs", 3468, 15038, 12034, 3004, 905, 14591, 0},
	{"weblike-small", "sv", 51630, 6324, 117991, 2025, 6463, 55764, 0},
	{"weblike-small", "fastsv", 154890, 18972, 328752, 12746, 319266, 319266, 0},
	{"weblike-small", "jt", 8605, 1054, 54654, 2102, 2102, 17210, 0},
	{"weblike-small", "bfs", 2870, 2313, 0, 1053, 1815, 3163, 0},
	{"weblike-small", "afforest", 1990, 5270, 18035, 2077, 1640, 2898, 0},
	{"weblike-small", "connectit-kout", 2402, 5270, 21578, 2176, 2197, 3796, 0},
	{"weblike-small", "connectit-bfs", 2043, 4415, 4216, 1053, 800, 4405, 0},
}

func TestInstrumentedCountersMatchSeed(t *testing.T) {
	fixtures := instrFixtures(t)
	pool := parallel.NewPool(1)
	defer pool.Close()
	for _, gold := range seedCounterGoldens {
		t.Run(fmt.Sprintf("%s/%s", gold.fixture, gold.algo), func(t *testing.T) {
			g := fixtures[gold.fixture]
			cfg := Config{
				Pool:  pool,
				Ctr:   counters.New(1),
				Lines: counters.NewLineTracker(g.NumVertices()),
				Trace: &counters.Trace{},
			}
			instrAlgos[gold.algo](g, cfg)
			got := map[string]int64{
				"edges":         cfg.Ctr.Total(counters.EdgesProcessed),
				"vertex-visits": cfg.Ctr.Total(counters.VertexVisits),
				"label-loads":   cfg.Ctr.Total(counters.LabelLoads),
				"label-stores":  cfg.Ctr.Total(counters.LabelStores),
				"cas-ops":       cfg.Ctr.Total(counters.CASOps),
				"branch-checks": cfg.Ctr.Total(counters.BranchChecks),
				"cache-lines":   cfg.Ctr.Total(counters.CacheLines),
			}
			want := map[string]int64{
				"edges":         gold.edges,
				"vertex-visits": gold.visits,
				"label-loads":   gold.loads,
				"label-stores":  gold.stores,
				"cas-ops":       gold.cas,
				"branch-checks": gold.branches,
				"cache-lines":   gold.lines,
			}
			for k, w := range want {
				if got[k] != w {
					t.Errorf("%s: got %d, seed value %d", k, got[k], w)
				}
			}
		})
	}
}

// TestFastInstrSelection pins the policy-selection rule: the fast path is
// chosen exactly when counters, line tracking and tracing are all absent.
func TestFastInstrSelection(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		fast bool
	}{
		{"zero-config", Config{}, true},
		{"tuning-only", Config{Threshold: 0.05, NoInitialPush: true, DynamicScheduling: true}, true},
		{"counters", Config{Ctr: counters.New(1)}, false},
		{"lines", Config{Lines: counters.NewLineTracker(16)}, false},
		{"trace", Config{Trace: &counters.Trace{}}, false},
		{"faults", Config{Faults: &FaultPlan{}}, false},
	}
	for _, c := range cases {
		if got := c.cfg.fastInstr(); got != c.fast {
			t.Errorf("%s: fastInstr() = %v, want %v", c.name, got, c.fast)
		}
	}
}

// TestFaultsComposeWithCounters: a fault plan only perturbs scheduling, so a
// one-thread run under a plan must report the same counter totals and
// cache lines as the same run without one, and the plan must still tick.
func TestFaultsComposeWithCounters(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(1)
	defer pool.Close()
	for _, algo := range []string{"thrifty", "dolp"} {
		t.Run(algo, func(t *testing.T) {
			run := func(plan *FaultPlan) *counters.Counters {
				cfg := Config{
					Pool:   pool,
					Ctr:    counters.New(1),
					Lines:  counters.NewLineTracker(g.NumVertices()),
					Faults: plan,
				}
				instrAlgos[algo](g, cfg)
				return cfg.Ctr
			}
			plan := &FaultPlan{GoschedEvery: 101}
			want, got := run(nil), run(plan)
			if plan.Events() == 0 {
				t.Fatal("the plan ticked no hook events")
			}
			for _, e := range counters.Events() {
				if got.Total(e) != want.Total(e) {
					t.Errorf("%s: %d under the plan, %d without it", e, got.Total(e), want.Total(e))
				}
			}
		})
	}
}
