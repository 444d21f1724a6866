package dist

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/core"
	"thriftylp/internal/parallel"
	"thriftylp/internal/shard"
)

func mustGraph(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// families mirrors the harness's ten generator families at test scale
// (harness imports this package, so the list is replicated rather than
// imported).
func families() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat":         mustGraph(gen.RMAT(gen.DefaultRMAT(11, 8, 42))),
		"rmat-compact": mustGraph(gen.RMATCompact(gen.DefaultRMAT(11, 8, 42))),
		"web":          mustGraph(gen.Web(gen.DefaultWeb(10, 42))),
		"road":         mustGraph(gen.Grid(gen.GridConfig{Rows: 48, Cols: 48, DropFraction: 0.05, Seed: 42})),
		"er":           mustGraph(gen.ErdosRenyi(1<<11, 1<<13, 42)),
		"ba":           mustGraph(gen.BarabasiAlbert(3_000, 3, 42)),
		"star":         mustGraph(gen.Star(4_000)),
		"path":         mustGraph(gen.Path(4_000)),
		"cliques":      mustGraph(gen.Components(12, 20)),
		"complete":     mustGraph(gen.Complete(120)),
	}
}

// TestShardedEquivalence pins the sharded solve to a from-scratch
// single-CSR Thrifty run: label bijection on all ten generator families at
// 1, 2, 4, and 8 shards.
func TestShardedEquivalence(t *testing.T) {
	for name, g := range families() {
		t.Run(name, func(t *testing.T) {
			want := core.Thrifty(g, core.Config{})
			for _, shards := range []int{1, 2, 4, 8} {
				res, err := RunSource(shard.NewGraphSource(g, shards), Config{})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if !core.Equivalent(res.Labels, want.Labels) {
					t.Fatalf("shards=%d: partition differs from unsharded Thrifty", shards)
				}
				if !core.VerifyAgainstGraph(g, res.Labels) {
					t.Fatalf("shards=%d: labelling inconsistent with the graph", shards)
				}
			}
		})
	}
}

// TestShardedLabelValueSpace checks the documented value space directly:
// hub component 0, every other component min-vertex-id + 1.
func TestShardedLabelValueSpace(t *testing.T) {
	g := mustGraph(gen.Components(8, 16))
	res, err := RunSource(shard.NewGraphSource(g, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.SeqCC(g) // min vertex id per component
	hubComp := oracle[g.MaxDegreeVertex()]
	for v, l := range res.Labels {
		want := oracle[v] + 1
		if oracle[v] == hubComp {
			want = 0
		}
		if l != want {
			t.Fatalf("labels[%d] = %d, want %d", v, l, want)
		}
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"empty":    mustGraph(gen.Empty(0)),
		"isolated": mustGraph(gen.Empty(10)),
		"single":   mustGraph(gen.Empty(1)),
		"loops-only": mustGraph(graph.BuildUndirected(
			[]graph.Edge{{U: 0, V: 0}, {U: 2, V: 2}}, graph.WithNumVertices(3))),
		"loophub": mustGraph(graph.BuildUndirected(
			[]graph.Edge{{U: 0, V: 0}, {U: 1, V: 2}}, graph.WithNumVertices(4))),
	} {
		res, err := RunSource(shard.NewGraphSource(g, 4), Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Labels) != g.NumVertices() {
			t.Fatalf("%s: %d labels for %d vertices", name, len(res.Labels), g.NumVertices())
		}
		if !core.VerifyAgainstGraph(g, res.Labels) {
			t.Fatalf("%s: wrong partition", name)
		}
	}
}

// TestOnDiskSetMatchesInMemory solves the same graph from an on-disk shard
// set and from in-memory views; both must match the unsharded kernel and
// each other exactly.
func TestOnDiskSetMatchesInMemory(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(11, 8, 7)))
	dir := t.TempDir()
	if _, err := shard.Write(g, dir, 4); err != nil {
		t.Fatal(err)
	}
	set, err := shard.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fromDisk, err := RunSource(set, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fromMem, err := RunSource(shard.NewGraphSource(g, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := core.Thrifty(g, core.Config{})
	if !core.Equivalent(fromDisk.Labels, want.Labels) || !core.Equivalent(fromMem.Labels, want.Labels) {
		t.Fatal("sharded partitions differ from unsharded Thrifty")
	}
	for i := range fromDisk.Labels {
		if fromDisk.Labels[i] != fromMem.Labels[i] {
			t.Fatalf("labels[%d]: disk %d vs mem %d", i, fromDisk.Labels[i], fromMem.Labels[i])
		}
	}
}

// TestCompactionBeatsNaive asserts the exchange compaction invariant: on
// hub-heavy inputs, at 2, 4 and 8 shards, the compacted exchange ships
// strictly fewer bytes than the naive full-boundary exchange, and
// zero-convergence suppression actually fires.
func TestCompactionBeatsNaive(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"rmat": mustGraph(gen.RMAT(gen.DefaultRMAT(12, 8, 42))),
		"star": mustGraph(gen.Star(10_000)),
	} {
		for _, shards := range []int{2, 4, 8} {
			res, err := RunSource(shard.NewGraphSource(g, shards), Config{})
			if err != nil {
				t.Fatal(err)
			}
			if res.BoundaryEntries == 0 {
				t.Fatalf("%s/%d: no boundary entries", name, shards)
			}
			if res.ExchangedBytes >= res.NaiveBytes {
				t.Fatalf("%s/%d: compacted exchange %d B >= naive %d B", name, shards, res.ExchangedBytes, res.NaiveBytes)
			}
			if res.SuppressedVertices == 0 {
				t.Fatalf("%s/%d: zero-convergence suppression never fired", name, shards)
			}
			if len(res.PerRound) != res.Rounds {
				t.Fatalf("%s/%d: %d per-round entries for %d rounds", name, shards, len(res.PerRound), res.Rounds)
			}
			var sumB, sumN int64
			for _, r := range res.PerRound {
				sumB += r.Bytes
				sumN += r.NaiveBytes
			}
			if sumB != res.ExchangedBytes || sumN != res.NaiveBytes {
				t.Fatalf("%s/%d: per-round stats do not sum to totals", name, shards)
			}
		}
	}
}

func TestCancellation(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(11, 8, 3)))
	stop := &core.Stop{}
	stop.Request()
	res, err := RunSource(shard.NewGraphSource(g, 4), Config{Stop: stop})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("pre-requested Stop did not cancel the run")
	}
}

// TestNegativeRoundCap pins the round-cap rule core.IterationCap states: a
// negative cap selects the default like 0 does, so the run converges,
// while a positive cap still binds.
func TestNegativeRoundCap(t *testing.T) {
	g := mustGraph(gen.Web(gen.DefaultWeb(10, 42)))
	res, err := RunSource(shard.NewGraphSource(g, 4), Config{MaxRounds: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 || !core.VerifyAgainstGraph(g, res.Labels) {
		t.Fatalf("MaxRounds -1: %d rounds, labels verify %v", res.Rounds, core.VerifyAgainstGraph(g, res.Labels))
	}
	if res, err = RunSource(shard.NewGraphSource(g, 4), Config{MaxRounds: 1}); err != nil || res.Rounds != 1 {
		t.Fatalf("MaxRounds 1: %d rounds, err %v", res.Rounds, err)
	}
}

// TestQuickShardedAgreesWithOracle: random multigraphs (duplicates,
// self-loops, arbitrary shapes) at random shard counts.
func TestQuickShardedAgreesWithOracle(t *testing.T) {
	f := func(raw []byte, shards uint8) bool {
		var edges []graph.Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{U: uint32(raw[i] % 64), V: uint32(raw[i+1] % 64)})
		}
		g, err := graph.BuildUndirected(edges, graph.WithNumVertices(64))
		if err != nil {
			return false
		}
		res, err := RunSource(shard.NewGraphSource(g, int(shards%9)+1), Config{})
		if err != nil {
			return false
		}
		return core.Equivalent(res.Labels, core.SeqCC(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestChaosExchange runs the sharded solve with scheduling perturbations
// injected into every exchange round, under -race in CI: correctness must
// survive arbitrary interleavings of the double-buffered exchange.
func TestChaosExchange(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(10, 8, 9)))
	want := core.Thrifty(g, core.Config{})
	var ticks atomic.Int64
	for _, shards := range []int{2, 4, 8} {
		res, err := RunSource(shard.NewGraphSource(g, shards), Config{
			ExchangeFault: func(round, node int) {
				n := ticks.Add(1)
				if n%2 == 0 {
					runtime.Gosched()
				}
				if n%17 == 0 {
					time.Sleep(20 * time.Microsecond)
				}
			},
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !core.Equivalent(res.Labels, want.Labels) {
			t.Fatalf("shards=%d: chaos run produced a wrong partition", shards)
		}
	}
	if ticks.Load() == 0 {
		t.Fatal("exchange fault hook never fired")
	}
}

// TestChaosExchangePanic injects a panic from inside an exchange round and
// checks it surfaces as a *parallel.PanicError without wedging the pool.
func TestChaosExchangePanic(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(10, 8, 9)))
	func() {
		defer func() {
			// The panic surfaces raw when the faulting chunk ran on the
			// calling goroutine, wrapped in *parallel.PanicError when it ran
			// on a pool worker; both must carry the injected value.
			switch r := recover().(type) {
			case *parallel.PanicError:
				if !strings.Contains(r.Error(), "injected exchange fault") {
					t.Fatalf("panic value %v does not carry the injected fault", r)
				}
			case string:
				if r != "injected exchange fault" {
					t.Fatalf("panic value %q, want the injected fault", r)
				}
			default:
				t.Fatalf("recovered %T %v, want the injected fault", r, r)
			}
		}()
		RunSource(shard.NewGraphSource(g, 4), Config{ExchangeFault: func(round, node int) {
			if round == 1 && node == 2 {
				panic("injected exchange fault")
			}
		}})
		t.Fatal("injected panic did not surface")
	}()
	// The pool must remain usable after the panic.
	res, err := RunSource(shard.NewGraphSource(g, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !core.VerifyAgainstGraph(g, res.Labels) {
		t.Fatal("post-panic run produced a wrong partition")
	}
}

// TestChaosOnDiskSet drives the out-of-core path under fault injection:
// fresh mmap per shard, then a perturbed exchange.
func TestChaosOnDiskSet(t *testing.T) {
	g := mustGraph(gen.RMATCompact(gen.DefaultRMAT(10, 8, 5)))
	dir := t.TempDir()
	if _, err := shard.Write(g, dir, 4); err != nil {
		t.Fatal(err)
	}
	set, err := shard.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Thrifty(g, core.Config{})
	res, err := RunSource(set, Config{
		ExchangeFault: func(round, node int) { runtime.Gosched() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !core.Equivalent(res.Labels, want.Labels) {
		t.Fatal("chaos on-disk run produced a wrong partition")
	}
}

// BenchmarkRunSourceSet is one op of the repository benchmark's
// shard-social workload, without its harness: a compacted RMAT-14 graph
// written as a 2-shard on-disk set, then Open and RunSource per iteration —
// both shards' mmap, union-find collapse and boundary build, and the
// exchange.
func BenchmarkRunSourceSet(b *testing.B) {
	g := mustGraph(gen.RMATCompact(gen.DefaultRMAT(14, 16, 42)))
	dir := b.TempDir()
	if _, err := shard.Write(g, dir, 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := shard.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunSource(set, Config{})
		if err != nil {
			b.Fatal(err)
		}
		benchResult = res
	}
}

// benchResult keeps BenchmarkRunSourceSet's result live.
var benchResult Result
