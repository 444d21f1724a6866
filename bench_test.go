// Benchmark harness: one Benchmark family per table and figure of the
// paper's evaluation (§V). Custom metrics (iterations, edges%, speedups)
// ride along as b.ReportMetric values so `go test -bench=. -benchmem`
// regenerates the paper's rows, not just ns/op.
//
// Dataset sizes default to the "small" analog suite so the full sweep
// finishes in minutes; set THRIFTYLP_BENCH_SCALE=medium|large for the
// paper-shaped runs (cmd/ccbench renders the same experiments as tables).
package thriftylp_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"thriftylp/cc"
	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/core"
	"thriftylp/internal/harness"
	"thriftylp/internal/stats"
)

func benchScale() harness.Scale {
	if s := os.Getenv("THRIFTYLP_BENCH_SCALE"); s != "" {
		return harness.Scale(s)
	}
	return harness.ScaleSmall
}

// benchGraph builds (or fetches the memoized) suite dataset.
func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	d, err := harness.FindDataset(benchScale(), name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := harness.BuildCached(benchScale(), d)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchDatasets is the subset of the suite the timed benches sweep: one
// road network, three skewed families, one web crawl.
var benchDatasets = []string{
	"road-gb", "social-pokec", "social-twitter", "web-webbase", "social-friendster",
}

// table4Algos matches the Table IV column order.
var table4Algos = []cc.Algorithm{
	cc.AlgoSV, cc.AlgoBFSCC, cc.AlgoDOLP, cc.AlgoJayantiT, cc.AlgoAfforest, cc.AlgoThrifty,
}

// BenchmarkTable4 regenerates Table IV: wall time of the six algorithms on
// every suite dataset (iterations reported as a metric).
func BenchmarkTable4(b *testing.B) {
	for _, name := range benchDatasets {
		g := benchGraph(b, name)
		for _, a := range table4Algos {
			b.Run(fmt.Sprintf("%s/%s", name, a), func(b *testing.B) {
				var iters int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := cc.Run(a, g)
					if err != nil {
						b.Fatal(err)
					}
					iters = res.Iterations
				}
				b.ReportMetric(float64(iters), "iterations")
				b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
			})
		}
	}
}

// BenchmarkFig1 regenerates Figure 1: the per-baseline speedup of Thrifty,
// reported as the "speedup-vs-thrifty" metric of each baseline sub-bench on
// a Twitter-like graph. The Thrifty reference time is measured directly
// (testing.Benchmark cannot be nested inside a running benchmark).
func BenchmarkFig1(b *testing.B) {
	g := benchGraph(b, "social-twitter")
	perOpThrifty := func() float64 {
		const reps = 5
		best := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, err := cc.Run(cc.AlgoThrifty, g); err != nil {
				b.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return float64(best.Nanoseconds())
	}()
	for _, a := range []cc.Algorithm{cc.AlgoSV, cc.AlgoDOLP, cc.AlgoBFSCC, cc.AlgoJayantiT, cc.AlgoAfforest} {
		b.Run(string(a), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cc.Run(a, g); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perOpThrifty, "speedup-vs-thrifty")
		})
	}
}

// BenchmarkFig2 times the two walkthrough algorithms on the Figure-2 toy
// graph (micro-benchmark of fixed per-iteration overheads).
func BenchmarkFig2(b *testing.B) {
	g, err := gen.PaperFigure2()
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range []cc.Algorithm{cc.AlgoDOLP, cc.AlgoThrifty} {
		b.Run(string(a), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cc.Run(a, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3 regenerates Figure 3's headline number: DO-LP's
// converged-to-final percentage after its first four pull iterations
// (paper: 34.8%), reported as a metric.
func BenchmarkFig3(b *testing.B) {
	g := benchGraph(b, "social-twitter")
	final, err := cc.Run(cc.AlgoDOLP, g)
	if err != nil {
		b.Fatal(err)
	}
	var convergedAt4 float64
	for i := 0; i < b.N; i++ {
		inst := &cc.Instrumentation{}
		inst.OnIteration = func(it cc.IterationStats, labels []uint32) {
			if it.Index == 3 {
				conv := 0
				for v, l := range labels {
					if l == final.Labels[v] {
						conv++
					}
				}
				convergedAt4 = 100 * float64(conv) / float64(len(labels))
			}
		}
		if _, err := cc.Run(cc.AlgoDOLP, g, cc.WithInstrumentation(inst)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(convergedAt4, "converged%-after-4-iters")
}

// BenchmarkTable5 regenerates Table V: iteration counts of DO-LP vs
// Thrifty and their ratio.
func BenchmarkTable5(b *testing.B) {
	for _, name := range []string{"social-twitter", "web-webbase", "web-uk"} {
		g := benchGraph(b, name)
		b.Run(name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				rd, err := cc.Run(cc.AlgoDOLP, g)
				if err != nil {
					b.Fatal(err)
				}
				rt, err := cc.Run(cc.AlgoThrifty, g)
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(rt.Iterations) / float64(rd.Iterations)
			}
			b.ReportMetric(ratio, "iteration-ratio")
		})
	}
}

// BenchmarkFig5 regenerates Figure 5: edge traversals of Thrifty as a
// percentage of |E| and of DO-LP as a multiple of |E|.
func BenchmarkFig5(b *testing.B) {
	for _, name := range []string{"social-twitter", "web-webbase"} {
		g := benchGraph(b, name)
		m := float64(g.NumDirectedEdges())
		for _, a := range []cc.Algorithm{cc.AlgoDOLP, cc.AlgoThrifty} {
			b.Run(fmt.Sprintf("%s/%s", name, a), func(b *testing.B) {
				var edges int64
				for i := 0; i < b.N; i++ {
					inst := &cc.Instrumentation{}
					if _, err := cc.Run(a, g, cc.WithInstrumentation(inst)); err != nil {
						b.Fatal(err)
					}
					edges = inst.Events["edges"]
				}
				b.ReportMetric(100*float64(edges)/m, "edges-pct-of-E")
			})
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: the reduction in the four software
// counter proxies, reported as metrics of one sub-bench per dataset.
func BenchmarkFig6(b *testing.B) {
	for _, name := range []string{"social-twitter", "web-webbase"} {
		g := benchGraph(b, name)
		b.Run(name, func(b *testing.B) {
			var metrics map[string]float64
			for i := 0; i < b.N; i++ {
				instD, instT := &cc.Instrumentation{}, &cc.Instrumentation{}
				if _, err := cc.Run(cc.AlgoDOLP, g, cc.WithInstrumentation(instD)); err != nil {
					b.Fatal(err)
				}
				if _, err := cc.Run(cc.AlgoThrifty, g, cc.WithInstrumentation(instT)); err != nil {
					b.Fatal(err)
				}
				red := func(k string) float64 {
					return 100 * (1 - float64(instT.Events[k])/float64(instD.Events[k]))
				}
				metrics = map[string]float64{
					"llc-reduction%":    red("cache-lines"),
					"mem-reduction%":    100 * (1 - float64(instT.Events["label-loads"]+instT.Events["label-stores"])/float64(instD.Events["label-loads"]+instD.Events["label-stores"])),
					"branch-reduction%": red("branch-checks"),
					"instr-reduction%":  100 * (1 - float64(instT.Events["edges"]+instT.Events["vertex-visits"])/float64(instD.Events["edges"]+instD.Events["vertex-visits"])),
				}
			}
			for k, v := range metrics {
				b.ReportMetric(v, k)
			}
		})
	}
}

// BenchmarkFig7 regenerates Figures 7/8's headline: Thrifty's
// converged-to-final percentage after its first pull iteration (paper:
// 88.3%).
func BenchmarkFig7(b *testing.B) {
	g := benchGraph(b, "social-twitter")
	final, err := cc.Run(cc.AlgoThrifty, g)
	if err != nil {
		b.Fatal(err)
	}
	var afterFirstPull float64
	for i := 0; i < b.N; i++ {
		inst := &cc.Instrumentation{}
		inst.OnIteration = func(it cc.IterationStats, labels []uint32) {
			if it.Index == 1 { // iteration 1 = first pull (0 is the initial push)
				conv := 0
				for v, l := range labels {
					if l == final.Labels[v] {
						conv++
					}
				}
				afterFirstPull = 100 * float64(conv) / float64(len(labels))
			}
		}
		if _, err := cc.Run(cc.AlgoThrifty, g, cc.WithInstrumentation(inst)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(afterFirstPull, "converged%-after-first-pull")
}

// BenchmarkTable6 regenerates Table VI: first-iteration time of DO-LP vs
// Thrifty's initial push + first pull, as a speedup metric.
func BenchmarkTable6(b *testing.B) {
	g := benchGraph(b, "social-twitter")
	b.Run("first-iteration-speedup", func(b *testing.B) {
		var speedup float64
		for i := 0; i < b.N; i++ {
			instD, instT := &cc.Instrumentation{}, &cc.Instrumentation{}
			if _, err := cc.Run(cc.AlgoDOLP, g, cc.WithInstrumentation(instD)); err != nil {
				b.Fatal(err)
			}
			if _, err := cc.Run(cc.AlgoThrifty, g, cc.WithInstrumentation(instT)); err != nil {
				b.Fatal(err)
			}
			d0 := instD.Iterations[0].Duration.Seconds()
			t01 := instT.Iterations[0].Duration.Seconds() + instT.Iterations[1].Duration.Seconds()
			speedup = d0 / t01
		}
		b.ReportMetric(speedup, "first-iter-speedup")
	})
}

// BenchmarkTable7 regenerates Table VII: Thrifty under a 1% vs 5%
// push/pull threshold on the web-crawl analog.
func BenchmarkTable7(b *testing.B) {
	g := benchGraph(b, "web-uk")
	for _, th := range []float64{0.01, 0.05} {
		b.Run(fmt.Sprintf("threshold-%.0f%%", th*100), func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := cc.Run(cc.AlgoThrifty, g, cc.WithThreshold(th))
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}

// BenchmarkFig9 regenerates Figures 9/10: the three-way ablation DO-LP vs
// DO-LP+Unified vs Thrifty (compare the sub-benches' ns/op).
func BenchmarkFig9(b *testing.B) {
	for _, name := range []string{"social-twitter", "web-webbase"} {
		g := benchGraph(b, name)
		for _, a := range []cc.Algorithm{cc.AlgoDOLP, cc.AlgoDOLPUnified, cc.AlgoThrifty} {
			b.Run(fmt.Sprintf("%s/%s", name, a), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := cc.Run(a, g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable1 regenerates Table I's measurement: the fraction of
// vertices in the max-degree vertex's component.
func BenchmarkTable1(b *testing.B) {
	for _, name := range []string{"social-twitter", "web-webbase"} {
		g := benchGraph(b, name)
		b.Run(name, func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				labels := cc.Sequential(g)
				frac = stats.MaxDegreeComponentFraction(g, labels)
			}
			b.ReportMetric(frac, "hub-component-%")
		})
	}
}

// BenchmarkTable2 times dataset generation + census (the Table II
// inventory pipeline), reporting the component count.
func BenchmarkTable2(b *testing.B) {
	for _, name := range []string{"social-pokec", "road-gb"} {
		b.Run(name, func(b *testing.B) {
			var comps int
			for i := 0; i < b.N; i++ {
				g := benchGraph(b, name)
				comps = stats.Census(cc.Sequential(g)).NumComponents
			}
			b.ReportMetric(float64(comps), "components")
		})
	}
}

// BenchmarkAblations regenerates the extension ablation (ccbench -exp
// ablations): one sub-bench per disabled design choice.
func BenchmarkAblations(b *testing.B) {
	g := benchGraph(b, "social-twitter")
	variants := []struct {
		name string
		opts []cc.Option
	}{
		{"full-thrifty", nil},
		{"no-initial-push", []cc.Option{cc.WithoutInitialPush()}},
		{"plant-at-v0", []cc.Option{cc.WithPlantVertex(0)}},
		{"eager-frontier", []cc.Option{cc.WithEagerPullFrontier()}},
		{"dynamic-scheduling", []cc.Option{cc.WithDynamicScheduling()}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cc.Run(cc.AlgoThrifty, g, v.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConnectIt regenerates the extension comparison against the
// ConnectIt framework points (ccbench -exp connectit).
func BenchmarkConnectIt(b *testing.B) {
	g := benchGraph(b, "social-twitter")
	for _, a := range []cc.Algorithm{cc.AlgoAfforest, cc.AlgoConnectItKOut, cc.AlgoConnectItBFS, cc.AlgoThrifty} {
		b.Run(string(a), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cc.Run(a, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributed regenerates the sharded-exchange extension
// (ccbench -exp dist), reporting exchange traffic as metrics.
func BenchmarkDistributed(b *testing.B) {
	g := benchGraph(b, "social-twitter")
	for _, shards := range []int{4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			var bytes, suppressed int64
			for i := 0; i < b.N; i++ {
				res, err := cc.Run(cc.AlgoShard, g, cc.WithShards(shards))
				if err != nil {
					b.Fatal(err)
				}
				bytes = res.Stats.Shard.ExchangedBytes
				suppressed = res.Stats.Shard.SuppressedVertices
			}
			b.ReportMetric(float64(bytes), "exchanged-bytes")
			b.ReportMetric(float64(suppressed), "suppressed")
		})
	}
}

// BenchmarkAsyncEngine times the hop-distance program of the sync-vs-async
// extension (ccbench -exp async), reporting iteration counts as metrics.
// Its CC half is DOLP vs DOLPUnified, which BenchmarkFastPathBaselines
// already times.
func BenchmarkAsyncEngine(b *testing.B) {
	g := benchGraph(b, "web-webbase")
	root := g.MaxDegreeVertex()
	cfg := core.Config{Threshold: core.DefaultThriftyThreshold}
	for _, k := range []struct {
		name string
		run  func(*graph.Graph, uint32, core.Config) core.Result
	}{{"sync", core.HopDistance}, {"async", core.HopDistanceUnified}} {
		b.Run(k.name, func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				iters = k.run(g, root, cfg).Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}

// BenchmarkGraphBuild measures CSR construction throughput, the substrate
// cost underneath every experiment.
func BenchmarkGraphBuild(b *testing.B) {
	edges, err := gen.RMATEdges(gen.DefaultRMAT(16, 8, 5))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.BuildUndirected(edges); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
}

// BenchmarkIngest measures end-to-end graph ingestion through graph.Ingest —
// text edge-list parse plus CSR build, and binary CSR load — on one RMAT
// fixture; the bytes/op setting makes `go test` report input MB/s.
func BenchmarkIngest(b *testing.B) {
	g, err := gen.RMATCompact(gen.DefaultRMAT(16, 8, 42))
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	el, bin := filepath.Join(dir, "g.el"), filepath.Join(dir, "g.bin")
	f, err := os.Create(el)
	if err != nil {
		b.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	if err := graph.SaveBinary(bin, g); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct{ name, path string }{{"edgelist", el}, {"binary", bin}} {
		fi, err := os.Stat(c.path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(fi.Size())
			for i := 0; i < b.N; i++ {
				h, _, err := graph.Ingest(c.path)
				if err != nil {
					b.Fatal(err)
				}
				if err := h.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
