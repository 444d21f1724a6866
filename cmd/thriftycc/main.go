// Command thriftycc runs a connected-components algorithm on a graph and
// reports the component census and timing.
//
// The graph comes either from a file (-in, text edge list or .bin binary
// CSR produced by graphgen), from a sharded CSR set directory (-in pointed
// at a directory graphgen -shards produced — solved out-of-core, one shard
// resident at a time), or from an inline generator spec (-gen):
//
//	thriftycc -gen rmat:20:16 -algo thrifty
//	thriftycc -gen road:1000000 -algo afforest -verify
//	thriftycc -in graph.bin -algo all -reps 3
//	thriftycc -in shards-dir/ -verify -labels out.labels
//	thriftycc -gen web:16 -algo shard -shards 8
//
// Generator specs: rmat:<scale>[:<edgefactor>], road:<vertices>,
// er:<vertices>[:<edges>], web:<scale>, ba:<vertices>[:<m>],
// star:<vertices>, path:<vertices>.
//
// -shards sets the shard count for -algo shard runs; -labels writes the
// computed per-vertex labels (one decimal per line, vertex order) so
// results can be diffed across paths.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"thriftylp/cc"
	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/core"
	"thriftylp/internal/dist"
	"thriftylp/internal/obs"
	"thriftylp/internal/parallel"
	"thriftylp/internal/shard"
	"thriftylp/internal/stats"
)

func main() {
	var (
		in      = flag.String("in", "", "input graph file (edge list, or .bin/.csr binary CSR)")
		genSpec = flag.String("gen", "", "generator spec (see package doc) used when -in is empty")
		algo    = flag.String("algo", "thrifty", "algorithm: "+algoNames()+", or 'all'")
		reps    = flag.Int("reps", 1, "timed repetitions (min reported)")
		threads = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		seed    = flag.Uint64("seed", 42, "generator seed")
		verify  = flag.Bool("verify", false, "validate the result against the sequential oracle")
		stat    = flag.Bool("stats", false, "print degree-distribution and census statistics")
		inst    = flag.Bool("instrument", false, "print software event counters and per-iteration trace")
		timeout = flag.Duration("timeout", 0, "abort runs after this duration (0 = no limit)")
		trace   = flag.String("trace", "", "write per-iteration trace records to this JSONL file")
		httpAd  = flag.String("http", "", "serve /metrics, expvar and /debug/pprof on this address (e.g. :6060 or :0)")
		hold    = flag.Bool("hold", false, "with -http: keep the debug server alive after the runs until SIGINT")
		logLvl  = flag.String("log", "", "structured run logging to stderr: info or debug (default off)")
		shards  = flag.Int("shards", 0, "shard count for -algo shard (0 = default)")
		labels  = flag.String("labels", "", "write the computed per-vertex labels to this file (one per line)")
	)
	flag.Parse()

	// SIGINT cancels the runs cooperatively: the current algorithm stops at
	// its next iteration boundary and the process exits non-zero, instead of
	// dying mid-write or needing SIGKILL. A second SIGINT kills immediately
	// (signal.NotifyContext restores default handling after the first).
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}

	env := &runEnv{log: obs.NopLogger(), dataset: datasetName(*in, *genSpec)}
	switch *logLvl {
	case "":
	case "info":
		env.log = obs.NewLogger(os.Stderr, slog.LevelInfo, false)
	case "debug":
		env.log = obs.NewLogger(os.Stderr, slog.LevelDebug, false)
	default:
		fatalf("-log must be info or debug, got %q", *logLvl)
	}
	if *httpAd != "" {
		env.reg = obs.NewRegistry()
		srv, err := obs.Serve(*httpAd, env.reg, env.log)
		if err != nil {
			fatalf("%v", err)
		}
		// Graceful teardown: an in-flight scrape (a -hold session usually has
		// one) gets 2s to finish; held sockets past that are aborted by
		// Shutdown's internal Close fallback.
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer scancel()
			srv.Shutdown(sctx)
		}()
		// Printed on stdout so scripts (and the CI smoke job) can discover
		// the resolved port when -http :0 is used.
		fmt.Printf("debug server listening on %s\n", srv.URL())
	}
	if *trace != "" {
		tw, err := obs.CreateTrace(*trace)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := tw.Close(); err != nil {
				fatalf("closing trace: %v", err)
			}
		}()
		env.trace = tw
	}

	// A directory input is a sharded CSR set: solve it out-of-core (one
	// shard's adjacency resident at a time) instead of loading a graph.
	if *in != "" && shard.IsSetDir(*in) {
		if err := runShardDir(ctx, *in, *reps, *threads, *verify, *labels); err != nil {
			fatalf("%v", err)
		}
		return
	}

	g, ist, err := loadGraph(*in, *genSpec, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("graph: %d vertices, %d edges (max degree %d)\n",
		g.NumVertices(), g.NumEdges(), g.Degree(g.MaxDegreeVertex()))
	if ist != nil {
		fmt.Printf("ingest: %s, %.1f MB in %.3f ms (load %.3f + build %.3f)\n",
			ist.Format, float64(ist.Bytes)/1e6,
			float64(ist.Total().Nanoseconds())/1e6,
			float64(ist.LoadDuration.Nanoseconds())/1e6,
			float64(ist.BuildDuration.Nanoseconds())/1e6)
		if env.trace != nil {
			if err := env.trace.WriteIngest(env.dataset,
				ist.LoadDuration.Nanoseconds(), ist.BuildDuration.Nanoseconds()); err != nil {
				fatalf("writing trace: %v", err)
			}
		}
	}

	if *stat {
		printStats(g)
	}

	algos := []cc.Algorithm{cc.Algorithm(*algo)}
	if *algo == "all" {
		algos = cc.Algorithms()
	}

	for _, a := range algos {
		if err := runOne(ctx, a, g, ist, *reps, *threads, *shards, *verify, *inst, *labels, env); err != nil {
			var ce *cc.CanceledError
			if errors.As(err, &ce) {
				if errors.Is(err, context.DeadlineExceeded) {
					fatalf("%s: timeout after %v (%d iterations completed)", a, *timeout, ce.Iterations)
				}
				fatalf("%s: interrupted (%d iterations completed)", a, ce.Iterations)
			}
			fatalf("%s: %v", a, err)
		}
	}

	if *hold && *httpAd != "" {
		fmt.Println("holding for debug server; interrupt (Ctrl-C) to exit")
		<-ctx.Done()
	}
}

// runEnv carries the observability sinks shared by all runs of an invocation.
type runEnv struct {
	trace   *obs.TraceWriter
	reg     *obs.Registry
	log     *slog.Logger
	dataset string
}

// datasetName labels trace records with the graph's provenance.
func datasetName(in, spec string) string {
	if in != "" {
		return in
	}
	return spec
}

func algoNames() string {
	names := make([]string, 0, len(cc.Algorithms()))
	for _, a := range cc.Algorithms() {
		names = append(names, string(a))
	}
	return strings.Join(names, ", ")
}

func runOne(ctx context.Context, a cc.Algorithm, g *graph.Graph, ist *graph.IngestStats, reps, threads, shards int, verify, instrument bool, labelsOut string, env *runEnv) error {
	var opts []cc.Option
	if threads > 0 {
		opts = append(opts, cc.WithThreads(threads))
	}
	if shards > 0 {
		opts = append(opts, cc.WithShards(shards))
	}
	if ist != nil {
		opts = append(opts, cc.WithIngestStats(*ist))
	}
	var instData *cc.Instrumentation
	// Tracing needs the per-iteration record stream, which only the
	// instrumented (counting) path produces.
	if instrument || env.trace != nil {
		instData = &cc.Instrumentation{}
		opts = append(opts, cc.WithInstrumentation(instData))
	}
	rlog := obs.RunLogger{Log: env.log}
	nthreads := threads
	if nthreads == 0 {
		nthreads = runtime.GOMAXPROCS(0)
	}
	rlog.Start(a, g.NumVertices(), g.NumEdges(), nthreads)

	best := time.Duration(1<<63 - 1)
	var res cc.Result
	var err error
	for i := 0; i < reps; i++ {
		start := time.Now()
		res, err = cc.RunContext(ctx, a, g, opts...)
		if err != nil {
			var ce *cc.CanceledError
			if errors.As(err, &ce) {
				rlog.Canceled(ce)
			}
			return err
		}
		if env.trace != nil {
			// Auto runs emit their selection record first (no-op otherwise),
			// so the trace explains the iterations that follow.
			if terr := env.trace.WriteSelector(env.dataset, i, res.Stats); terr != nil {
				return fmt.Errorf("writing trace: %w", terr)
			}
			if terr := env.trace.WriteRun(string(a), env.dataset, i, instData.Iterations); terr != nil {
				return fmt.Errorf("writing trace: %w", terr)
			}
		}
		if env.reg != nil {
			env.reg.ObserveRun(&res)
		}
		if instData != nil {
			rlog.Iterations(a, instData.Iterations)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	rlog.Done(&res)
	fmt.Printf("%-14s %10.3f ms   %d components, %d iterations (%d push, %d pull)\n",
		a, float64(best.Nanoseconds())/1e6, res.NumComponents(), res.Iterations,
		res.PushIterations, res.PullIterations)
	if res.Stats != nil && res.Stats.Probe != nil {
		p := res.Stats.Probe
		fmt.Printf("  auto: selected %s (%s) skew=%.1f hub-frac=%.3f mean-deg=%.2f coverage=%.2f probe-cost=%v\n",
			res.Stats.Selected, p.Reason, p.SkewRatio, p.HubEdgeFraction,
			p.MeanDegree, p.SampleCoverage, p.Cost.Round(time.Microsecond))
	}
	if res.Stats != nil && res.Stats.Shard != nil {
		printShardStats(res.Stats.Shard)
	}
	if labelsOut != "" {
		if err := writeLabels(labelsOut, res.Labels); err != nil {
			return fmt.Errorf("writing %s: %w", labelsOut, err)
		}
		fmt.Printf("  labels: wrote %d to %s\n", len(res.Labels), labelsOut)
	}

	if instrument {
		fmt.Printf("  events: ")
		for _, k := range []string{"edges", "vertex-visits", "label-loads", "label-stores", "cas-ops", "branch-checks", "cache-lines"} {
			fmt.Printf("%s=%d ", k, instData.Events[k])
		}
		fmt.Println()
		for _, it := range instData.Iterations {
			fmt.Printf("  iter %3d %-13s active=%-10d changed=%-10d zero=%-10d edges=%-12d density=%.4f%% time=%v\n",
				it.Index, it.Kind, it.Active, it.Changed, it.Zero, it.Edges, it.Density*100, it.Duration.Round(time.Microsecond))
		}
	}

	if verify {
		if cc.Verify(g, res.Labels) {
			fmt.Printf("  verify: OK (matches sequential oracle)\n")
		} else {
			return fmt.Errorf("verification FAILED")
		}
	}
	return nil
}

// runShardDir solves an on-disk shard set out-of-core: one shard's adjacency
// resident at a time, boundary labels exchanged between rounds. -verify
// re-walks every shard checking edge consistency and label canonicality
// instead of consulting the whole-graph oracle, which would require loading
// the graph this path exists to avoid loading.
func runShardDir(ctx context.Context, dir string, reps, threads int, verify bool, labelsOut string) error {
	set, err := shard.Open(dir)
	if err != nil {
		return err
	}
	m := set.Manifest
	var slots int64
	for _, info := range m.Shards {
		slots += info.Slots
	}
	fmt.Printf("shard set: %d vertices, %d shards, %d directed slots, hub %d\n",
		m.Vertices, set.Shards(), slots, m.Hub)

	cfg := dist.Config{}
	if threads > 0 {
		pool := parallel.NewPool(threads)
		defer pool.Close()
		cfg.Pool = pool
	}
	if ctx.Done() != nil {
		stop := &core.Stop{}
		cfg.Stop = stop
		defer context.AfterFunc(ctx, stop.Request)()
	}

	if reps < 1 {
		reps = 1
	}
	best := time.Duration(1<<63 - 1)
	var res dist.Result
	for i := 0; i < reps; i++ {
		start := time.Now()
		res, err = dist.RunSource(set, cfg)
		if err != nil {
			return err
		}
		if res.Canceled {
			return fmt.Errorf("interrupted after %d exchange rounds", res.Rounds)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}

	census := stats.Census(res.Labels)
	fmt.Printf("%-14s %10.3f ms   %d components, %d rounds, %d shard collapses\n",
		"shard(disk)", float64(best.Nanoseconds())/1e6,
		census.NumComponents, res.Rounds, res.LocalIterations)
	printShardStats(&res.Stats)
	if labelsOut != "" {
		if err := writeLabels(labelsOut, res.Labels); err != nil {
			return fmt.Errorf("writing %s: %w", labelsOut, err)
		}
		fmt.Printf("  labels: wrote %d to %s\n", len(res.Labels), labelsOut)
	}
	if verify {
		if err := verifyShardLabels(set, res.Labels); err != nil {
			return fmt.Errorf("verification FAILED: %w", err)
		}
		fmt.Printf("  verify: OK (edge-consistent, canonical labels across all shards)\n")
	}
	return nil
}

// printShardStats reports the exchange cost model of a sharded run.
func printShardStats(st *cc.ShardStats) {
	ratio := 0.0
	if st.ExchangedBytes > 0 {
		ratio = float64(st.NaiveBytes) / float64(st.ExchangedBytes)
	}
	fmt.Printf("  shard: %d shards, %d rounds, boundary=%d exchanged=%dB naive=%dB (%.2fx) pairs=%d suppressed=%d\n",
		st.Shards, st.Rounds, st.BoundaryEntries, st.ExchangedBytes, st.NaiveBytes,
		ratio, st.Pairs, st.SuppressedVertices)
}

// verifyShardLabels checks the labelling without materialising the graph:
// every nonzero label must name its component's minimum vertex (which carries
// that label itself, at an id no larger than any member), and a re-walk of
// every shard must find both endpoints of every edge agreeing.
func verifyShardLabels(set *shard.Set, labels []uint32) error {
	for v, l := range labels {
		if l == 0 {
			continue
		}
		if int(l-1) > v || labels[l-1] != l {
			return fmt.Errorf("vertex %d: label %d is not canonical", v, l)
		}
	}
	for i := 0; i < set.Shards(); i++ {
		sl, err := set.Slice(i)
		if err != nil {
			return err
		}
		for v := sl.Lo; v < sl.Hi; v++ {
			for _, w := range sl.Row(v) {
				if labels[v] != labels[w] {
					set.Release(sl)
					return fmt.Errorf("edge (%d,%d): labels %d vs %d", v, w, labels[v], labels[w])
				}
			}
		}
		if err := set.Release(sl); err != nil {
			return err
		}
	}
	return nil
}

// writeLabels writes one decimal label per line, in vertex order.
func writeLabels(path string, labels []uint32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 12)
	for _, l := range labels {
		buf = strconv.AppendUint(buf[:0], uint64(l), 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printStats(g *graph.Graph) {
	ds := stats.Degrees(g)
	fmt.Printf("degrees: min=%d max=%d mean=%.2f median=%d p99=%d skew=%.1f alpha=%.2f power-law=%v\n",
		ds.Min, ds.Max, ds.Mean, ds.Median, ds.P99, ds.SkewRatio, ds.Alpha, stats.IsSkewed(ds))
	census := stats.Census(cc.Sequential(g))
	fmt.Printf("components: %d total, largest holds %.1f%% of vertices\n",
		census.NumComponents, 100*census.LargestFraction)
}

// loadGraph resolves -in/-gen to a graph. File inputs go through the
// measured ingestion pipeline and return its stats; generated graphs have no
// ingestion phase and return nil stats.
func loadGraph(in, spec string, seed uint64) (*graph.Graph, *graph.IngestStats, error) {
	if in != "" {
		g, st, err := graph.Ingest(in)
		if err != nil {
			return nil, nil, err
		}
		return g, &st, nil
	}
	g, err := genGraph(spec, seed)
	return g, nil, err
}

func genGraph(spec string, seed uint64) (*graph.Graph, error) {
	if spec == "" {
		return nil, fmt.Errorf("need -in or -gen")
	}
	sp, err := gen.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return sp.Build(seed)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "thriftycc: "+format+"\n", args...)
	os.Exit(1)
}
