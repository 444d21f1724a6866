package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"thriftylp/cc"
	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/dist"
	"thriftylp/internal/shard"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	window  time.Duration
	scale   sizes
	workdir string
	trace   bool
	conns   int

	// Test seams, nil in real runs: mutateLabels corrupts an op's labels
	// and mutateBody rewrites a query's answer, so the smoke test can prove
	// the correctness checks are live.
	mutateLabels func([]uint32)
	mutateBody   func(path string, body []byte) []byte
}

// sizes are the generator scales of one -scale setting.
type sizes struct {
	social, web, shard, serve int
}

var scales = map[string]sizes{
	"full": {social: 20, web: 19, shard: 14, serve: 18},
	"tiny": {social: 12, web: 10, shard: 10, serve: 10},
}

// setupReps is how many times each workload sets up; setup_s is the
// median, so one slow write-back does not decide it.
const setupReps = 3

// tracedOps and countedOps are the op counts of a batch workload's traced
// phase and of its instrumented ops.
const (
	tracedOps  = 20
	countedOps = 3
)

// workload is one benchmark workload. README.md and BENCHMARK.json give
// the reason for each: which layer it loads that the others do not.
type workload struct {
	name string
	run  func(cfg *config, r *result) error
}

var workloads = []workload{
	{"solve-social", func(cfg *config, r *result) error {
		return runBatch(cfg, r, binSpec(socialGraph(cfg.scale.social, cfg.seed)))
	}},
	{"solve-web", func(cfg *config, r *result) error {
		return runBatch(cfg, r, binSpec(webGraph(cfg.scale.web, cfg.seed)))
	}},
	{"shard-social", func(cfg *config, r *result) error {
		return runBatch(cfg, r, shardSpec(cfg.scale.shard, cfg.seed))
	}},
	{"serve-read", runServeRead},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func socialGraph(scale int, seed uint64) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) { return gen.RMATCompact(gen.DefaultRMAT(scale, 16, seed)) }
}

func webGraph(scale int, seed uint64) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) { return gen.Web(gen.DefaultWeb(scale, seed)) }
}

// batchSpec describes a batch workload: how to write its input and what
// one op is.
type batchSpec struct {
	// prepare generates the input into dir and returns the generated
	// graph, which the checks use as the reference.
	prepare func(dir string) (*graph.Graph, error)
	// op runs one op over the files in dir.
	op func(dir string, opts []cc.Option) (opOut, error)
	// reference, when set, returns labels every op must reproduce byte for
	// byte.
	reference func(g *graph.Graph) ([]uint32, error)
}

// opOut is what one op returns: its labels, the calls it made with their
// program-reported sub-phases, and the per-layer values it measured.
type opOut struct {
	labels   []uint32
	calls    []call
	layers   map[string]float64
	selected string
}

func binSpec(generate func() (*graph.Graph, error)) batchSpec {
	return batchSpec{
		prepare: func(dir string) (*graph.Graph, error) {
			g, err := generate()
			if err != nil {
				return nil, err
			}
			return g, graph.SaveBinary(filepath.Join(dir, "graph.bin"), g)
		},
		op: func(dir string, opts []cc.Option) (opOut, error) {
			return solveOp(filepath.Join(dir, "graph.bin"), opts)
		},
	}
}

func shardSpec(scale int, seed uint64) batchSpec {
	return batchSpec{
		prepare: func(dir string) (*graph.Graph, error) {
			g, err := gen.RMATCompact(gen.DefaultRMAT(scale, 16, seed))
			if err != nil {
				return nil, err
			}
			_, err = shard.Write(g, filepath.Join(dir, "shards"), 2)
			return g, err
		},
		op: func(dir string, _ []cc.Option) (opOut, error) { return shardOp(filepath.Join(dir, "shards")) },
		reference: func(g *graph.Graph) ([]uint32, error) {
			res, err := cc.Run(cc.AlgoThrifty, g)
			return res.Labels, err
		},
	}
}

// solveOp is graph.Ingest → cc.Run(AlgoAuto) → Close over one file.
func solveOp(path string, opts []cc.Option) (opOut, error) {
	t0 := time.Now()
	g, ist, err := graph.Ingest(path)
	t1 := time.Now()
	if err != nil {
		return opOut{}, err
	}
	res, err := cc.Run(cc.AlgoAuto, g, opts...)
	t2 := time.Now()
	cerr := g.Close()
	t3 := time.Now()
	if err != nil {
		return opOut{}, err
	}
	if cerr != nil {
		return opOut{}, cerr
	}
	st := res.Stats
	out := opOut{labels: res.Labels, selected: string(st.Selected), layers: map[string]float64{
		"graph.load_ms":          ms(ist.LoadDuration),
		"core.solve_ms":          ms(st.Duration),
		"core.initial_push_ms":   ms(st.PhaseDuration("initial-push")),
		"core.pull_ms":           ms(st.PhaseDuration("pull")),
		"core.pull_frontier_ms":  ms(st.PhaseDuration("pull-frontier")),
		"core.push_ms":           ms(st.PhaseDuration("push")),
		"core.iterations":        float64(res.Iterations),
		"core.push_iterations":   float64(res.PushIterations),
		"core.pull_iterations":   float64(res.PullIterations),
		"parallel.pool_idle_ms":  ms(st.Sched.PoolIdle),
		"parallel.pool_jobs":     float64(st.Sched.PoolJobs),
		"parallel.stolen":        float64(st.Sched.PartitionsStolen),
		"parallel.failed_steals": float64(st.Sched.FailedSteals),
	}}
	if ist.LoadDuration > 0 {
		out.layers["graph.load_mb_per_s"] = float64(ist.Bytes) / 1e6 / ist.LoadDuration.Seconds()
	}
	var probe time.Duration
	if st.Probe != nil {
		probe = st.Probe.Cost
		out.layers["cc.probe_us"] = us(probe)
	}
	runCounts := map[string]int64{"iterations": int64(res.Iterations)}
	for name, key := range map[string]string{
		"edges": "core.edges", "vertex-visits": "core.vertex_visits",
		"label-stores": "core.label_stores", "cas-ops": "core.cas_ops",
	} {
		if v, ok := st.Events[name]; ok {
			out.layers[key] = float64(v)
			runCounts[name] = v
		}
	}
	kinds := []string{"initial-push", "pull", "pull-frontier", "push"}
	names := []string{"cc.probe"}
	ds := []time.Duration{probe}
	for _, k := range kinds {
		names = append(names, "core."+k)
		ds = append(ds, st.PhaseDuration(k))
	}
	out.calls = []call{
		{name: "graph.Ingest", start: t0, end: t1,
			counts: map[string]int64{"bytes": ist.Bytes, "vertices": int64(ist.Vertices), "edges": ist.Edges},
			sub: phases(t0, t1, []string{"graph.load", "graph.build"},
				[]time.Duration{ist.LoadDuration, ist.BuildDuration})},
		{name: "cc.Run", start: t1, end: t2, counts: runCounts, sub: phases(t1, t2, names, ds)},
		{name: "graph.Close", start: t2, end: t3},
	}
	return out, nil
}

// shardOp is shard.Open → dist.RunSource over an on-disk shard set.
func shardOp(dir string) (opOut, error) {
	t0 := time.Now()
	set, err := shard.Open(dir)
	t1 := time.Now()
	if err != nil {
		return opOut{}, err
	}
	src := &timedSource{Source: set}
	res, err := dist.RunSource(src, dist.Config{})
	t2 := time.Now()
	if err != nil {
		return opOut{}, err
	}
	out := opOut{labels: res.Labels, layers: map[string]float64{
		"shard.open_ms":         ms(t1.Sub(t0)),
		"dist.rounds":           float64(res.Rounds),
		"dist.bytes":            float64(res.ExchangedBytes),
		"dist.naive_bytes":      float64(res.NaiveBytes),
		"dist.pairs":            float64(res.Pairs),
		"dist.suppressed":       float64(res.SuppressedVertices),
		"dist.boundary_entries": float64(res.BoundaryEntries),
		"dist.local_iterations": float64(res.LocalIterations),
	}}
	inner := src.calls(t2)
	for _, c := range inner {
		out.layers[c.name+"_ms"] += ms(c.end.Sub(c.start))
	}
	out.calls = []call{
		{name: "shard.Open", start: t0, end: t1},
		{name: "dist.RunSource", start: t1, end: t2, sub: inner, counts: map[string]int64{
			"rounds": int64(res.Rounds), "bytes": res.ExchangedBytes, "pairs": res.Pairs,
		}},
	}
	return out, nil
}

// setupDir returns an empty directory for one setup repetition, removing
// the previous one so only one copy of the input is on disk.
func setupDir(cfg *config, name string, rep int) (string, error) {
	if rep > 0 {
		if err := os.RemoveAll(filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", name, rep-1))); err != nil {
			return "", err
		}
	}
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", name, rep))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// runBatch sets a batch workload up, checks a warm-up op, measures ops for
// the window, and runs the traced phase.
func runBatch(cfg *config, r *result, spec batchSpec) error {
	var g *graph.Graph
	var dir string
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		var err error
		if dir, err = setupDir(cfg, r.Workload, rep); err != nil {
			return err
		}
		g = nil
		runtime.GC()
		t0 := time.Now()
		if g, err = spec.prepare(dir); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.setE2E("setup_s", median(setups))

	// The warm-up op fills caches and is checked against the sequential
	// oracle; every measured op must then reproduce its labels exactly.
	warm, err := spec.op(dir, nil)
	if err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	ref := warm.labels
	if !cc.Verify(g, ref) {
		r.problem("warm-up labels fail cc.Verify")
	}
	if spec.reference != nil {
		want, err := spec.reference(g)
		if err != nil {
			return fmt.Errorf("reference solve: %w", err)
		}
		if !slices.Equal(ref, want) {
			r.problem("labels differ from cc.Run(AlgoThrifty) on the same graph")
		}
	}
	g = nil

	meas, err := startMeasuring()
	if err != nil {
		return err
	}
	var lat durations
	var layers []map[string]float64
	start := time.Now()
	runOps(cfg, r, spec, dir, ref, "", nil,
		func(op int) bool { return op == 0 || time.Since(start) < cfg.window },
		func(t0, t1 time.Time, out opOut) {
			lat = append(lat, t1.Sub(t0))
			layers = append(layers, out.layers)
			if out.selected != "" {
				r.Selected[out.selected]++
			}
		})
	elapsed := time.Since(start)
	if err := meas.finish(r, len(lat)); err != nil {
		return err
	}
	r.setE2E("op_mean_ms", ms(lat.mean()))
	r.setE2E("op_tail_ms", ms(lat.quantile(0.9)))
	r.setE2E("ops_per_s", float64(len(lat))/elapsed.Seconds())
	r.setLayers(layers)

	if !cfg.trace {
		return nil
	}
	tr := newTracer()
	var tlat durations
	runOps(cfg, r, spec, dir, ref, "traced ", nil,
		func(op int) bool { return op < tracedOps },
		func(t0, t1 time.Time, out opOut) {
			tr.record(r.Workload, len(tlat), t0, t1, out.calls)
			tlat = append(tlat, t1.Sub(t0))
		})
	attribute(r, tr, lat.quantile(0.5), tlat.quantile(0.5))
	if cov := tr.coverage(); cov < 90 {
		r.problem("named layers cover only %.1f%% of a traced op (need 90%%)", cov)
	}

	// Exact event counts need the kernels' counting path, which is too
	// slow to time or to attribute: they come from a few ops of their own.
	counts := map[string][]float64{}
	runOps(cfg, r, spec, dir, ref, "counted ", []cc.Option{cc.WithInstrumentation(&cc.Instrumentation{})},
		func(op int) bool { return op < countedOps },
		func(_, _ time.Time, out opOut) {
			for _, k := range []string{"core.edges", "core.vertex_visits", "core.label_stores", "core.cas_ops"} {
				if v, ok := out.layers[k]; ok {
					counts[k] = append(counts[k], v)
				}
			}
		})
	for k, xs := range counts {
		r.setLayer(k, median(xs))
	}
	return nil
}

// runOps runs ops over dir while more allows, checks each one's labels
// against ref and hands the ops that ran to keep, with their start and
// end times.
func runOps(cfg *config, r *result, spec batchSpec, dir string, ref []uint32, phase string, opts []cc.Option,
	more func(op int) bool, keep func(t0, t1 time.Time, out opOut)) {
	for op := 0; more(op); op++ {
		t0 := time.Now()
		out, err := spec.op(dir, opts)
		t1 := time.Now()
		r.Attempted++
		if err != nil {
			r.opFailed("%sop %d: %v", phase, op, err)
			continue
		}
		if cfg.mutateLabels != nil {
			cfg.mutateLabels(out.labels)
		}
		if !slices.Equal(out.labels, ref) {
			r.opFailed("%sop %d: labels differ from the warm-up op's", phase, op)
		}
		keep(t0, t1, out)
	}
}

// attribute stores a traced phase's layer self times, coverage and
// overhead against the untraced median op.
func attribute(r *result, tr *tracer, untraced, traced time.Duration) {
	r.tracer = tr
	for l, d := range tr.selfPerOp() {
		if _, ok := layerUnits[l+".self_ms"]; ok {
			r.setLayer(l+".self_ms", ms(d))
		}
	}
	r.setLayer("trace.coverage_pct", tr.coverage())
	if untraced > 0 {
		r.setLayer("trace.overhead_pct", 100*(float64(traced)/float64(untraced)-1))
	}
}
