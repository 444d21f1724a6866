package cc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"thriftylp/graph"
	"thriftylp/internal/core"
	"thriftylp/internal/counters"
	"thriftylp/internal/parallel"
)

// Result is the outcome of a connected-components run.
type Result struct {
	// Labels assigns every vertex its component label. Label value spaces
	// differ per algorithm; use Normalize or Equivalent for comparisons.
	Labels []uint32
	// Iterations is the number of iterations (graph passes for union-find
	// algorithms, BFS levels for BFS-CC; Thrifty counts the initial push).
	Iterations int
	// PushIterations and PullIterations decompose label-propagation runs.
	PushIterations, PullIterations int
	// Stats carries the run's always-on telemetry: wall time, per-phase
	// durations, and scheduler activity — all collected at iteration and
	// partition boundaries, so it is populated even on the uninstrumented
	// fast path. Nil only on hand-constructed Results.
	Stats *RunStats

	// census lazily caches the component count. A pointer rather than an
	// embedded sync.Once so Result stays copyable (vet copylocks) and all
	// copies of one run's Result share the cache.
	census *resultCensus
}

// resultCensus is the shared, race-free NumComponents cache.
type resultCensus struct {
	once sync.Once
	num  int
}

// NumComponents returns the number of connected components, computed on
// first call and cached. Safe for concurrent use: parallel callers (e.g. a
// benchmark harness reading results from several goroutines) observe one
// consistent count computed exactly once.
func (r *Result) NumComponents() int {
	if r.census == nil {
		// Hand-constructed Result (every Result produced by Run carries a
		// census): compute without caching rather than racing to install one.
		return countComponents(r.Labels)
	}
	r.census.once.Do(func() { r.census.num = countComponents(r.Labels) })
	return r.census.num
}

func countComponents(labels []uint32) int {
	if len(labels) == 0 {
		return 0
	}
	seen := make(map[uint32]struct{}, 64)
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// ComponentOf returns v's component label.
func (r *Result) ComponentOf(v uint32) uint32 { return r.Labels[v] }

// SameComponent reports whether u and v are connected.
func (r *Result) SameComponent(u, v uint32) bool { return r.Labels[u] == r.Labels[v] }

// ComponentSizes returns a map from component label to vertex count.
func (r *Result) ComponentSizes() map[uint32]int64 {
	sizes := make(map[uint32]int64, 64)
	for _, l := range r.Labels {
		sizes[l]++
	}
	return sizes
}

// LargestComponent returns the label and size of the largest component.
// On an empty graph it returns (0, 0).
func (r *Result) LargestComponent() (label uint32, size int64) {
	for l, s := range r.ComponentSizes() {
		if s > size || (s == size && l < label) {
			label, size = l, s
		}
	}
	return
}

// run dispatches to the internal implementation.
func run(a Algorithm, g *graph.Graph, o *options) (core.Result, error) {
	switch a {
	case AlgoThrifty:
		return core.Thrifty(g, o.cfg), nil
	case AlgoDOLP:
		return core.DOLP(g, o.cfg), nil
	case AlgoDOLPUnified:
		return core.DOLPUnified(g, o.cfg), nil
	case AlgoLP:
		return core.LP(g, o.cfg), nil
	case AlgoSV:
		return core.ShiloachVishkin(g, o.cfg), nil
	case AlgoAfforest:
		return core.Afforest(g, o.cfg), nil
	case AlgoJayantiT:
		return core.JayantiTarjan(g, o.cfg), nil
	case AlgoBFSCC:
		return core.BFSCC(g, o.cfg), nil
	case AlgoFastSV:
		return core.FastSV(g, o.cfg), nil
	case AlgoConnectItKOut:
		return core.ConnectItKOut(g, o.cfg), nil
	case AlgoConnectItBFS:
		return core.ConnectItBFS(g, o.cfg), nil
	case AlgoShard:
		return runShard(g, o)
	default:
		return core.Result{}, fmt.Errorf("cc: unknown algorithm %q", a)
	}
}

// Run executes algorithm a on g and returns its Result. It is
// RunContext with a background context: no cancellation, no deadline.
func Run(a Algorithm, g *graph.Graph, opts ...Option) (Result, error) {
	return RunContext(context.Background(), a, g, opts...)
}

// RunContext executes algorithm a on g under ctx.
//
// Cancellation is cooperative: when ctx is cancelled or its deadline
// expires, the run stops at the next iteration or partition boundary —
// typically well under one iteration's latency — and RunContext returns a
// *CanceledError carrying partial-progress diagnostics (errors.Is matches
// ctx.Err()). A context that can never be cancelled costs nothing: the
// kernels then run the identical zero-instrumentation fast path as Run.
//
// Panic isolation: a panic inside the algorithm — on the calling goroutine
// or any pool worker (surfaced as *parallel.PanicError) — is recovered at
// this boundary and returned as a *RunPanicError rather than crashing the
// caller. The worker pool remains usable afterwards.
func RunContext(ctx context.Context, a Algorithm, g *graph.Graph, opts ...Option) (_ Result, err error) {
	o := &options{}
	for _, opt := range opts {
		opt(o)
	}
	if o.pool != nil {
		o.cfg.Pool = o.pool
		defer func() {
			if o.ownPool {
				o.pool.Close()
			}
		}()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, &CanceledError{Algorithm: a, Err: err}
	}
	if done := ctx.Done(); done != nil {
		// Arm the cooperative stop flag from the context. AfterFunc avoids
		// a watcher goroutine per run; the returned stop func detaches the
		// callback so a later cancellation of a long-lived ctx doesn't
		// write to a flag owned by a finished run.
		stop := &core.Stop{}
		o.cfg.Stop = stop
		detach := context.AfterFunc(ctx, stop.Request)
		defer detach()
	}
	if o.inst != nil {
		pool := o.cfg.Pool
		if pool == nil {
			pool = parallel.Default()
		}
		o.cfg.Ctr = counters.New(pool.Threads())
		o.cfg.Lines = counters.NewLineTracker(g.NumVertices())
		o.cfg.Trace = &counters.Trace{OnIteration: o.inst.OnIteration}
	}

	// Panic isolation boundary: algorithm or pool-worker panics become
	// errors here instead of unwinding into the caller.
	defer func() {
		if r := recover(); r != nil {
			err = newRunPanicError(a, r)
		}
	}()

	// Always-on run telemetry: the pool snapshot delta and the wall clock
	// bracket the run; everything else rides out of core.Result bookkeeping
	// that the kernels maintain at iteration/partition boundaries.
	statsPool := o.cfg.Pool
	if statsPool == nil {
		statsPool = parallel.Default()
	}
	poolBefore := statsPool.Stats()
	start := time.Now()

	// AlgoAuto resolves to a concrete algorithm here, after the clock
	// starts, so Duration honestly includes the probe the selector paid.
	selected := a
	var probe *ProbeStats
	if a == AlgoAuto {
		selected, probe = autoSelect(g)
	}

	cres, err := run(selected, g, o)
	if err != nil {
		return Result{}, err
	}

	stats := &RunStats{
		Algorithm:      a,
		Duration:       time.Since(start),
		PhaseDurations: cres.PhaseDurations,
		Ingest:         o.ingest,
	}
	if a == AlgoAuto {
		stats.Selected = selected
		stats.Probe = probe
	}
	stats.Shard = o.shardStats
	poolDelta := statsPool.Stats().Sub(poolBefore)
	stats.Sched = SchedStats{
		PartitionsOwned:  cres.Sched.Owned,
		PartitionsStolen: cres.Sched.Stolen,
		FailedSteals:     cres.Sched.FailedSteals,
		PoolJobs:         poolDelta.JobsRun,
		PoolIdle:         poolDelta.Idle,
	}

	if o.inst != nil {
		o.inst.Events = make(map[string]int64)
		for _, e := range counters.Events() {
			o.inst.Events[e.String()] = o.cfg.Ctr.Total(e)
		}
		o.inst.Iterations = o.cfg.Trace.Iters
		stats.Events = o.inst.Events
	}

	res := Result{
		Labels:         cres.Labels,
		Iterations:     cres.Iterations,
		PushIterations: cres.PushIterations,
		PullIterations: cres.PullIterations,
		Stats:          stats,
		census:         &resultCensus{},
	}
	if cres.Canceled {
		return res, &CanceledError{
			Algorithm:  a,
			Iterations: cres.Iterations,
			Phase:      cres.Phase,
			Err:        ctx.Err(),
		}
	}
	return res, nil
}

// Thrifty runs Thrifty Label Propagation (the paper's Algorithm 2).
func Thrifty(g *graph.Graph, opts ...Option) Result { return mustRun(AlgoThrifty, g, opts) }

// DOLP runs Direction-Optimizing Label Propagation (Algorithm 1).
func DOLP(g *graph.Graph, opts ...Option) Result { return mustRun(AlgoDOLP, g, opts) }

// DOLPUnified runs the DO-LP + Unified Labels Array ablation variant.
func DOLPUnified(g *graph.Graph, opts ...Option) Result { return mustRun(AlgoDOLPUnified, g, opts) }

// LP runs textbook synchronous Label Propagation.
func LP(g *graph.Graph, opts ...Option) Result { return mustRun(AlgoLP, g, opts) }

// ShiloachVishkin runs the Shiloach-Vishkin CC algorithm.
func ShiloachVishkin(g *graph.Graph, opts ...Option) Result { return mustRun(AlgoSV, g, opts) }

// Afforest runs the sampling-based Afforest CC algorithm.
func Afforest(g *graph.Graph, opts ...Option) Result { return mustRun(AlgoAfforest, g, opts) }

// JayantiTarjan runs the Jayanti-Tarjan concurrent union-find CC.
func JayantiTarjan(g *graph.Graph, opts ...Option) Result { return mustRun(AlgoJayantiT, g, opts) }

// BFSCC runs direction-optimizing BFS-based CC.
func BFSCC(g *graph.Graph, opts ...Option) Result { return mustRun(AlgoBFSCC, g, opts) }

// FastSV runs the FastSV min-hooking CC algorithm.
func FastSV(g *graph.Graph, opts ...Option) Result { return mustRun(AlgoFastSV, g, opts) }

// ConnectItKOut runs the ConnectIt-style k-out-sampling + union-find CC.
func ConnectItKOut(g *graph.Graph, opts ...Option) Result { return mustRun(AlgoConnectItKOut, g, opts) }

// ConnectItBFS runs the ConnectIt-style BFS-sampling + union-find CC.
func ConnectItBFS(g *graph.Graph, opts ...Option) Result { return mustRun(AlgoConnectItBFS, g, opts) }

func mustRun(a Algorithm, g *graph.Graph, opts []Option) Result {
	r, err := Run(a, g, opts...)
	if err != nil {
		// a is always a known constant here and the context is background,
		// so the only reachable error is a recovered algorithm panic —
		// which the panicking convenience API re-raises.
		panic(err)
	}
	return r
}
