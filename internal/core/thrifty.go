package core

import (
	"time"

	"thriftylp/graph"
	"thriftylp/internal/counters"
	"thriftylp/internal/parallel"
	"thriftylp/internal/worklist"
)

// Thrifty is the paper's contribution (Algorithm 2): Label Propagation CC
// with four structure-aware optimizations for skewed-degree graphs.
//
//  1. Unified Labels Array — one labels array; updates are visible within
//     the iteration that computes them, and the per-iteration labels
//     synchronization pass of DO-LP disappears (§IV-A).
//  2. Zero Convergence — labels only move downward and 0 is the global
//     minimum, so a vertex holding 0 has converged: pull skips it, and the
//     neighbour scan aborts the moment it sees a 0 (§IV-B).
//  3. Zero Planting — labels are v+1 and the reserved label 0 is planted on
//     the maximum-degree vertex, which in a skewed graph is almost surely a
//     hub of the giant component (§IV-C).
//  4. Initial Push — iteration 0 pushes the planted 0 one hop from the hub
//     instead of running a full pull over all edges (§IV-D).
//
// Implementation details follow §IV-E: a 1% push/pull density threshold;
// pull iterations that only count active vertices; one Pull-Frontier
// iteration to materialize a detailed frontier when switching to push; and
// sparse frontiers held in per-thread worklists with a shared mark array
// and chunked work stealing.
//
// Thrifty itself holds Zero Planting, the initial-push seeding and the
// direction-deciding run loop. Its traversals are labelprop.go's push and
// pull sweeps under sharedLabels and thriftyRule: DOLPUnified's sweeps plus
// Zero Convergence, the prefetch-peeled long-list loops and worklist
// frontiers. Like every sweep they are generic over the instrumentation
// policy (see instr.go): plain runs take the monomorphized fast path, runs
// with counters, trace, lines or a fault plan take the counting path with
// identical traversal structure.
func Thrifty(g *graph.Graph, cfg Config) Result {
	if cfg.fastInstr() {
		return thriftyRun(g, cfg, noInstr{})
	}
	return thriftyRun(g, cfg, newCounting(cfg))
}

func thriftyRun[I instr[I]](g *graph.Graph, cfg Config, proto I) Result {
	pool := cfg.pool()
	n := g.NumVertices()
	if n == 0 {
		return Result{Labels: []uint32{}}
	}
	threshold := cfg.threshold(DefaultThriftyThreshold)
	labels := make([]uint32, n)

	// --- Zero Planting (Algorithm 2 lines 2-9) ---
	// labels[v] = v+1, then the max-degree vertex — memoized in the CSR at
	// construction, so no per-run reduction is paid — receives the reserved
	// label 0.
	parallel.Iota(pool, labels, 1)
	maxV := g.MaxDegreeVertex()
	if cfg.PlantVertexSet {
		// Ablation/override: plant at a caller-chosen vertex instead of
		// the max-degree heuristic.
		maxV = cfg.PlantVertex
	}
	labels[maxV] = 0

	threads := pool.Threads()
	cur := worklist.New(n, threads)
	next := worklist.New(n, threads)
	sch := newScheduler(g, cfg, pool)

	res := Result{PhaseDurations: make(map[string]time.Duration, 4)}
	loop := lpLoop{cfg: cfg, pool: pool, res: &res}
	maxIters := cfg.maxIters(n)

	// --- Initial Push (Algorithm 2 lines 11-12) ---
	// One push iteration propagating the planted 0 from the hub to its
	// neighbours. This is iteration 0 and is counted as an iteration (§V-C);
	// it is the same kernel as every later push, over a one-vertex frontier.
	//
	// canceled makes a cancelled run leave at the next iteration boundary,
	// before the loop condition: a cancelled sweep's empty frontier means
	// "aborted", not "converged" (a partition-boundary Stopped poll inside
	// the traversal has already cut the in-flight iteration short).
	var activeV, activeE int64
	var canceled bool
	if cfg.NoInitialPush {
		// Ablation: start the way DO-LP does — everything active, forcing
		// a full first pull (Table VI measures what this costs). A stop
		// here cancels that pull, the iteration about to run.
		activeV, activeE = int64(n), g.NumDirectedEdges()
		canceled = cfg.cancelPoint(&res, string(counters.KindPull))
	} else {
		loop.begin()
		cur.AddUnchecked(0, maxV)
		activeV, activeE = pushSweep[sharedLabels, minLabel, thriftyRule](g, pool, labels, labels, &cur.Queue, frontier{ws: next}, 1+int64(g.Degree(maxV)), cfg.Stop, proto)
		cur, next = next, cur
		next.Reset()
		canceled = loop.end(counters.IterRecord{
			Kind:        counters.KindInitialPush,
			Active:      1,
			ActiveEdges: int64(g.Degree(maxV)),
			Changed:     activeV,
			Threshold:   threshold,
		}, labels)
	}

	// cur now holds the detailed frontier produced by the initial push
	// (unless the ablation skipped it).
	haveFrontier := !cfg.NoInitialPush
	// Iteration 1 is always a full pull with Zero Convergence (§IV-D,
	// Table VI): besides being the efficient choice after one hop of zero
	// propagation, the first pull is what guarantees every vertex —
	// including those in components other than the giant — is compared
	// with its neighbours at least once, which push-only propagation from
	// the planted hub would not do.
	didPull := false

	// The loop is the paper's do-while (Algorithm 2 runs at least one
	// iteration after the initial push): even if the push changed nothing —
	// e.g. the planted hub's only edges are self-loops — the first pull
	// must still run, or vertices in other components would never be
	// compared with their neighbours.
	for !canceled && (activeV > 0 || !didPull) && res.Iterations < maxIters {
		loop.begin()
		rec := counters.IterRecord{
			Active:      activeV,
			ActiveEdges: activeE,
			Density:     density(g, activeV, activeE),
			Threshold:   threshold,
		}

		switch {
		case didPull && rec.Density < threshold && haveFrontier:
			// --- Push traversal over the detailed sparse frontier ---
			rec.Kind = counters.KindPush
			activeV, activeE = pushSweep[sharedLabels, minLabel, thriftyRule](g, pool, labels, labels, &cur.Queue, frontier{ws: next}, activeV+activeE, cfg.Stop, proto)
			cur, next = next, cur
			next.Reset()

		case didPull && rec.Density < threshold && !haveFrontier:
			// --- Pull-Frontier: the bridge iteration (§IV-E) --- the last
			// dense-style pull, which additionally records which vertices
			// became active so the following push iterations have a
			// worklist to consume.
			rec.Kind = counters.KindPullFrontier
			cur.Reset()
			activeV, activeE = pullSweep[sharedLabels, minLabel, thriftyRule](g, sch, labels, labels, frontier{ws: cur}, cfg.Stop, proto)
			haveFrontier = true

		default:
			// --- Pull traversal with Zero Convergence, counting only ---
			// (under the EagerFrontier ablation every pull also records the
			// detailed frontier, paying the insertion cost the paper's
			// counting-only design avoids).
			rec.Kind = counters.KindPull
			if cfg.EagerFrontier {
				cur.Reset()
				activeV, activeE = pullSweep[sharedLabels, minLabel, thriftyRule](g, sch, labels, labels, frontier{ws: cur}, cfg.Stop, proto)
				haveFrontier = true
			} else {
				activeV, activeE = pullSweep[sharedLabels, minLabel, thriftyRule](g, sch, labels, labels, frontier{}, cfg.Stop, proto)
				haveFrontier = false
			}
			didPull = true
		}
		rec.Changed = activeV
		canceled = loop.end(rec, labels)
	}

	res.Labels = labels
	res.Sched = sch.stealStats()
	return res
}
