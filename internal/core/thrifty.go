package core

import (
	"time"

	"thriftylp/graph"
	"thriftylp/internal/atomicx"
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
// The traversal kernels are generic over the instrumentation policy (see
// instr.go): plain runs take the monomorphized fast path, runs with
// counters/trace/lines enabled take the counting path with identical
// traversal structure.
func Thrifty(g *graph.Graph, cfg Config) Result {
	switch {
	case cfg.Faults != nil:
		return thriftyRun(g, cfg, newChaos(cfg))
	case !cfg.fastInstr():
		return thriftyRun(g, cfg, newCounting(cfg))
	default:
		return thriftyRun(g, cfg, noInstr{})
	}
}

func thriftyRun[I instr[I]](g *graph.Graph, cfg Config, proto I) Result {
	pool := cfg.pool()
	n := g.NumVertices()
	if n == 0 {
		return Result{Labels: []uint32{}}
	}
	threshold := cfg.threshold(DefaultThriftyThreshold)
	m := g.NumDirectedEdges()
	if m == 0 {
		m = 1 // keep the density ratio finite on edgeless graphs
	}
	labels := cfg.Arena.Uint32s(n)

	// --- Zero Planting (Algorithm 2 lines 2-9) ---
	// labels[v] = v+1, then the max-degree vertex — memoized in the CSR at
	// construction, so no per-run reduction is paid — receives the reserved
	// label 0.
	parallel.Fill(pool, labels, func(i int) uint32 { return uint32(i) + 1 })
	maxV := g.MaxDegreeVertex()
	if cfg.PlantVertexSet {
		// Ablation/override: plant at a caller-chosen vertex instead of
		// the max-degree heuristic.
		maxV = cfg.PlantVertex
	}
	labels[maxV] = 0

	threads := pool.Threads()
	cur := cfg.Arena.Worklist(n, threads)
	next := cfg.Arena.Worklist(n, threads)
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
		activeV, activeE = int64(n), m
		canceled = cfg.cancelPoint(&res, string(counters.KindPull))
	} else {
		loop.begin()
		cur.AddUnchecked(0, maxV)
		activeV, activeE = thriftyPush(g, pool, labels, cur, next, 1+int64(g.Degree(maxV)), cfg.Stop, proto)
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
			Density:     float64(activeV+activeE) / float64(m),
			Threshold:   threshold,
		}

		switch {
		case didPull && rec.Density < threshold && haveFrontier:
			// --- Push traversal over the detailed sparse frontier ---
			rec.Kind = counters.KindPush
			activeV, activeE = thriftyPush(g, pool, labels, cur, next, activeV+activeE, cfg.Stop, proto)
			cur, next = next, cur
			next.Reset()

		case didPull && rec.Density < threshold && !haveFrontier:
			// --- Pull-Frontier: the bridge iteration (§IV-E) --- the last
			// dense-style pull, which additionally records which vertices
			// became active so the following push iterations have a
			// worklist to consume.
			rec.Kind = counters.KindPullFrontier
			cur.Reset()
			activeV, activeE = thriftyPull(g, sch, labels, cur, true, cfg.Stop, proto)
			haveFrontier = true

		default:
			// --- Pull traversal with Zero Convergence, counting only ---
			// (under the EagerFrontier ablation every pull also records the
			// detailed frontier, paying the insertion cost the paper's
			// counting-only design avoids).
			rec.Kind = counters.KindPull
			if cfg.EagerFrontier {
				cur.Reset()
				activeV, activeE = thriftyPull(g, sch, labels, cur, true, cfg.Stop, proto)
				haveFrontier = true
			} else {
				activeV, activeE = thriftyPull(g, sch, labels, nil, false, cfg.Stop, proto)
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

// pushSeqCutoff is the |F.V|+|F.E| estimate below which a push iteration
// runs on the calling thread instead of waking the pool: parking/unparking
// the workers costs more than traversing a few thousand edges, and web-like
// graphs spend dozens of iterations on chain frontiers this small.
const pushSeqCutoff = 4096

// Software-prefetch tuning for the thrifty traversal kernels. Go exposes no
// portable prefetch intrinsic, so on long adjacency lists the kernels issue
// an early demand load of the label prefetchDist edges ahead of the scan
// cursor and fold it into a live sink: neighbour label accesses are the
// kernels' cache-miss source (adjacency order is uncorrelated with label
// layout), and issuing the load early lets the out-of-order core overlap the
// miss with the comparisons on the intervening neighbours. prefetchDist=8
// (two miss latencies' worth of ~4-cycle compare iterations) measured best
// among 4/8/16 on this package's benchmarks; lists shorter than
// prefetchMinDeg skip the peeled loop, where the extra bounds check costs
// more than a same-cache-line "miss" would.
const (
	prefetchDist   = 8
	prefetchMinDeg = 64
)

// prefetchSink receives each worker's accumulated prefetch loads so the
// compiler cannot discard them as dead. Written once per partition/drain
// with an atomic store (the value itself is meaningless and never read).
var prefetchSink uint32

// thriftyPush runs one push iteration: each frontier vertex propagates its
// current label to its neighbours with atomic-min, collecting lowered
// neighbours into next. work is the caller's |F.V|+|F.E| estimate for cur
// (negative = unknown); frontiers under pushSeqCutoff are drained
// sequentially. Returns the new frontier's vertex count and degree
// sum. Frontier consumption uses chunked work stealing (own list first,
// then other threads' lists), and a racing duplicate insertion — permitted
// by the mark array's non-CAS discipline — at worst processes a vertex
// twice, which is harmless because labels only decrease.
//
//thrifty:hotpath
func thriftyPush[I instr[I]](g *graph.Graph, pool *parallel.Pool, labels []uint32, cur, next *worklist.Set, work int64, stop *Stop, proto I) (int64, int64) {
	offs, adj := g.Offsets(), g.Adjacency()
	var av, ae int64
	body := func(tid int) {
		ins := proto.Fresh()
		var localV, localE int64
		var seen, pf uint32
		stopped := false
		cur.Drain(tid, func(v uint32) {
			// Amortized cancellation poll: chain frontiers drain thousands
			// of degree-2 vertices, where even an uncontended flag load per
			// vertex is measurable, so the shared flag is read every 256
			// vertices and latched into a local. Cancellation latency stays
			// bounded by 256 adjacency scans per worker.
			if stopped {
				return
			}
			seen++
			if seen&255 == 0 && stop.Requested() {
				stopped = true
				return
			}
			iVisit(ins)
			lv := atomicx.LoadUint32(&labels[v])
			iLoad(ins)
			nb := adj[offs[v]:offs[v+1]]
			if len(nb) >= prefetchMinDeg {
				// Long list (the initial push from the planted hub is the
				// extreme case): touch the label prefetchDist edges ahead so
				// its line is in flight when MinUint32 reaches it. The touch
				// is not an algorithmic label access, so it is not charged to
				// the instrumentation counters.
				for i := 0; i < len(nb); i++ {
					if i+prefetchDist < len(nb) {
						pf ^= atomicx.LoadUint32(&labels[nb[i+prefetchDist]])
					}
					u := nb[i]
					iEdge(ins)
					iCAS(ins)
					iBranch(ins)
					iTouch(ins, u)
					if atomicx.MinUint32(&labels[u], lv) {
						iStore(ins)
						if next.AddIfAbsent(tid, u) {
							localV++
							localE += offs[u+1] - offs[u]
						}
					}
				}
				return
			}
			for _, u := range nb {
				iEdge(ins)
				iCAS(ins)
				iBranch(ins)
				iTouch(ins, u)
				if atomicx.MinUint32(&labels[u], lv) {
					iStore(ins)
					if next.AddIfAbsent(tid, u) {
						localV++
						localE += offs[u+1] - offs[u]
					}
				}
			}
		})
		iFlush(ins, tid)
		atomicx.StoreUint32(&prefetchSink, pf)
		atomicx.AddInt64(&av, localV)
		atomicx.AddInt64(&ae, localE)
	}
	if work >= 0 && work < pushSeqCutoff {
		body(0)
	} else {
		pool.MustRun(body)
	}
	return av, ae
}

// thriftyPull runs one pull iteration with Zero Convergence (Algorithm 2
// lines 22-34): converged (label 0) vertices are skipped outright, and a
// neighbour scan stops the instant it observes a 0, since no smaller label
// exists. When recordFrontier is set (the Pull-Frontier bridge iteration),
// changed vertices are also inserted into fr. Returns the changed-vertex
// count and degree sum, which drive the next direction decision.
//
//thrifty:hotpath
func thriftyPull[I instr[I]](g *graph.Graph, sch *scheduler, labels []uint32, fr *worklist.Set, recordFrontier bool, stop *Stop, proto I) (int64, int64) {
	offs, adj := g.Offsets(), g.Adjacency()
	var av, ae int64
	sch.sweep(func(tid, lo, hi int) {
		ins := proto.Fresh()
		// Cancellation poll at partition entry: remaining partitions are
		// claimed and skipped, so the sweep drains promptly.
		if stop.Requested() {
			return
		}
		var localV, localE int64
		var pf uint32
		for v := lo; v < hi; v++ {
			iVisit(ins)
			iBranch(ins)
			own := atomicx.LoadUint32(&labels[v])
			iLoad(ins)
			iTouch(ins, uint32(v))
			if own == 0 {
				continue // Zero Convergence: v has converged (line 24)
			}
			newLabel := own
			nb := adj[offs[v]:offs[v+1]]
			if len(nb) >= prefetchMinDeg {
				// Long list: touch the label prefetchDist edges ahead so its
				// line is in flight when the comparison reaches it (see the
				// prefetchDist comment). Not charged to the counters — the
				// touch is not an algorithmic label access.
				for i := 0; i < len(nb); i++ {
					if i+prefetchDist < len(nb) {
						pf ^= atomicx.LoadUint32(&labels[nb[i+prefetchDist]])
					}
					u := nb[i]
					iEdge(ins)
					iLoad(ins)
					iBranch(ins)
					iTouch(ins, u)
					if l := atomicx.LoadUint32(&labels[u]); l < newLabel {
						newLabel = l
						iBranch(ins)
						if newLabel == 0 {
							break // Zero Convergence: nothing smaller exists (line 31)
						}
					}
				}
			} else {
				for _, u := range nb {
					iEdge(ins)
					iLoad(ins)
					iBranch(ins)
					iTouch(ins, u)
					if l := atomicx.LoadUint32(&labels[u]); l < newLabel {
						newLabel = l
						iBranch(ins)
						if newLabel == 0 {
							break // Zero Convergence: nothing smaller exists (line 31)
						}
					}
				}
			}
			iBranch(ins)
			if newLabel < own {
				atomicx.StoreUint32(&labels[uint32(v)], newLabel)
				iStore(ins)
				localV++
				localE += offs[v+1] - offs[v]
				if recordFrontier {
					fr.Add(tid, uint32(v))
				}
			}
		}
		atomicx.StoreUint32(&prefetchSink, pf)
		iFlush(ins, tid)
		atomicx.AddInt64(&av, localV)
		atomicx.AddInt64(&ae, localE)
	})
	return av, ae
}
