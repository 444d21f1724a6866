package core

import (
	"time"
	"unsafe"

	"thriftylp/graph"
	"thriftylp/internal/atomicx"
	"thriftylp/internal/bitmap"
	"thriftylp/internal/counters"
	"thriftylp/internal/parallel"
	"thriftylp/internal/worklist"
)

// This file holds the one push sweep and one pull sweep of the whole
// label-propagation family, and the baselines' run loops: DO-LP
// (Algorithm 1), its Unified Labels ablation, and textbook LP. DO-LP and
// DO-LP+Unified share one run loop; Thrifty (thrifty.go) runs the same
// sweeps under thriftyRule. The DO-LP loop and the sweeps also run a second
// program, BFS hop distance from a root (HopDistance, HopDistanceUnified):
// the paper's §VII question of how the Unified Labels Array relates to
// asynchronous execution, asked of an SpMV-style algorithm other than
// connected components.

// labelAccess selects at compile time how the sweeps read and write labels.
// Each instantiation of a sweep is compiled separately (the two types have
// different sizes, hence different gc-shapes), and the unsafe.Sizeof test in
// loadLabel/storeLabel folds to a constant, exactly like the instr gates.
//
//   - splitLabels: reads come from an old array no thread writes during the
//     sweep, and each pull store targets the worker's own vertex, so loads
//     and stores stay plain. On amd64 an atomic store is an XCHG; the
//     two-array kernels must not pay for it.
//   - sharedLabels: one array is read and written concurrently, so every
//     access is atomic. A label written early in an iteration is visible to
//     vertices processed later in the same iteration (§IV-A).
type labelAccess interface{ splitLabels | sharedLabels }

type splitLabels struct{}
type sharedLabels struct{ _ byte }

// shared reports whether A reads and writes one labels array.
func shared[A labelAccess]() bool {
	var a A
	return unsafe.Sizeof(a) != 0
}

// loadLabel and storeLabel spell the Sizeof test out instead of calling
// shared: a generic call nested in an inlined generic call leaves a
// dictionary load and nil check in the sweeps' per-edge loops. They index
// by int because the pull's vertex loop counts in int, and narrowing it to
// uint32 costs a zero-extending move per vertex; a neighbour id loaded from
// the adjacency array is already zero-extended.
func loadLabel[A labelAccess](labels []uint32, v int) uint32 {
	var a A
	if unsafe.Sizeof(a) != 0 {
		return atomicx.LoadUint32(&labels[v])
	}
	return labels[v]
}

func storeLabel[A labelAccess](labels []uint32, v int, l uint32) {
	var a A
	if unsafe.Sizeof(a) != 0 {
		atomicx.StoreUint32(&labels[v], l)
		return
	}
	labels[v] = l
}

// program selects at compile time what a label means and how it crosses an
// edge, the same way labelAccess selects how it is stored:
//
//   - minLabel: connected components. Labels start as vertex ids and cross
//     an edge unchanged, so each vertex converges to its component's
//     minimum id.
//   - hopCount: BFS hop distance. Values start Unreached except at the
//     root, which holds 0, and grow by one hop per edge crossed.
type program interface{ minLabel | hopCount }

type minLabel struct{}
type hopCount struct{ _ byte }

// Unreached is the hop distance of a vertex the root cannot reach.
const Unreached = ^uint32(0)

// across returns the value label x offers a neighbour: x itself for
// minLabel, one hop more for hopCount, where Unreached stays Unreached.
func across[P program](x uint32) uint32 {
	var p P
	if unsafe.Sizeof(p) != 0 && x != Unreached {
		return x + 1
	}
	return x
}

// rule selects at compile time which of Thrifty's traversal techniques the
// sweeps apply, folded through unsafe.Sizeof like labelAccess and program.
// With it the sweeps run the ablation ladder of Fig 9/10: DOLP is
// splitLabels+dolpRule, DOLPUnified is sharedLabels+dolpRule, and Thrifty is
// sharedLabels+thriftyRule, the same sweep with the zero-label techniques.
//
//   - dolpRule: Algorithm 1's traversal. Pull scans every vertex's whole
//     adjacency list, frontiers are bitmaps, and push charges one label load
//     per edge.
//   - thriftyRule: Algorithm 2's traversal. Pull skips a vertex holding 0
//     and ends a scan at the first 0 it reads (Zero Convergence, §IV-B),
//     charging one branch for each test; long adjacency lists run the
//     prefetch-peeled loops; frontiers are worklist.Sets (§IV-E).
type rule interface{ dolpRule | thriftyRule }

type dolpRule struct{}
type thriftyRule struct{ _ byte }

// zeroRule reports whether R is thriftyRule. Call it straight from a sweep's
// worker closure, as loadLabel is, so the test folds to a constant.
func zeroRule[R rule]() bool {
	var r R
	return unsafe.Sizeof(r) != 0
}

// frontier is where a sweep records the vertices whose label it lowered:
// dolpRule sweeps mark bm, thriftyRule sweeps add to ws. A nil target
// records nothing (a pull only; push always records).
type frontier struct {
	bm *bitmap.Bitmap
	ws *worklist.Set
}

// density returns the direction-decision ratio of Algorithm 1 line 7,
// (|F.V|+|F.E|)/|E|, over directed adjacency slots in both numerator and
// denominator so the ratio is representation independent. It is 0 on an
// edgeless graph.
func density(g *graph.Graph, activeV, activeE int64) float64 {
	m := g.NumDirectedEdges()
	if m == 0 {
		return 0
	}
	return float64(activeV+activeE) / float64(m)
}

// fillFrontier loads the set bits of bm into q, the dense→sparse frontier
// conversion before a dolpRule push. Each thread appends the chunks it
// claims in ascending order, so a one-thread fill lists the vertices in
// ascending order. The bits are distinct, so q needs no mark array; the
// push marks its output in a bitmap.
func fillFrontier(pool *parallel.Pool, q *worklist.Queue, bm *bitmap.Bitmap) {
	parallel.For(pool, bm.Len(), 8192, func(tid, lo, hi int) {
		q.AppendRange(tid, bm, lo, hi)
	})
}

// DOLP is Direction-Optimizing Label Propagation, a faithful implementation
// of Algorithm 1 of the paper: two labels arrays (old/new), a frontier of
// vertices whose label changed, push traversal with atomic-min when the
// frontier is sparse, pull traversal over all vertices when dense, and an
// end-of-iteration labels-array synchronization pass. This is the paper's
// primary baseline (its column in Table IV, Fig 5-8, and the reference
// against which Thrifty's 25.2× average speedup is quoted).
func DOLP(g *graph.Graph, cfg Config) Result { return dolp[splitLabels, minLabel](g, cfg, 0) }

// DOLPUnified is Direction-Optimizing Label Propagation with exactly one of
// Thrifty's four optimizations applied: the Unified Labels Array (§IV-A).
// A single labels array replaces the old/new pair, so a label written early
// in an iteration is already visible to vertices processed later in the
// same iteration, and the end-of-iteration synchronization pass disappears.
// No zero planting, zero convergence, or initial push.
//
// This variant exists for the ablation of Fig 9/10: the gap between DOLP
// and DOLPUnified measures the Unified Labels contribution (~65% of
// Thrifty's total improvement in the paper), and the gap between
// DOLPUnified and Thrifty measures the other three techniques combined.
func DOLPUnified(g *graph.Graph, cfg Config) Result { return dolp[sharedLabels, minLabel](g, cfg, 0) }

// HopDistance computes BFS hop distances from root with DO-LP's two arrays:
// Result.Labels[v] is the number of edges on a shortest path from root to
// v, or Unreached. A distance moves one hop per iteration, so the run takes
// about as many iterations as root's eccentricity. root must be a vertex of
// g unless g is empty.
func HopDistance(g *graph.Graph, root uint32, cfg Config) Result {
	return dolp[splitLabels, hopCount](g, cfg, root)
}

// HopDistanceUnified is HopDistance on one labels array, as DOLPUnified is
// DOLP on one: a distance lowered early in a sweep is read by vertices
// processed later in it, so it can travel many hops per iteration. The gap
// to HopDistance is the asynchronous-execution effect of §VII.
func HopDistanceUnified(g *graph.Graph, root uint32, cfg Config) Result {
	return dolp[sharedLabels, hopCount](g, cfg, root)
}

// dolp runs program P on the DO-LP loop; root is used by hopCount only.
func dolp[A labelAccess, P program](g *graph.Graph, cfg Config, root uint32) Result {
	n := g.NumVertices()
	read := make([]uint32, n)
	write := read
	if !shared[A]() {
		write = make([]uint32, n)
	}
	if cfg.fastInstr() {
		return dolpRun[A, P](g, cfg, root, read, write, noInstr{})
	}
	return dolpRun[A, P](g, cfg, root, read, write, newCounting(cfg))
}

// dolpRun is the run loop of Algorithm 1. Sweeps read labels from read and
// write them to write; for the one-array variants the two are the same
// slice.
func dolpRun[A labelAccess, P program, I instr[I]](g *graph.Graph, cfg Config, root uint32, read, write []uint32, proto I) Result {
	pool := cfg.pool()
	n := g.NumVertices()
	threshold := cfg.threshold(DefaultDOLPThreshold)

	// Initial label assignment (lines 2-4): every label is the vertex id
	// (hopCount: Unreached, and 0 at the root), and every vertex starts
	// active, so iteration 0 is a full pull.
	var p P
	if unsafe.Sizeof(p) == 0 {
		parallel.Fill(pool, read, func(i int) uint32 { return uint32(i) })
	} else {
		parallel.Fill(pool, read, func(int) uint32 { return Unreached })
		if n > 0 {
			read[root] = 0
		}
	}
	if !shared[A]() {
		parallel.Copy(pool, write, read)
	}
	// The frontier is a bitmap (dolpRule); a push drains it through cur.
	oldBM, newBM := bitmap.New(n), bitmap.New(n)
	oldBM.SetAll()
	activeV, activeE := int64(n), g.NumDirectedEdges()
	cur := worklist.NewQueue(pool.Threads())
	sch := newScheduler(g, cfg, pool)

	res := Result{PhaseDurations: make(map[string]time.Duration, 2)}
	loop := lpLoop{cfg: cfg, pool: pool, res: &res}
	maxIters := cfg.maxIters(n)
	for activeV > 0 && res.Iterations < maxIters {
		loop.begin()
		rec := counters.IterRecord{
			Active:      activeV,
			ActiveEdges: activeE,
			Density:     density(g, activeV, activeE),
			Threshold:   threshold,
		}
		if rec.Density < threshold {
			// Push traversal (lines 9-12).
			rec.Kind = counters.KindPush
			fillFrontier(pool, cur, oldBM)
			activeV, activeE = pushSweep[A, P, dolpRule](g, pool, read, write, cur, frontier{bm: newBM}, activeV+activeE, cfg.Stop, proto)
			cur.Reset()
		} else {
			// Pull traversal (lines 13-20): all vertices, ignoring frontier
			// membership of neighbours.
			rec.Kind = counters.KindPull
			activeV, activeE = pullSweep[A, P, dolpRule](g, sch, read, write, frontier{bm: newBM}, cfg.Stop, proto)
		}
		rec.Changed = activeV

		if !shared[A]() {
			// Synchronize labels arrays (lines 21-22). The sync pass streams
			// both arrays through the cache hierarchy — 2n label accesses and
			// 2·⌈n/16⌉ cache lines per iteration — which is precisely the
			// traffic the Unified Labels Array removes, so the
			// instrumentation must charge it.
			parallel.Copy(pool, read, write)
			if cfg.Ctr != nil {
				cfg.Ctr.Add(0, counters.LabelLoads, int64(n))
				cfg.Ctr.Add(0, counters.LabelStores, int64(n))
				cfg.Ctr.Add(0, counters.CacheLines, 2*int64((n+15)/16))
			}
		}
		oldBM, newBM = newBM, oldBM
		newBM.Reset()

		// Cancellation before the loop condition re-evaluates: a cancelled
		// sweep skips partitions, and the resulting empty frontier means
		// "aborted", not "converged".
		if loop.end(rec, read) {
			break
		}
	}
	res.Labels = write
	res.Sched = sch.stealStats()
	return res
}

// LP is the textbook synchronous Label Propagation CC (§II): every vertex,
// every iteration, takes the minimum of its own and its neighbours' labels
// from the previous iteration's array, until a fixed point. It has no
// frontier, no direction optimization and no convergence shortcuts — it is
// the semantic reference the optimized variants are validated against, and
// the zero line for measuring what DO-LP's frontier machinery buys.
func LP(g *graph.Graph, cfg Config) Result {
	if cfg.fastInstr() {
		return lpRun(g, cfg, noInstr{})
	}
	// Built without the line tracker: LP's counter profile has never
	// included cache lines, and its sweep's Touch hooks only tick the plan.
	return lpRun(g, cfg, counting{ctr: cfg.Ctr, plan: cfg.Faults})
}

func lpRun[I instr[I]](g *graph.Graph, cfg Config, proto I) Result {
	pool := cfg.pool()
	n := g.NumVertices()
	oldLbs := make([]uint32, n)
	newLbs := make([]uint32, n)
	parallel.Fill(pool, oldLbs, func(i int) uint32 { return uint32(i) })
	parallel.Copy(pool, newLbs, oldLbs)
	sch := newScheduler(g, cfg, pool)

	res := Result{PhaseDurations: make(map[string]time.Duration, 1)}
	loop := lpLoop{cfg: cfg, pool: pool, res: &res}
	maxIters := cfg.maxIters(n)
	totalE := g.Offsets()[n] // every iteration scans the full adjacency
	for res.Iterations < maxIters {
		loop.begin()
		// LP has no frontier and no direction decision: every vertex is
		// active every iteration, density is by definition 1 and there is
		// no threshold to compare against.
		rec := counters.IterRecord{Kind: counters.KindPull, Active: int64(n), ActiveEdges: totalE, Density: 1}
		rec.Changed, _ = pullSweep[splitLabels, minLabel, dolpRule](g, sch, oldLbs, newLbs, frontier{}, cfg.Stop, proto)
		// The cancellation check must precede the convergence check: a
		// cancelled sweep skips partitions, and its changed count of 0
		// means "aborted", not "fixed point".
		if loop.end(rec, newLbs) || rec.Changed == 0 {
			break
		}
		parallel.Copy(pool, oldLbs, newLbs)
	}
	res.Labels = newLbs
	res.Sched = sch.stealStats()
	return res
}

// lpLoop is the iteration bookkeeping the label-propagation run loops
// (Thrifty, DO-LP, LP) share: begin opens an iteration and end closes it.
// Both run once per iteration, never per edge or vertex, on every path
// including noInstr.
type lpLoop struct {
	cfg   Config
	pool  *parallel.Pool
	res   *Result
	start time.Time // clock at the open iteration's start
	edges int64     // EdgesProcessed at the open iteration's start
}

// begin opens an iteration: one clock read and one counter total.
func (l *lpLoop) begin() {
	l.start = time.Now()
	l.edges = l.cfg.Ctr.Total(counters.EdgesProcessed)
}

// end closes the open iteration, which rec describes by its Kind, frontier,
// Changed, Density and Threshold. It counts the iteration by direction,
// flushes the cache-line tracker, stamps rec's Index, Edges and Duration,
// adds the duration to the run's PhaseDurations, and records rec with Zero —
// the vertices holding label 0 in labels, counted only when tracing. It
// reports whether the run was cancelled and must leave its loop.
func (l *lpLoop) end(rec counters.IterRecord, labels []uint32) bool {
	res := l.res
	rec.Index = res.Iterations
	res.Iterations++
	if rec.Kind == counters.KindPush || rec.Kind == counters.KindInitialPush {
		res.PushIterations++
	} else {
		res.PullIterations++
	}
	l.cfg.Lines.FlushIteration(l.cfg.Ctr, 0)
	rec.Edges = l.cfg.Ctr.Total(counters.EdgesProcessed) - l.edges
	rec.Duration = time.Since(l.start)
	res.PhaseDurations[string(rec.Kind)] += rec.Duration
	if l.cfg.Trace.Enabled() {
		rec.Zero = countZeros(l.pool, labels)
		l.cfg.Trace.Record(rec, labels)
	}
	return l.cfg.cancelPoint(res, string(rec.Kind))
}

// pushSeqCutoff is the |F.V|+|F.E| estimate below which a push iteration
// runs on the calling thread instead of waking the pool: parking/unparking
// the workers costs more than traversing a few thousand edges, and web-like
// graphs spend dozens of iterations on chain frontiers this small.
const pushSeqCutoff = 4096

// Software-prefetch tuning for the thriftyRule sweeps. Go exposes no
// portable prefetch intrinsic, so on long adjacency lists the sweeps issue
// an early demand load of the label prefetchDist edges ahead of the scan
// cursor and fold it into a live sink: neighbour label accesses are the
// sweeps' cache-miss source (adjacency order is uncorrelated with label
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

// pushSweep runs one push iteration over the sparse frontier cur: each
// frontier vertex propagates its label from read, carried across the edge by
// P, to its neighbours' labels in write with atomic-min, and records lowered
// neighbours in fr. work is the caller's |F.V|+|F.E| estimate for cur;
// frontiers under pushSeqCutoff are drained on the calling thread. Returns
// the new frontier's vertex count and degree sum. Frontier consumption uses
// chunked work stealing (own list first, then other threads' lists), and a
// racing duplicate insertion, permitted by the worklist's non-CAS marks, at
// worst processes a vertex twice, which is harmless because labels only
// decrease.
//
//thrifty:hotpath
func pushSweep[A labelAccess, P program, R rule, I instr[I]](g *graph.Graph, pool *parallel.Pool, read, write []uint32, cur *worklist.Queue, fr frontier, work int64, stop *Stop, proto I) (int64, int64) {
	var av, ae int64
	if work < pushSeqCutoff {
		pushDrain[A, P, R](g, read, write, cur, fr, stop, proto, 0, &av, &ae)
	} else {
		pool.MustRun(func(tid int) {
			pushDrain[A, P, R](g, read, write, cur, fr, stop, proto, tid, &av, &ae)
		})
	}
	return av, ae
}

// pushDrain is one worker's share of a push iteration: it drains cur on
// behalf of thread tid and adds the vertex count and degree sum it recorded
// to av and ae. It must not be inlined: Go compiles the copy of a closure
// that inlining makes inside a generic function without folding the hook
// gates, so an inlined sequential call would pay a real call per hook per
// edge.
//
//go:noinline
//thrifty:hotpath
func pushDrain[A labelAccess, P program, R rule, I instr[I]](g *graph.Graph, read, write []uint32, cur *worklist.Queue, fr frontier, stop *Stop, proto I, tid int, av, ae *int64) {
	offs, adj := g.Offsets(), g.Adjacency()
	ins := proto.Fresh()
	var localV, localE int64
	var seen, pf uint32
	stopped := false
	cur.Drain(tid, func(v uint32) {
		// Amortized cancellation poll: chain frontiers drain thousands of
		// degree-2 vertices, where even an uncontended flag load per vertex
		// is measurable, so the shared flag is read every 256 vertices and
		// latched into a local. Cancellation latency stays bounded by 256
		// adjacency scans per worker.
		if stopped {
			return
		}
		seen++
		if seen&255 == 0 && stop.Requested() {
			stopped = true
			return
		}
		iVisit(ins)
		lv := across[P](loadLabel[A](read, int(v)))
		iLoad(ins)
		nb := adj[offs[v]:offs[v+1]]
		if zeroRule[R]() && len(nb) >= prefetchMinDeg {
			// Long list (the initial push from the planted hub is the
			// extreme case): touch the label prefetchDist edges ahead so its
			// line is in flight when MinUint32 reaches it. The touch is not
			// an algorithmic label access, so it is not charged to the
			// instrumentation counters.
			for i := 0; i < len(nb); i++ {
				if i+prefetchDist < len(nb) {
					pf ^= atomicx.LoadUint32(&write[nb[i+prefetchDist]])
				}
				u := nb[i]
				iEdge(ins)
				iCAS(ins)
				iBranch(ins)
				iTouch(ins, u)
				if atomicx.MinUint32(&write[u], lv) {
					iStore(ins)
					if fr.ws.AddIfAbsent(tid, u) {
						localV++
						localE += offs[u+1] - offs[u]
					}
				}
			}
			return
		}
		for _, u := range nb {
			iEdge(ins)
			if !zeroRule[R]() {
				iLoad(ins) // Algorithm 1 reads the old label per edge
			}
			iCAS(ins)
			iBranch(ins)
			iTouch(ins, u)
			if atomicx.MinUint32(&write[u], lv) {
				iStore(ins)
				if zeroRule[R]() {
					if fr.ws.AddIfAbsent(tid, u) {
						localV++
						localE += offs[u+1] - offs[u]
					}
				} else if fr.bm.SetAtomic(int(u)) {
					localV++
					localE += offs[u+1] - offs[u]
				}
			}
		}
	})
	iFlush(ins, tid)
	if zeroRule[R]() {
		atomicx.StoreUint32(&prefetchSink, pf)
	}
	atomicx.AddInt64(av, localV)
	atomicx.AddInt64(ae, localE)
}

// pullSweep runs one pull iteration: every vertex takes the minimum of its
// own label and its neighbours' labels in read, carried across the edge by
// P, into its label in write, recording changed vertices in fr. Returns the
// changed-vertex count and degree sum, which drive the next direction
// decision. Under sharedLabels a neighbour read may observe a label written
// earlier in this same iteration, which is what accelerates wavefront
// propagation; under thriftyRule converged vertices are skipped and a scan
// stops at the first 0 (Algorithm 2 lines 22-34).
//
//thrifty:hotpath
func pullSweep[A labelAccess, P program, R rule, I instr[I]](g *graph.Graph, sch *scheduler, read, write []uint32, fr frontier, stop *Stop, proto I) (int64, int64) {
	offs, adj := g.Offsets(), g.Adjacency()
	var av, ae int64
	sch.sweep(func(tid, lo, hi int) {
		ins := proto.Fresh()
		if stop.Requested() {
			return // cancellation poll at partition entry
		}
		var localV, localE int64
		var pf uint32
		for v := lo; v < hi; v++ {
			iVisit(ins)
			own := loadLabel[A](read, v)
			iLoad(ins)
			iTouch(ins, uint32(v))
			if zeroRule[R]() {
				iBranch(ins)
				if own == 0 {
					continue // Zero Convergence: v has converged (line 24)
				}
			}
			newLabel := own
			nb := adj[offs[v]:offs[v+1]]
			if zeroRule[R]() && len(nb) >= prefetchMinDeg {
				// Long list: touch the label prefetchDist edges ahead so its
				// line is in flight when the comparison reaches it (see the
				// prefetchDist comment). Not charged to the counters — the
				// touch is not an algorithmic label access.
				for i := 0; i < len(nb); i++ {
					if i+prefetchDist < len(nb) {
						pf ^= atomicx.LoadUint32(&read[nb[i+prefetchDist]])
					}
					u := nb[i]
					iEdge(ins)
					iLoad(ins)
					iBranch(ins)
					iTouch(ins, u)
					if l := across[P](loadLabel[A](read, int(u))); l < newLabel {
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
					if l := across[P](loadLabel[A](read, int(u))); l < newLabel {
						newLabel = l
						if zeroRule[R]() {
							iBranch(ins)
							if newLabel == 0 {
								break // Zero Convergence: nothing smaller exists (line 31)
							}
						}
					}
				}
			}
			iBranch(ins)
			if newLabel < own {
				storeLabel[A](write, v, newLabel)
				iStore(ins)
				localV++
				localE += offs[v+1] - offs[v]
				if zeroRule[R]() {
					if fr.ws != nil {
						fr.ws.Add(tid, uint32(v))
					}
				} else if fr.bm != nil {
					fr.bm.SetAtomic(v) // chunks share words at their edges
				}
			}
		}
		if zeroRule[R]() {
			atomicx.StoreUint32(&prefetchSink, pf)
		}
		iFlush(ins, tid)
		atomicx.AddInt64(&av, localV)
		atomicx.AddInt64(&ae, localE)
	})
	return av, ae
}
