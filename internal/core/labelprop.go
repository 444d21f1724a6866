package core

import (
	"time"
	"unsafe"

	"thriftylp/graph"
	"thriftylp/internal/atomicx"
	"thriftylp/internal/bitmap"
	"thriftylp/internal/counters"
	"thriftylp/internal/parallel"
)

// This file holds the label-propagation baselines: DO-LP (Algorithm 1), its
// Unified Labels ablation, and textbook LP. DO-LP and DO-LP+Unified share
// one run loop, and all three share one push and one pull sweep. The same
// loop and sweeps also run a second program, BFS hop distance from a root
// (HopDistance, HopDistanceUnified): the paper's §VII question of how the
// Unified Labels Array relates to asynchronous execution, asked of an
// SpMV-style algorithm other than connected components.

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
// dictionary load and nil check in the sweeps' per-edge loops.
func loadLabel[A labelAccess](labels []uint32, v uint32) uint32 {
	var a A
	if unsafe.Sizeof(a) != 0 {
		return atomicx.LoadUint32(&labels[v])
	}
	return labels[v]
}

func storeLabel[A labelAccess](labels []uint32, v, l uint32) {
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

// frontierState tracks the active-vertex bitmap and the vertex/edge counts
// that drive the push/pull direction decision of Algorithm 1 (line 7:
// density = (|F.V| + |F.E|) / |E|). Edge counts use directed adjacency
// slots in both numerator and denominator so the ratio is representation
// independent.
type frontierState struct {
	bm      *bitmap.Bitmap
	activeV int64
	activeE int64
}

// recount recomputes the active vertex and edge totals from the bitmap.
// The scan is word-at-a-time (TrailingZeros64 drain): after the first few
// iterations the frontier is sparse, so most 64-bit words are zero and cost
// one load instead of 64 per-bit probes.
func (f *frontierState) recount(pool *parallel.Pool, g *graph.Graph) {
	n := g.NumVertices()
	offs := g.Offsets()
	var av, ae int64
	parallel.For(pool, n, 4096, func(_, lo, hi int) {
		var v, e int64
		f.bm.ForEachRange(lo, hi, func(i int) {
			v++
			e += offs[i+1] - offs[i]
		})
		atomicx.AddInt64(&av, v)
		atomicx.AddInt64(&ae, e)
	})
	f.activeV, f.activeE = av, ae
}

// density returns (|F.V|+|F.E|)/|E| over directed slots.
func (f *frontierState) density(g *graph.Graph) float64 {
	m := g.NumDirectedEdges()
	if m == 0 {
		return 0
	}
	return float64(f.activeV+f.activeE) / float64(m)
}

// extract gathers the set bits into a vertex list (dense→sparse frontier
// conversion before a push iteration), word-at-a-time via AppendRange: a
// push iteration only runs when the frontier is below the density threshold,
// which is exactly when most bitmap words are zero and the drain loop skips
// them in one branch each.
func (f *frontierState) extract(pool *parallel.Pool) []uint32 {
	threads := pool.Threads()
	partial := make([][]uint32, threads)
	n := f.bm.Len()
	parallel.For(pool, n, 8192, func(tid, lo, hi int) {
		partial[tid] = f.bm.AppendRange(partial[tid], lo, hi) //thrifty:benign-race per-thread collection buffer indexed by tid
	})
	out := make([]uint32, 0, f.activeV)
	for _, p := range partial {
		out = append(out, p...)
	}
	return out
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
	read := cfg.Arena.Uint32s(n)
	write := read
	if !shared[A]() {
		write = cfg.Arena.Uint32s(n)
	}
	switch {
	case cfg.Faults != nil:
		return dolpRun[A, P](g, cfg, root, read, write, newChaos(cfg))
	case !cfg.fastInstr():
		return dolpRun[A, P](g, cfg, root, read, write, newCounting(cfg))
	default:
		return dolpRun[A, P](g, cfg, root, read, write, noInstr{})
	}
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
	oldFr := frontierState{bm: cfg.Arena.Bitmap(n)}
	newFr := frontierState{bm: cfg.Arena.Bitmap(n)}
	oldFr.bm.SetAll()
	oldFr.activeV = int64(n)
	oldFr.activeE = g.NumDirectedEdges()
	sch := newScheduler(g, cfg, pool)

	res := Result{PhaseDurations: make(map[string]time.Duration, 2)}
	loop := lpLoop{cfg: cfg, pool: pool, res: &res}
	maxIters := cfg.maxIters(n)
	for oldFr.activeV > 0 && res.Iterations < maxIters {
		loop.begin()
		rec := counters.IterRecord{
			Active:      oldFr.activeV,
			ActiveEdges: oldFr.activeE,
			Density:     oldFr.density(g),
			Threshold:   threshold,
		}
		if rec.Density < threshold {
			// Push traversal (lines 9-12).
			rec.Kind = counters.KindPush
			rec.Changed = pushSweep[A, P](g, pool, read, write, oldFr.extract(pool), newFr.bm, cfg.Stop, proto)
		} else {
			// Pull traversal (lines 13-20): all vertices, ignoring frontier
			// membership of neighbours.
			rec.Kind = counters.KindPull
			rec.Changed = pullSweep[A, P](g, sch, read, write, newFr.bm, cfg.Stop, proto)
		}

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
		newFr.recount(pool, g)
		oldFr, newFr = newFr, oldFr
		newFr.bm.Reset()
		newFr.activeV, newFr.activeE = 0, 0

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
	switch {
	case cfg.Faults != nil:
		return lpRun(g, cfg, newChaos(cfg))
	case !cfg.fastInstr():
		// Built without the line tracker: LP's counter profile has never
		// included cache lines, and its sweep's Touch hooks stay no-ops.
		return lpRun(g, cfg, counting{ctr: cfg.Ctr})
	default:
		return lpRun(g, cfg, noInstr{})
	}
}

func lpRun[I instr[I]](g *graph.Graph, cfg Config, proto I) Result {
	pool := cfg.pool()
	n := g.NumVertices()
	oldLbs := cfg.Arena.Uint32s(n)
	newLbs := cfg.Arena.Uint32s(n)
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
		rec.Changed = pullSweep[splitLabels, minLabel](g, sch, oldLbs, newLbs, nil, cfg.Stop, proto)
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

// pushSweep runs one push iteration over the sparse frontier active: each
// active vertex propagates its label from read, carried across the edge by
// P, to its neighbours' labels in write with atomic-min, marking lowered
// neighbours in fr. Returns the number of newly activated vertices.
//
//thrifty:hotpath
func pushSweep[A labelAccess, P program, I instr[I]](g *graph.Graph, pool *parallel.Pool, read, write, active []uint32, fr *bitmap.Bitmap, stop *Stop, proto I) int64 {
	offs, adj := g.Offsets(), g.Adjacency()
	var changed int64
	parallel.For(pool, len(active), 512, func(tid, lo, hi int) {
		ins := proto.Fresh()
		if stop.Requested() {
			return // cancellation poll at chunk entry
		}
		var local int64
		for _, v := range active[lo:hi] {
			iVisit(ins)
			lv := across[P](loadLabel[A](read, v))
			iLoad(ins)
			for _, u := range adj[offs[v]:offs[v+1]] {
				iEdge(ins)
				iLoad(ins)
				iCAS(ins)
				iBranch(ins)
				iTouch(ins, u)
				if atomicx.MinUint32(&write[u], lv) {
					iStore(ins)
					if fr.SetAtomic(int(u)) {
						local++
					}
				}
			}
		}
		iFlush(ins, tid)
		atomicx.AddInt64(&changed, local)
	})
	return changed
}

// pullSweep runs one pull iteration: every vertex takes the minimum of its
// own label and its neighbours' labels in read, carried across the edge by
// P, into its label in write, marking changed vertices in fr when fr is
// non-nil. Returns the number of changed vertices. Under sharedLabels a
// neighbour read may observe a label written earlier in this same
// iteration, which is what accelerates wavefront propagation.
//
//thrifty:hotpath
func pullSweep[A labelAccess, P program, I instr[I]](g *graph.Graph, sch *scheduler, read, write []uint32, fr *bitmap.Bitmap, stop *Stop, proto I) int64 {
	offs, adj := g.Offsets(), g.Adjacency()
	var changed int64
	sch.sweep(func(tid, lo, hi int) {
		ins := proto.Fresh()
		if stop.Requested() {
			return // cancellation poll at partition entry
		}
		var local int64
		for v := lo; v < hi; v++ {
			iVisit(ins)
			own := loadLabel[A](read, uint32(v))
			newLabel := own
			iLoad(ins)
			iTouch(ins, uint32(v))
			for _, u := range adj[offs[v]:offs[v+1]] {
				iEdge(ins)
				iLoad(ins)
				iBranch(ins)
				iTouch(ins, u)
				if l := across[P](loadLabel[A](read, u)); l < newLabel {
					newLabel = l
				}
			}
			iBranch(ins)
			if newLabel < own {
				storeLabel[A](write, uint32(v), newLabel)
				iStore(ins)
				if fr != nil {
					fr.SetAtomic(v) // chunks share words at their edges
				}
				local++
			}
		}
		iFlush(ins, tid)
		atomicx.AddInt64(&changed, local)
	})
	return changed
}
