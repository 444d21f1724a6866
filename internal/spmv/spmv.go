// Package spmv generalizes Thrifty's optimizations beyond connected
// components — the direction the paper's §VII sets out: "we will
// investigate how these can be generalized to other algorithms expressed in
// the SpMV model ... in particular the connection between the unified
// arrays optimization and asynchronous execution".
//
// The engine iterates a monotone min-propagation
//
//	x_v ← min(x_v, min_{u∈N(v)} EdgeFn(x_u))
//
// to a fixed point, with the paper's machinery made generic:
//
//   - direction optimization: push over a sparse frontier, pull when dense;
//   - Sync mode (two value arrays, DO-LP-style) vs Async mode (one unified
//     array, Thrifty-style) — making the unified-arrays ⇔ asynchronous
//     execution correspondence measurable (compare Result.Iterations);
//   - seed planting (Zero Planting generalized: seeds carry the smallest
//     values, placed wherever the caller's structural knowledge says);
//   - an optional initial push from the seeds (Initial Push generalized);
//   - floor convergence (Zero Convergence generalized): a vertex whose
//     value equals Floor can never improve and is skipped, and pull scans
//     abort when the candidate reaches Floor.
//
// Connected components and BFS hop distances are provided as instances; any
// other (min, monotone-EdgeFn) propagation fits the same engine.
package spmv

import (
	"thriftylp/graph"
	"thriftylp/internal/atomicx"
	"thriftylp/internal/parallel"
	"thriftylp/internal/worklist"
)

// Unreached is the neutral initial value for programs whose vertices start
// with "no value" (e.g. BFS distance).
const Unreached = ^uint32(0)

// Program specifies one min-propagation computation.
type Program struct {
	// Init supplies vertex v's initial value. Required.
	Init func(v uint32) uint32
	// EdgeFn transforms a value as it crosses an edge. It must be monotone
	// non-decreasing (x <= y ⇒ EdgeFn(x) <= EdgeFn(y)) and satisfy
	// EdgeFn(x) >= min-value-reachable so the fixed point exists. Identity
	// for CC; saturating +1 for hop distance. Required.
	EdgeFn func(x uint32) uint32
	// Floor is the smallest value any vertex can hold; a vertex at Floor is
	// converged (skipped in pulls), and a pull scan short-circuits when its
	// candidate hits Floor AND EdgeFn(Floor) == Floor (otherwise only the
	// skip applies). 0 for CC-with-planting; 0 works for BFS too (only the
	// root holds it).
	Floor uint32
	// Seeds are (vertex, value) overrides applied after Init — the
	// generalized planting.
	Seeds []Seed
	// InitialPush runs one push iteration from the seed set before the
	// first pull — the generalized Initial Push. If false, every vertex is
	// initially active (DO-LP-style bootstrap).
	InitialPush bool
	// Async selects the unified (single-array) engine; false selects the
	// synchronous two-array engine.
	Async bool
	// Threshold is the push/pull density threshold (0 → 0.01).
	Threshold float64
}

// Seed plants a value on a vertex before iteration starts.
type Seed struct {
	Vertex uint32
	Value  uint32
}

// Result carries the fixed point and iteration telemetry.
type Result struct {
	Values     []uint32
	Iterations int
	PushIters  int
	PullIters  int
}

// Run executes the program on g using the default worker pool.
func Run(g *graph.Graph, p Program) Result {
	return RunOn(g, p, parallel.Default())
}

// RunOn executes the program on g with an explicit pool.
func RunOn(g *graph.Graph, p Program, pool *parallel.Pool) Result {
	n := g.NumVertices()
	res := Result{Values: make([]uint32, n)}
	if n == 0 {
		return res
	}
	threshold := p.Threshold
	if threshold <= 0 {
		threshold = 0.01
	}
	m := g.NumDirectedEdges()
	if m == 0 {
		m = 1
	}
	values := res.Values
	parallel.Fill(pool, values, func(i int) uint32 { return p.Init(uint32(i)) })
	for _, s := range p.Seeds {
		values[s.Vertex] = s.Value
	}

	// shadow is the previous-iteration array for Sync mode.
	var shadow []uint32
	if !p.Async {
		shadow = make([]uint32, n)
		parallel.Copy(pool, shadow, values)
	}

	threads := pool.Threads()
	cur := worklist.New(n, threads)
	next := worklist.New(n, threads)
	floorShortcut := p.EdgeFn(p.Floor) == p.Floor

	var activeV, activeE int64
	haveFrontier := false
	didFullSweep := false

	if p.InitialPush {
		for _, s := range p.Seeds {
			cur.Add(0, s.Vertex)
		}
		activeV, activeE = pushIter(g, p, pool, values, cur, next)
		cur, next = next, cur
		next.Reset()
		res.Iterations++
		res.PushIters++
		haveFrontier = true
		if !p.Async {
			parallel.Copy(pool, shadow, values)
		}
	} else {
		activeV, activeE = int64(n), m
	}

	maxIters := 2*n + 16
	// do-while semantics: at least one full sweep runs even if the initial
	// push changed nothing (a seed whose edges are all self-loops), so
	// every vertex is compared with its neighbours at least once.
	for (activeV > 0 || !didFullSweep) && res.Iterations < maxIters {
		density := float64(activeV+activeE) / float64(m)
		switch {
		case didFullSweep && density < threshold && haveFrontier:
			activeV, activeE = pushIter(g, p, pool, values, cur, next)
			cur, next = next, cur
			next.Reset()
			res.PushIters++
		case didFullSweep && density < threshold && !haveFrontier:
			cur.Reset()
			activeV, activeE = pullIter(g, p, pool, values, shadow, floorShortcut, cur, true)
			haveFrontier = true
			res.PullIters++
		default:
			activeV, activeE = pullIter(g, p, pool, values, shadow, floorShortcut, nil, false)
			haveFrontier = false
			didFullSweep = true
			res.PullIters++
		}
		res.Iterations++
		if !p.Async {
			parallel.Copy(pool, shadow, values)
		}
	}
	return res
}

// pushIter propagates values from the frontier with atomic-min. In Sync
// mode pushes read the shadow (previous-iteration) value of the source, so
// a value cannot travel multiple hops within one iteration.
func pushIter(g *graph.Graph, p Program, pool *parallel.Pool, values []uint32, cur, next *worklist.Set) (int64, int64) {
	var av, ae int64
	pool.MustRun(func(tid int) {
		var lv, le int64
		cur.Drain(tid, func(v uint32) {
			x := atomicx.LoadUint32(&values[v])
			out := p.EdgeFn(x)
			for _, u := range g.Neighbors(v) {
				if atomicx.MinUint32(&values[u], out) && next.AddIfAbsent(tid, u) {
					lv++
					le += int64(g.Degree(u))
				}
			}
		})
		atomicx.AddInt64(&av, lv)
		atomicx.AddInt64(&ae, le)
	})
	return av, ae
}

// pullIter runs one pull sweep. In Async mode neighbour values are read
// from the live array; in Sync mode from the shadow array. Floor-converged
// vertices are skipped, and the scan aborts early when the candidate
// reaches the floor (if the floor is a fixed point of EdgeFn).
func pullIter(g *graph.Graph, p Program, pool *parallel.Pool, values, shadow []uint32, floorShortcut bool, fr *worklist.Set, record bool) (int64, int64) {
	n := g.NumVertices()
	read := values
	if shadow != nil {
		read = shadow
	}
	var av, ae int64
	parallel.For(pool, n, 2048, func(tid, lo, hi int) {
		var lv, le int64
		for v := lo; v < hi; v++ {
			own := atomicx.LoadUint32(&values[v])
			if own == p.Floor {
				continue
			}
			cand := own
			for _, u := range g.Neighbors(uint32(v)) {
				var x uint32
				if shadow != nil {
					x = read[u]
				} else {
					x = atomicx.LoadUint32(&values[u])
				}
				if y := p.EdgeFn(x); y < cand {
					cand = y
					if floorShortcut && cand == p.Floor {
						break
					}
				}
			}
			if cand < own {
				atomicx.StoreUint32(&values[v], cand)
				lv++
				le += int64(g.Degree(uint32(v)))
				if record {
					fr.Add(tid, uint32(v))
				}
			}
		}
		atomicx.AddInt64(&av, lv)
		atomicx.AddInt64(&ae, le)
	})
	return av, ae
}
