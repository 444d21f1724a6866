package core

import (
	"thriftylp/graph"
	"thriftylp/internal/afforest"
	"thriftylp/internal/atomicx"
	"thriftylp/internal/parallel"
)

// ConnectIt (Dhulipala, Hong & Shun, VLDB 2021) generalizes Afforest into a
// framework of sampling strategies × finish strategies. The paper attempted
// to evaluate it but its repository would not compile at the time (§VI);
// these two representative points of the framework fill that column:
//
//   - k-out sampling: every vertex links to k pseudo-random neighbours
//     (Afforest's neighbour rounds pick the first k instead);
//   - BFS sampling: one breadth-first search from the maximum-degree vertex
//     pre-unites (almost surely) the giant component — the union-find
//     mirror of Thrifty's Zero Planting intuition.
//
// Both share the Afforest-style finish: identify the most frequent
// component among samples and union the remaining edges only for vertices
// outside it.

// connectItKOutRounds is k for k-out sampling (ConnectIt's default is 2).
const connectItKOutRounds = 2

// ConnectItKOut runs k-out sampling + union-find finish.
func ConnectItKOut(g *graph.Graph, cfg Config) Result {
	pool := cfg.pool()
	n := g.NumVertices()
	comp := make([]uint32, n)
	parallel.Fill(pool, comp, func(i int) uint32 { return uint32(i) })
	if n == 0 {
		return Result{Labels: comp}
	}
	fl := &chunkFlusher{cfg: &cfg}
	sch := newScheduler(g, cfg, pool)
	res := Result{}

	// Sampling: k pseudo-random neighbours per vertex, deterministic in the
	// vertex id so runs are reproducible.
	for r := 0; r < connectItKOutRounds; r++ {
		rr := uint64(r)
		sch.sweep(func(tid, lo, hi int) {
			if cfg.Stop.Requested() {
				return // cancellation poll at partition entry
			}
			var ck chunkCounts
			for v := lo; v < hi; v++ {
				ck.visits++
				nb := g.Neighbors(uint32(v))
				if len(nb) == 0 {
					continue
				}
				z := uint64(v)*0x9e3779b97f4a7c15 + rr*0xbf58476d1ce4e5b9
				z ^= z >> 29
				z *= 0x94d049bb133111eb
				z ^= z >> 32
				u := nb[z%uint64(len(nb))]
				ck.edges++
				afforestLink(uint32(v), u, comp, &ck)
			}
			ck.flush(cfg.Ctr, tid)
		})
		res.Iterations++
		if cfg.cancelPoint(&res, PhaseSample) {
			// A partial forest is still a valid union-find state; compress
			// it so the returned labels are root ids, then bail.
			afforestCompress(pool, comp, fl)
			res.Labels = comp
			res.Sched = sch.stealStats()
			return res
		}
	}
	afforestCompress(pool, comp, fl)

	connectItFinish(g, cfg, pool, comp, fl)
	res.Iterations++
	cfg.cancelPoint(&res, PhaseFinish)
	res.Labels = comp
	res.Sched = sch.stealStats()
	return res
}

// ConnectItBFS runs BFS sampling + union-find finish: a direction-
// optimizing BFS from the max-degree vertex flat-unites everything it
// reaches, then the finish pass handles the rest.
func ConnectItBFS(g *graph.Graph, cfg Config) Result {
	pool := cfg.pool()
	n := g.NumVertices()
	comp := make([]uint32, n)
	parallel.Fill(pool, comp, func(i int) uint32 { return uint32(i) })
	if n == 0 {
		return Result{Labels: comp}
	}
	fl := &chunkFlusher{cfg: &cfg}
	res := Result{}

	// Sampling: claim the hub's component with one BFS. bfsFrom writes the
	// root id into every reached slot of a bfsUnset-initialized array; here
	// comp is identity-initialized, so run the BFS on a scratch array and
	// fold the reached set into comp as a depth-1 star.
	hub := g.MaxDegreeVertex()
	scratch := make([]uint32, n)
	parallel.Fill(pool, scratch, func(i int) uint32 { return bfsUnset })
	var explored int64
	levels := bfsFrom(g, cfg, pool, scratch, hub, &explored)
	res.Iterations += levels
	parallel.For(pool, n, 4096, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			if scratch[v] == hub {
				comp[v] = hub //thrifty:benign-race workers own disjoint vertex ranges of comp
			}
		}
	})
	if cfg.cancelPoint(&res, PhaseBFS) {
		// bfsFrom exited at a level boundary; the partially claimed star is
		// already folded into comp, which stays a valid union-find state.
		res.Labels = comp
		return res
	}

	connectItFinish(g, cfg, pool, comp, fl)
	res.Iterations++
	cfg.cancelPoint(&res, PhaseFinish)
	res.Labels = comp
	return res
}

// connectItFinish is the shared Afforest-style finish: skip members of the
// dominant sampled component, union every remaining edge, compress.
func connectItFinish(g *graph.Graph, cfg Config, pool *parallel.Pool, comp []uint32, fl *chunkFlusher) {
	giant := afforest.FrequentRoot(comp)
	newScheduler(g, cfg, pool).sweep(func(tid, lo, hi int) {
		if cfg.Stop.Requested() {
			return // cancellation poll at partition entry
		}
		var ck chunkCounts
		for v := lo; v < hi; v++ {
			ck.visits++
			ck.branches++
			if atomicx.LoadUint32(&comp[v]) == giant {
				ck.loads++
				continue
			}
			for _, u := range g.Neighbors(uint32(v)) {
				ck.edges++
				afforestLink(uint32(v), u, comp, &ck)
			}
		}
		ck.flush(cfg.Ctr, tid)
	})
	afforestCompress(pool, comp, fl)
}
