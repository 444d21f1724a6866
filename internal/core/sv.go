package core

import (
	"thriftylp/graph"
	"thriftylp/internal/atomicx"
	"thriftylp/internal/parallel"
)

// ShiloachVishkin is the classic 1982 parallel CC algorithm, the first
// Disjoint Set CC (§II, baseline "SV" in Table IV). Each pass hooks the
// root of one endpoint's tree under the smaller root of the other endpoint
// and then fully shortcuts every tree to a star by pointer jumping; passes
// repeat until no hook fires. Every pass scans all edges, which is why SV
// trails the other baselines by an order of magnitude on large graphs.
func ShiloachVishkin(g *graph.Graph, cfg Config) Result {
	pool := cfg.pool()
	n := g.NumVertices()
	comp := make([]uint32, n)
	parallel.Iota(pool, comp, 0)
	sch := newScheduler(g, cfg, pool)

	res := Result{}
	maxIters := cfg.maxIters(n)
	for res.Iterations < maxIters {
		var changed int64
		// Hook pass: for every directed slot (v,u), if comp[v] < comp[u]
		// and comp[u] is a root, hook it under comp[v].
		sch.sweep(func(tid, lo, hi int) {
			if cfg.Stop.Requested() {
				return // cancellation poll at partition entry
			}
			var local int64
			var ck chunkCounts
			for v := lo; v < hi; v++ {
				ck.visits++
				for _, u := range g.Neighbors(uint32(v)) {
					ck.edges++
					ck.loads += 2
					ck.branches++
					x := atomicx.LoadUint32(&comp[v])
					y := atomicx.LoadUint32(&comp[u])
					if x < y {
						ck.loads++
						ck.cas++
						// Hook only roots: CAS guards against y having been
						// re-parented concurrently.
						if atomicx.CASUint32(&comp[y], y, x) {
							ck.stores++
							local++
						}
					}
				}
			}
			ck.flush(cfg.Ctr, tid)
			atomicx.AddInt64(&changed, local)
		})
		// Shortcut pass: full pointer jumping collapses every tree to a
		// star so the next hook pass compares roots directly.
		parallel.For(pool, n, 2048, func(tid, lo, hi int) {
			var ck chunkCounts
			for v := lo; v < hi; v++ {
				ck.visits++
				for {
					p := atomicx.LoadUint32(&comp[v])
					gp := atomicx.LoadUint32(&comp[p])
					ck.loads += 2
					ck.branches++
					if p == gp {
						break
					}
					atomicx.StoreUint32(&comp[v], gp)
					ck.stores++
				}
			}
			ck.flush(cfg.Ctr, tid)
		})
		res.Iterations++
		// Cancellation before convergence: a cancelled hook pass reports a
		// changed count of 0 that means "aborted", not "fixed point".
		if cfg.cancelPoint(&res, PhaseHook) {
			break
		}
		if changed == 0 {
			break
		}
	}
	res.Labels = comp
	res.Sched = sch.stealStats()
	return res
}
