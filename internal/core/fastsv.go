package core

import (
	"thriftylp/graph"
	"thriftylp/internal/atomicx"
	"thriftylp/internal/parallel"
)

// FastSV (Zhang, Azad & Buluç, 2020) is the min-based hooking algorithm the
// paper's related-work section singles out (§VI): although presented as an
// SV refinement, its use of the MIN operator over parent labels makes it
// "a variant of the Label Propagation CC instead of SV". It is included as
// an extension baseline to position Thrifty among the LP-family algorithms.
//
// Each iteration applies three rules with grandparent values gp[v] = f[f[v]]:
//
//	stochastic hooking:  f[f[u]] ← min(f[f[u]], gp[v]) over edges (u,v)
//	aggressive hooking:  f[u]    ← min(f[u],    gp[v]) over edges (u,v)
//	shortcutting:        f[u]    ← min(f[u],    gp[u])
//
// until no value changes. All three use atomic-min, so iterations are safe
// to run fully in parallel.
func FastSV(g *graph.Graph, cfg Config) Result {
	if cfg.fastInstr() {
		return fastSVRun(g, cfg, noInstr{})
	}
	return fastSVRun(g, cfg, newCounting(cfg))
}

func fastSVRun[I instr[I]](g *graph.Graph, cfg Config, proto I) Result {
	pool := cfg.pool()
	n := g.NumVertices()
	f := make([]uint32, n)
	gp := make([]uint32, n)
	parallel.Iota(pool, f, 0)
	parallel.Copy(pool, gp, f)
	sch := newScheduler(g, cfg, pool)

	res := Result{}
	maxIters := cfg.maxIters(n)
	for res.Iterations < maxIters {
		var changed int64
		// Hooking over all directed slots (u,v).
		sch.sweep(func(tid, lo, hi int) {
			if cfg.Stop.Requested() {
				return // cancellation poll at partition entry
			}
			var local int64
			ins := proto.Fresh()
			for u := lo; u < hi; u++ {
				iVisit(ins)
				for _, v := range g.Neighbors(uint32(u)) {
					iEdge(ins)
					gpv := atomicx.LoadUint32(&gp[v])
					iLoad(ins)
					// Stochastic hooking: lower u's parent's value.
					fu := atomicx.LoadUint32(&f[u])
					iLoad(ins)
					iCAS(ins)
					iCAS(ins)
					iBranch(ins)
					iBranch(ins)
					if atomicx.MinUint32(&f[fu], gpv) {
						iStore(ins)
						local++
					}
					// Aggressive hooking: lower u's own value.
					if atomicx.MinUint32(&f[u], gpv) {
						iStore(ins)
						local++
					}
				}
			}
			iFlush(ins, tid)
			atomicx.AddInt64(&changed, local)
		})
		// Shortcutting.
		parallel.For(pool, n, 2048, func(tid, lo, hi int) {
			var local int64
			ins := proto.Fresh()
			for u := lo; u < hi; u++ {
				iVisit(ins)
				iCAS(ins)
				iBranch(ins)
				if atomicx.MinUint32(&f[u], atomicx.LoadUint32(&gp[u])) {
					iStore(ins)
					local++
				}
			}
			iFlush(ins, tid)
			atomicx.AddInt64(&changed, local)
		})
		// Recompute grandparents for the next iteration.
		parallel.For(pool, n, 2048, func(tid, lo, hi int) {
			ins := proto.Fresh()
			for u := lo; u < hi; u++ {
				gp[u] = f[f[u]] //thrifty:benign-race workers own disjoint vertex ranges of gp; stale f reads are FastSV-tolerated
				iLoad(ins)
				iLoad(ins)
				iStore(ins)
			}
			iFlush(ins, tid)
		})
		res.Iterations++
		// Cancellation before convergence: a cancelled hook sweep reports a
		// changed count of 0 that means "aborted", not "fixed point".
		if cfg.cancelPoint(&res, PhaseHook) {
			break
		}
		if changed == 0 {
			break
		}
	}
	// f now maps every vertex to its tree value; flatten to roots so labels
	// are canonical per component. Runs even when cancelled: flattening a
	// partial forest is cheap and keeps the labels self-consistent.
	parallel.For(pool, n, 2048, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			for {
				fu := atomicx.LoadUint32(&f[u])
				ffu := atomicx.LoadUint32(&f[fu])
				if fu == ffu {
					break
				}
				atomicx.StoreUint32(&f[u], ffu)
			}
		}
	})
	res.Labels = f
	res.Sched = sch.stealStats()
	return res
}
