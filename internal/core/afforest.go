package core

import (
	"thriftylp/graph"
	"thriftylp/internal/afforest"
	"thriftylp/internal/atomicx"
	"thriftylp/internal/parallel"
)

// Afforest (Sutton, Ben-Nun & Barak, IPDPS 2018) is the strongest baseline
// in the paper's evaluation (Table IV). It refines union-find CC with
// subgraph sampling: first every vertex links only its first few neighbours
// (the "neighbour rounds"), which already connects the giant component of a
// skewed graph almost entirely; then the dominant component is identified
// by sampling, and the remaining edges are traversed only for vertices NOT
// yet in the dominant component — skipping the overwhelming majority of
// edge work, the same insight Thrifty's Zero Convergence exploits on the
// label-propagation side.

// afforestLink unites the components of u and v in comp, hooking the
// higher-id root under the lower-id root with CAS, retrying through the
// trees as concurrent links restructure them. This is GAP's Link().
func afforestLink(u, v uint32, comp []uint32, ck *chunkCounts) {
	p1 := atomicx.LoadUint32(&comp[u])
	p2 := atomicx.LoadUint32(&comp[v])
	ck.loads += 2
	for p1 != p2 {
		ck.branches++
		high, low := p1, p2
		if high < low {
			high, low = low, high
		}
		pHigh := atomicx.LoadUint32(&comp[high])
		ck.loads++
		if pHigh == low {
			return
		}
		ck.cas++
		if pHigh == high && atomicx.CASUint32(&comp[high], high, low) {
			ck.stores++
			return
		}
		p1 = atomicx.LoadUint32(&comp[atomicx.LoadUint32(&comp[high])])
		p2 = atomicx.LoadUint32(&comp[low])
		ck.loads += 3
	}
}

// afforestCompress is GAP's Compress(): full path compression of every
// vertex to its root, in parallel.
func afforestCompress(pool *parallel.Pool, comp []uint32, ctr *chunkFlusher) {
	parallel.For(pool, len(comp), 2048, func(tid, lo, hi int) {
		var ck chunkCounts
		for v := lo; v < hi; v++ {
			ck.visits++
			for atomicx.LoadUint32(&comp[v]) != atomicx.LoadUint32(&comp[atomicx.LoadUint32(&comp[v])]) {
				atomicx.StoreUint32(&comp[v], atomicx.LoadUint32(&comp[atomicx.LoadUint32(&comp[v])]))
				ck.loads += 3
				ck.stores++
			}
			ck.loads += 3
		}
		ctr.flush(&ck, tid)
	})
}

// chunkFlusher adapts the optional counters to the helper functions.
type chunkFlusher struct{ cfg *Config }

func (f *chunkFlusher) flush(ck *chunkCounts, tid int) { ck.flush(f.cfg.Ctr, tid) }

// Afforest runs the sampling-based union-find CC.
func Afforest(g *graph.Graph, cfg Config) Result {
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

	// Phase 1: neighbour rounds — link each vertex to its r-th neighbour.
	for r := 0; r < afforest.NeighborRounds; r++ {
		sch.sweep(func(tid, lo, hi int) {
			if cfg.Stop.Requested() {
				return // cancellation poll at partition entry
			}
			var ck chunkCounts
			for v := lo; v < hi; v++ {
				ck.visits++
				nb := g.Neighbors(uint32(v))
				if r < len(nb) {
					ck.edges++
					afforestLink(uint32(v), nb[r], comp, &ck)
				}
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

	// Identify the (almost certainly giant) dominant component from a
	// sample; its members skip phase 2 entirely.
	giant := afforest.FrequentRoot(comp)

	// Phase 2: finish the remaining edges, but only for vertices outside
	// the dominant component.
	sch.sweep(func(tid, lo, hi int) {
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
			nb := g.Neighbors(uint32(v))
			for r := afforest.NeighborRounds; r < len(nb); r++ {
				ck.edges++
				afforestLink(uint32(v), nb[r], comp, &ck)
			}
		}
		ck.flush(cfg.Ctr, tid)
	})
	res.Iterations++
	cfg.cancelPoint(&res, PhaseFinish)
	afforestCompress(pool, comp, fl)

	res.Labels = comp
	res.Sched = sch.stealStats()
	return res
}
