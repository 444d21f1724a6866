package core

import (
	"thriftylp/graph"
	"thriftylp/internal/atomicx"
	"thriftylp/internal/parallel"
)

// JayantiTarjan is the concurrent union-find CC of Jayanti & Tarjan
// (baseline "JT" in Table IV): a single pass over the edges performing
// randomized linking — each vertex carries a random priority, and a union
// hooks the lower-priority root under the higher-priority one with CAS —
// with path-splitting finds. Random priorities bound the expected tree
// height logarithmically, so, unlike SV, one edge pass suffices: the paper
// highlights that JT "processes each edge just once".
//
// Only the u<v direction of each CSR slot pair is processed, matching the
// paper's note that JT operates correctly on a coordinate representation
// where each edge appears precisely once.
func JayantiTarjan(g *graph.Graph, cfg Config) Result {
	pool := cfg.pool()
	n := g.NumVertices()
	parent := make([]uint32, n)
	parallel.Iota(pool, parent, 0)
	if n == 0 {
		return Result{Labels: parent}
	}

	// Deterministic pseudo-random priorities (splitmix-style hash of the
	// vertex id). Ties break by id so distinct roots always compare
	// strictly, keeping the linking order acyclic.
	prio := make([]uint64, n)
	parallel.For(pool, n, 4096, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			z := uint64(v) + 0x9e3779b97f4a7c15
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			prio[v] = z ^ (z >> 31) //thrifty:benign-race workers own disjoint vertex ranges of prio
		}
	})
	higher := func(a, b uint32) bool {
		if prio[a] != prio[b] {
			return prio[a] > prio[b]
		}
		return a > b
	}

	// find with path splitting: each step swings x's parent pointer up to
	// its grandparent. Safe under concurrency because parent priorities
	// strictly increase along any chain.
	find := func(x uint32, ck *chunkCounts) uint32 {
		for {
			p := atomicx.LoadUint32(&parent[x])
			ck.loads++
			if p == x {
				return x
			}
			gp := atomicx.LoadUint32(&parent[p])
			ck.loads++
			if gp != p {
				ck.cas++
				if atomicx.CASUint32(&parent[x], p, gp) {
					ck.stores++
				}
			}
			x = p
		}
	}

	res := Result{Iterations: 1}

	// Single edge pass: union the endpoints of every undirected edge.
	newScheduler(g, cfg, pool).sweep(func(tid, lo, hi int) {
		if cfg.Stop.Requested() {
			return // cancellation poll at partition entry
		}
		var ck chunkCounts
		for v := lo; v < hi; v++ {
			ck.visits++
			for _, u := range g.Neighbors(uint32(v)) {
				ck.branches++
				if u < uint32(v) {
					continue // each undirected edge once
				}
				ck.edges++
				a, b := uint32(v), u
				for {
					ra, rb := find(a, &ck), find(b, &ck)
					if ra == rb {
						break
					}
					// Hook the lower-priority root under the higher one.
					if higher(ra, rb) {
						ra, rb = rb, ra
					}
					ck.cas++
					if atomicx.CASUint32(&parent[ra], ra, rb) {
						ck.stores++
						break
					}
					// CAS lost: ra is no longer a root; retry the union.
				}
			}
		}
		ck.flush(cfg.Ctr, tid)
	})
	cfg.cancelPoint(&res, PhaseEdgePass)

	// Flatten to component labels. Runs even when cancelled: a partial
	// forest is still a valid union-find state, and flattening makes the
	// returned labels root ids.
	parallel.For(pool, n, 2048, func(tid, lo, hi int) {
		var ck chunkCounts
		for v := lo; v < hi; v++ {
			atomicx.StoreUint32(&parent[v], find(uint32(v), &ck))
		}
		ck.flush(cfg.Ctr, tid)
	})
	res.Labels = parent
	return res
}
