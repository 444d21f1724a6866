package core

import (
	"thriftylp/graph"
	"thriftylp/internal/afforest"
	"thriftylp/internal/atomicx"
	"thriftylp/internal/parallel"
)

// This file holds the one "sample, then finish" union-find program behind
// three kernels.
//
// Afforest (Sutton, Ben-Nun & Barak, IPDPS 2018) is the strongest baseline
// in the paper's evaluation (Table IV). It refines union-find CC with
// subgraph sampling: first every vertex links only its first few neighbours
// (the "neighbour rounds"), which already connects the giant component of a
// skewed graph almost entirely; then the dominant component is identified
// by sampling, and the remaining edges are traversed only for vertices NOT
// yet in the dominant component — skipping the overwhelming majority of
// edge work, the same insight Thrifty's Zero Convergence exploits on the
// label-propagation side.
//
// ConnectIt (Dhulipala, Hong & Shun, VLDB 2021) generalizes Afforest into a
// framework of sampling strategies × finish strategies. The paper attempted
// to evaluate it but its repository would not compile at the time (§VI);
// two representative points of the framework fill that column:
//
//   - k-out sampling: every vertex links to k pseudo-random neighbours
//     (Afforest's neighbour rounds pick the first k instead);
//   - BFS sampling: one breadth-first search from the maximum-degree vertex
//     pre-unites (almost surely) the giant component — the union-find
//     mirror of Thrifty's Zero Planting intuition.
//
// All three run sample → compress → afforest.FrequentRoot → finish →
// compress. They differ only in the sampler and in the neighbour index the
// finish starts from: Afforest's finish skips the neighbours its rounds
// already linked, ConnectIt's finish unions every edge.

// sampler selects how the sample phase unites vertices.
type sampler int

const (
	// sampleNeighbors is Afforest's: round r links every vertex to its
	// r-th neighbour, for r < afforest.NeighborRounds.
	sampleNeighbors sampler = iota
	// sampleKOut is ConnectIt's k-out: round r links every vertex to a
	// pseudo-random neighbour, deterministic in the vertex id and r so runs
	// are reproducible.
	sampleKOut
	// sampleBFS is ConnectIt's BFS: one direction-optimizing BFS from the
	// max-degree vertex, folded into comp as a depth-1 star.
	sampleBFS
)

// connectItKOutRounds is k for k-out sampling (ConnectIt's default is 2).
const connectItKOutRounds = 2

// Afforest runs the sampling-based union-find CC.
func Afforest(g *graph.Graph, cfg Config) Result { return unionFind(g, cfg, sampleNeighbors) }

// ConnectItKOut runs k-out sampling + union-find finish.
func ConnectItKOut(g *graph.Graph, cfg Config) Result { return unionFind(g, cfg, sampleKOut) }

// ConnectItBFS runs BFS sampling + union-find finish: a direction-
// optimizing BFS from the max-degree vertex flat-unites everything it
// reaches, then the finish pass handles the rest.
func ConnectItBFS(g *graph.Graph, cfg Config) Result { return unionFind(g, cfg, sampleBFS) }

func unionFind(g *graph.Graph, cfg Config, s sampler) Result {
	if cfg.fastInstr() {
		return unionFindRun(g, cfg, s, noInstr{})
	}
	return unionFindRun(g, cfg, s, newCounting(cfg))
}

func unionFindRun[I instr[I]](g *graph.Graph, cfg Config, s sampler, proto I) Result {
	pool := cfg.pool()
	n := g.NumVertices()
	comp := make([]uint32, n)
	parallel.Iota(pool, comp, 0)
	if n == 0 {
		return Result{Labels: comp}
	}
	sch := newScheduler(g, cfg, pool)
	res := Result{}

	var canceled bool
	finishFrom := 0
	if s == sampleBFS {
		res.Iterations += bfsStar(g, cfg, pool, comp, proto)
		// bfsFrom exits at a level boundary; the partially claimed star is
		// already folded into comp, a valid and flat union-find state.
		canceled = cfg.cancelPoint(&res, PhaseBFS)
	} else {
		rounds := connectItKOutRounds
		if s == sampleNeighbors {
			rounds, finishFrom = afforest.NeighborRounds, afforest.NeighborRounds
		}
		for r := 0; r < rounds && !canceled; r++ {
			sch.sweep(func(tid, lo, hi int) {
				if cfg.Stop.Requested() {
					return // cancellation poll at partition entry
				}
				ins := proto.Fresh()
				for v := lo; v < hi; v++ {
					iVisit(ins)
					if u, ok := s.pick(g.Neighbors(uint32(v)), v, r); ok {
						iEdge(ins)
						afforestLink(uint32(v), u, comp, ins)
					}
				}
				iFlush(ins, tid)
			})
			res.Iterations++
			canceled = cfg.cancelPoint(&res, PhaseSample)
		}
		// A partial forest is still a valid union-find state; compressing
		// it makes a cancelled run's labels root ids too.
		afforestCompress(pool, comp, proto)
	}

	if !canceled {
		// Identify the (almost certainly giant) dominant component from a
		// sample; its members skip the finish entirely. Everyone else
		// unions its remaining edges.
		giant := afforest.FrequentRoot(comp)
		sch.sweep(func(tid, lo, hi int) {
			if cfg.Stop.Requested() {
				return // cancellation poll at partition entry
			}
			ins := proto.Fresh()
			for v := lo; v < hi; v++ {
				iVisit(ins)
				iBranch(ins)
				if atomicx.LoadUint32(&comp[v]) == giant {
					iLoad(ins)
					continue
				}
				nb := g.Neighbors(uint32(v))
				for r := finishFrom; r < len(nb); r++ {
					iEdge(ins)
					afforestLink(uint32(v), nb[r], comp, ins)
				}
			}
			iFlush(ins, tid)
		})
		res.Iterations++
		cfg.cancelPoint(&res, PhaseFinish)
		afforestCompress(pool, comp, proto)
	}

	res.Labels = comp
	res.Sched = sch.stealStats()
	return res
}

// pick returns the neighbour a vertex v with adjacency nb links to in
// sample round r of a linking sampler, and false when it links none.
func (s sampler) pick(nb []uint32, v, r int) (uint32, bool) {
	if s == sampleNeighbors {
		if r < len(nb) {
			return nb[r], true
		}
		return 0, false
	}
	if len(nb) == 0 {
		return 0, false
	}
	z := uint64(v)*0x9e3779b97f4a7c15 + uint64(r)*0xbf58476d1ce4e5b9
	z ^= z >> 29
	z *= 0x94d049bb133111eb
	z ^= z >> 32
	return nb[z%uint64(len(nb))], true
}

// bfsStar is the BFS sampler: it claims the hub's component with one BFS
// and returns the BFS's level count. bfsFrom writes the root id into every
// reached slot of a bfsUnset-initialized array, while comp is
// identity-initialized, so the BFS runs on a scratch array whose reached
// set is folded into comp as a depth-1 star, which needs no compress.
func bfsStar[I instr[I]](g *graph.Graph, cfg Config, pool *parallel.Pool, comp []uint32, proto I) int {
	hub := g.MaxDegreeVertex()
	scratch := make([]uint32, len(comp))
	parallel.Fill(pool, scratch, bfsUnset)
	var explored int64
	levels := bfsFrom(g, cfg, pool, scratch, hub, &explored, proto)
	parallel.For(pool, len(comp), 4096, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			if scratch[v] == hub {
				comp[v] = hub //thrifty:benign-race workers own disjoint vertex ranges of comp
			}
		}
	})
	return levels
}

// afforestLink unites the components of u and v in comp, hooking the
// higher-id root under the lower-id root with CAS, retrying through the
// trees as concurrent links restructure them. This is GAP's Link().
func afforestLink[I instr[I]](u, v uint32, comp []uint32, ins I) {
	p1 := atomicx.LoadUint32(&comp[u])
	p2 := atomicx.LoadUint32(&comp[v])
	iLoad(ins)
	iLoad(ins)
	for p1 != p2 {
		iBranch(ins)
		high, low := p1, p2
		if high < low {
			high, low = low, high
		}
		pHigh := atomicx.LoadUint32(&comp[high])
		iLoad(ins)
		if pHigh == low {
			return
		}
		iCAS(ins)
		if pHigh == high && atomicx.CASUint32(&comp[high], high, low) {
			iStore(ins)
			return
		}
		p1 = atomicx.LoadUint32(&comp[atomicx.LoadUint32(&comp[high])])
		p2 = atomicx.LoadUint32(&comp[low])
		iLoad(ins)
		iLoad(ins)
		iLoad(ins)
	}
}

// afforestCompress is GAP's Compress(): full path compression of every
// vertex to its root, in parallel. It must not be inlined: Go compiles the
// copy of a closure that inlining makes inside a generic function without
// folding the hook gates (see pushDrain), which left the inlined copies
// calling every gate and atomic load per vertex.
//
//go:noinline
func afforestCompress[I instr[I]](pool *parallel.Pool, comp []uint32, proto I) {
	parallel.For(pool, len(comp), 2048, func(tid, lo, hi int) {
		ins := proto.Fresh()
		for v := lo; v < hi; v++ {
			iVisit(ins)
			for atomicx.LoadUint32(&comp[v]) != atomicx.LoadUint32(&comp[atomicx.LoadUint32(&comp[v])]) {
				atomicx.StoreUint32(&comp[v], atomicx.LoadUint32(&comp[atomicx.LoadUint32(&comp[v])]))
				iLoad(ins)
				iLoad(ins)
				iLoad(ins)
				iStore(ins)
			}
			iLoad(ins)
			iLoad(ins)
			iLoad(ins)
		}
		iFlush(ins, tid)
	})
}
