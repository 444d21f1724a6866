package core

import (
	"thriftylp/graph"
	"thriftylp/internal/atomicx"
	"thriftylp/internal/bitmap"
	"thriftylp/internal/parallel"
)

// bfsUnset marks a vertex not yet claimed by any component's BFS.
const bfsUnset = ^uint32(0)

// Direction-optimizing BFS parameters from Beamer, Asanović & Patterson:
// switch top-down → bottom-up when the frontier's out-edges exceed 1/alpha
// of the unexplored edges; switch back when the frontier shrinks below
// |V|/beta.
const (
	bfsAlpha = 15
	bfsBeta  = 18
)

// BFSCC is Flood-Filling CC (§II class 1, baseline "BFS-CC" in Table IV, as
// in GraphGrind): one direction-optimizing breadth-first search per
// component, claiming vertices with CAS so a single shared comp array
// doubles as the visited set. The giant component is explored with
// top-down/bottom-up switching; the (typically many) small components cost
// one cheap top-down search each, which is why BFS-CC degrades on datasets
// with hundreds of thousands of components.
func BFSCC(g *graph.Graph, cfg Config) Result {
	if cfg.fastInstr() {
		return bfsCCRun(g, cfg, noInstr{})
	}
	return bfsCCRun(g, cfg, newCounting(cfg))
}

func bfsCCRun[I instr[I]](g *graph.Graph, cfg Config, proto I) Result {
	pool := cfg.pool()
	n := g.NumVertices()
	comp := make([]uint32, n)
	parallel.Fill(pool, comp, bfsUnset)

	res := Result{}
	var exploredEdges int64
	for s := 0; s < n; s++ {
		if comp[s] != bfsUnset {
			continue
		}
		// Cancellation at component granularity; bfsFrom additionally polls
		// per level, so a cancelled giant-component search also exits
		// promptly. Unclaimed vertices keep the bfsUnset sentinel.
		if cfg.cancelPoint(&res, PhaseBFS) {
			break
		}
		levels := bfsFrom(g, cfg, pool, comp, uint32(s), &exploredEdges, proto)
		res.Iterations += levels
	}
	// Catch a stop that arrived during the final component's search, after
	// the loop-top check for it had already passed.
	cfg.cancelPoint(&res, PhaseBFS)
	res.Labels = comp
	return res
}

// bfsFrom runs one direction-optimizing BFS claiming vertices into
// component s. Returns the number of levels.
func bfsFrom[I instr[I]](g *graph.Graph, cfg Config, pool *parallel.Pool, comp []uint32, s uint32, exploredEdges *int64, proto I) int {
	m := g.NumDirectedEdges()
	comp[s] = s
	frontier := []uint32{s}
	frontierEdges := int64(g.Degree(s))
	*exploredEdges += frontierEdges
	levels := 0
	var front, nextBm *bitmap.Bitmap // lazily allocated for bottom-up

	for len(frontier) > 0 {
		if cfg.Stop.Requested() {
			return levels // cancellation poll at level boundary
		}
		levels++
		remaining := m - *exploredEdges
		if frontierEdges > remaining/bfsAlpha && len(frontier) > 64 {
			// --- Bottom-up steps ---
			if front == nil {
				front = bitmap.New(g.NumVertices())
				nextBm = bitmap.New(g.NumVertices())
			} else {
				front.Reset()
			}
			for _, v := range frontier {
				front.Set(int(v))
			}
			// At least one bottom-up step always executes (do-while), so
			// the outer loop is guaranteed to make progress even when the
			// frontier is already below the back-switch threshold.
			nf := len(frontier)
			for {
				nextBm.Reset()
				var claimed, claimedEdges int64
				parallel.For(pool, g.NumVertices(), 2048, func(tid, lo, hi int) {
					var lv, le int64
					ins := proto.Fresh()
					for v := lo; v < hi; v++ {
						iVisit(ins)
						iBranch(ins)
						if atomicx.LoadUint32(&comp[v]) != bfsUnset {
							continue
						}
						for _, u := range g.Neighbors(uint32(v)) {
							iEdge(ins)
							iBranch(ins)
							if front.Get(int(u)) {
								atomicx.StoreUint32(&comp[v], s)
								iStore(ins)
								nextBm.SetAtomic(v)
								lv++
								le += int64(g.Degree(uint32(v)))
								break
							}
						}
					}
					iFlush(ins, tid)
					atomicx.AddInt64(&claimed, lv)
					atomicx.AddInt64(&claimedEdges, le)
				})
				front, nextBm = nextBm, front
				nf = int(claimed)
				frontierEdges = claimedEdges
				*exploredEdges += claimedEdges
				if nf == 0 || nf <= g.NumVertices()/bfsBeta {
					break
				}
				levels++
			}
			// Convert bitmap frontier back to a list for top-down.
			frontier = frontier[:0]
			front.ForEach(func(i int) { frontier = append(frontier, uint32(i)) })
			if len(frontier) == 0 {
				break
			}
			continue
		}

		// --- Top-down step ---
		var next []uint32
		var nextEdges int64
		if len(frontier) < 1024 || pool.Threads() == 1 {
			ins := proto.Fresh()
			for _, v := range frontier {
				iVisit(ins)
				for _, u := range g.Neighbors(v) {
					iEdge(ins)
					iCAS(ins)
					if comp[u] == bfsUnset {
						comp[u] = s
						iStore(ins)
						next = append(next, u)
						nextEdges += int64(g.Degree(u))
					}
				}
			}
			iFlush(ins, 0)
		} else {
			threads := pool.Threads()
			partial := make([][]uint32, threads)
			parallel.For(pool, len(frontier), 256, func(tid, lo, hi int) {
				var le int64
				ins := proto.Fresh()
				buf := partial[tid]
				for _, v := range frontier[lo:hi] {
					iVisit(ins)
					for _, u := range g.Neighbors(v) {
						iEdge(ins)
						iCAS(ins)
						if atomicx.CASUint32(&comp[u], bfsUnset, s) {
							iStore(ins)
							buf = append(buf, u)
							le += int64(g.Degree(u))
						}
					}
				}
				partial[tid] = buf //thrifty:benign-race per-thread frontier buffer indexed by tid
				iFlush(ins, tid)
				atomicx.AddInt64(&nextEdges, le)
			})
			for _, p := range partial {
				next = append(next, p...)
			}
		}
		frontier = next
		frontierEdges = nextEdges
		*exploredEdges += nextEdges
	}
	return levels
}
