package graph

import (
	"fmt"
	"sort"

	"thriftylp/internal/parallel"
)

// Relabel returns a copy of g with vertex v renamed to perm[v]. perm must
// be a bijection on [0, NumVertices()); this is validated. Relabeling is
// the locality-optimizing graph reordering the paper's introduction lists
// among CC's downstream uses, and the mechanism behind the
// degree-vs-vertex-id experiments.
func Relabel(g *Graph, perm []uint32) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation has %d entries for %d vertices", len(perm), n)
	}
	// Bijection validation stays sequential: it is a data-dependent check
	// (seen[p] races under concurrent writes) and first-error determinism
	// matters more here than the one pass over an O(|V|) array.
	seen := make([]bool, n)
	for v, p := range perm {
		if int(p) >= n {
			return nil, fmt.Errorf("graph: perm[%d] = %d out of range", v, p)
		}
		if seen[p] {
			return nil, fmt.Errorf("graph: perm maps two vertices to %d", p)
		}
		seen[p] = true
	}

	// Degrees of the renamed vertices, then prefix-sum. Writes are disjoint
	// (perm is a bijection), so both the scatter of degrees and the segment
	// copies below parallelize without synchronization.
	pool := parallel.Default()
	offsets := make([]int64, n+1)
	parallel.For(pool, n, 1<<15, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			offsets[perm[v]+1] = int64(g.Degree(uint32(v))) //thrifty:benign-race perm is a bijection, so scattered writes are disjoint
		}
	})
	parallel.PrefixSum(pool, offsets)
	adj := make([]uint32, len(g.adj))
	parallel.For(pool, n, 1<<13, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			w := offsets[perm[v]]
			for _, u := range g.Neighbors(uint32(v)) {
				adj[w] = perm[u] //thrifty:benign-race perm is a bijection, so each segment copy is exclusive
				w++
			}
		}
	})
	return newGraph(pool, offsets, adj), nil
}

// DegreeDescendingPermutation returns the permutation that renames vertices
// in order of decreasing degree (ties by ascending original id), i.e.
// perm[v] is v's rank. Applying it with Relabel yields a hub-first layout,
// the common "degree sorting" locality optimization for skewed graphs.
func DegreeDescendingPermutation(g *Graph) []uint32 {
	n := g.NumVertices()
	order := make([]uint32, n)
	for v := range order {
		order[v] = uint32(v)
	}
	sort.SliceStable(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	perm := make([]uint32, n)
	for rank, v := range order {
		perm[v] = uint32(rank)
	}
	return perm
}

// RelabelByDegree is Relabel(g, DegreeDescendingPermutation(g)).
func RelabelByDegree(g *Graph) (*Graph, []uint32, error) {
	perm := DegreeDescendingPermutation(g)
	ng, err := Relabel(g, perm)
	return ng, perm, err
}
