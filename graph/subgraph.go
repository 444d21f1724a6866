package graph

import (
	"fmt"

	"thriftylp/internal/parallel"
)

// InducedSubgraph returns the subgraph induced by the given vertex set
// (order-insensitive, duplicates rejected), together with the mapping from
// new ids to original ids. Edges with both endpoints in the set survive;
// ids are renumbered densely in ascending original-id order.
//
// This is the downstream operation the paper's introduction motivates CC
// with: after labelling, extract a component (usually the giant) and hand
// it to clustering, reordering or partitioning stages.
func InducedSubgraph(g *Graph, vertices []uint32) (*Graph, []uint32, error) {
	n := g.NumVertices()
	const absent = ^uint32(0)
	newID := make([]uint32, n)
	for i := range newID {
		newID[i] = absent
	}
	for _, v := range vertices {
		if int(v) >= n {
			return nil, nil, fmt.Errorf("graph: subgraph vertex %d out of range [0,%d)", v, n)
		}
		if newID[v] != absent {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in subgraph set", v)
		}
		newID[v] = 0 // mark; final ids assigned below in ascending order
	}
	origID := make([]uint32, 0, len(vertices))
	next := uint32(0)
	for v := 0; v < n; v++ {
		if newID[v] != absent {
			newID[v] = next
			origID = append(origID, uint32(v))
			next++
		}
	}

	m := len(origID)
	offsets := make([]int64, m+1)
	for i, ov := range origID {
		cnt := int64(0)
		for _, u := range g.Neighbors(ov) {
			if newID[u] != absent {
				cnt++
			}
		}
		offsets[i+1] = offsets[i] + cnt
	}
	adj := make([]uint32, offsets[m])
	for i, ov := range origID {
		w := offsets[i]
		for _, u := range g.Neighbors(ov) {
			if newID[u] != absent {
				adj[w] = newID[u]
				w++
			}
		}
	}
	return newGraph(parallel.Default(), offsets, adj), origID, nil
}

// ComponentSubgraph extracts the component with the given label from a
// labelling of g (as produced by any cc algorithm), returning the induced
// subgraph and the new→original id mapping.
func ComponentSubgraph(g *Graph, labels []uint32, label uint32) (*Graph, []uint32, error) {
	if len(labels) != g.NumVertices() {
		return nil, nil, fmt.Errorf("graph: labelling has %d entries for %d vertices", len(labels), g.NumVertices())
	}
	var members []uint32
	for v, l := range labels {
		if l == label {
			members = append(members, uint32(v))
		}
	}
	return InducedSubgraph(g, members)
}
