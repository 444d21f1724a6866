package core

import "thriftylp/graph"

// SeqCC is the sequential breadth-first oracle: it labels every vertex with
// the smallest vertex id of its component. It allocates O(|V|) and runs in
// O(|V|+|E|); tests validate every parallel algorithm against it.
func SeqCC(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	labels := make([]uint32, n)
	const unset = ^uint32(0)
	for i := range labels {
		labels[i] = unset
	}
	queue := make([]uint32, 0, 1024)
	for s := 0; s < n; s++ {
		if labels[s] != unset {
			continue
		}
		// s is the smallest unvisited id, hence the smallest id of its
		// component (all smaller ids are already labelled).
		root := uint32(s)
		labels[s] = root
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(v) {
				if labels[u] == unset {
					labels[u] = root
					queue = append(queue, u)
				}
			}
		}
	}
	return labels
}

// Normalize rewrites labels into canonical form: every vertex gets the
// smallest vertex id sharing its raw label. Two labellings describe the
// same partition iff their normalized forms are equal, regardless of the
// algorithms' label value spaces (Thrifty's 0-based labels, union-find
// roots, BFS component ids...).
//
// Vertices are visited in ascending order, so the first vertex seen with a
// label is its smallest. When every label is at most len(labels) — true of
// Thrifty, union-find and BFS labels — the first-seen ids live in an array
// indexed by label; arbitrary values fall back to a map.
func Normalize(labels []uint32) []uint32 {
	norm := make([]uint32, len(labels))
	dense := true
	for _, l := range labels {
		if int(l) > len(labels) {
			dense = false
			break
		}
	}
	if dense {
		// first[l] is 1 + the first vertex labelled l, 0 while none is.
		first := make([]uint32, len(labels)+1)
		for v, l := range labels {
			if first[l] == 0 {
				first[l] = uint32(v) + 1
			}
			norm[v] = first[l] - 1
		}
		return norm
	}
	first := make(map[uint32]uint32, 64)
	for v, l := range labels {
		id, ok := first[l]
		if !ok {
			id = uint32(v)
			first[l] = id
		}
		norm[v] = id
	}
	return norm
}

// Equivalent reports whether two labellings describe the same partition of
// the vertex set.
func Equivalent(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	na, nb := Normalize(a), Normalize(b)
	for i := range na {
		if na[i] != nb[i] {
			return false
		}
	}
	return true
}

// VerifyAgainstGraph checks that labels is a correct component labelling of
// g: endpoints of every edge share a label (consistency), and the number of
// distinct labels equals the true component count (completeness — rules out
// over-merging). Returns a descriptive false reason via ok=false.
func VerifyAgainstGraph(g *graph.Graph, labels []uint32) bool {
	if len(labels) != g.NumVertices() {
		return false
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if labels[u] != labels[v] {
				return false
			}
		}
	}
	return Equivalent(labels, SeqCC(g))
}
