package shard

import (
	"encoding/binary"

	"thriftylp/graph"
	"thriftylp/internal/afforest"
	"thriftylp/internal/bitmap"
	"thriftylp/internal/parallel"
)

// Node is the per-shard state machine of the out-of-core solver. Its life
// has two phases:
//
//  1. Collapse (NewNode): a sampled union-find pass over the shard's rows
//     links every interior edge — both endpoints inside [Lo, Hi) —
//     collapsing the shard to its interior components, numbered densely.
//     Boundary edges are extracted into an index of the distinct remote
//     targets and one entry list per component, after which the shard's
//     adjacency is never touched again and its mapping can be released.
//  2. Exchange (Apply/Emit rounds, driven by internal/dist): components
//     exchange labels along boundary edges to global convergence. Each
//     component starts labelled min-global-id+1 — except the component
//     holding the global hub, which starts at 0 (Zero Planting carried
//     across the shard cut) — and MIN-combines incoming labels, so the
//     fixpoint labels each global component with the minimum over its
//     interior components' seeds: 0 for the hub's component, distinct
//     min-id+1 values elsewhere. That is exactly Thrifty's label value
//     space, which is what makes the sharded result bijective with the
//     unsharded one.
//
// Compaction in Emit (delta-only emission, zero-convergence suppression,
// MIN-dedup, varint deltas) is documented on Emit.
type Node struct {
	// ID is the shard index; Lo, Hi its owned global vertex range.
	ID     int
	Lo, Hi uint32

	// rep[v-Lo] is v's dense interior component index: components are
	// numbered 0, 1, ... in order of their smallest local vertex. It indexes
	// every per-component array below, each sized by the component count.
	rep []uint32
	// label[c] is component c's current global label.
	label []uint32
	// suppressed[c] is set once component c has converged to label 0 and
	// shipped its final 0-emission: it takes no further part in the exchange
	// — the cross-shard form of Zero Convergence.
	suppressed []bool

	// targets is the remote-target index: the node's distinct boundary
	// targets in ascending global id order. Everything below addresses a
	// target by its compact index into targets, and destination shard d's
	// targets are the index range [destStart[d], destStart[d+1]).
	targets   []uint32
	destStart []int
	// Component c's boundary entries are entries[compOff[c]:compOff[c+1]]:
	// compact target indices, one per distinct target, in no particular
	// order. len(entries) is BoundaryEntries (see buildBoundary).
	compOff []int
	entries []uint32
	// knownZero marks targets this node has shipped a 0 to: their labels are
	// final, so any further entry targeting them is dead and is dropped (and
	// counted) instead of emitted.
	knownZero *bitmap.Bitmap
	// best[t] is the smallest label Emit has queued for target t this round,
	// meaningful where touched is set.
	best    []uint32
	touched *bitmap.Bitmap
	// changed lists components whose label dropped since the last Emit;
	// isChanged dedups it.
	changed   []uint32
	isChanged []bool
	// ranges is the full set's shard ranges: Emit encodes each batch's
	// vertex deltas against the destination's Lo.
	ranges []parallel.Range

	// BoundaryEntries is the node's total (component, target) entry count
	// after construction-time dedup — its share of the naive exchange.
	BoundaryEntries int64
	// Suppressed counts exchange entries dropped by zero-convergence
	// suppression: dead-target emissions skipped plus incoming pairs for
	// already-suppressed components.
	Suppressed int64
}

// NewNode builds shard id from slice s: collapses the shard to its interior
// components with a sampled union-find pass over its rows, seeds the
// component labels and extracts the boundary index. ranges must be the full
// set's ranges and hub the global max-degree vertex.
func NewNode(id int, s *graph.CSRSlice, ranges []parallel.Range, hub uint32) *Node {
	lo, hi := s.Lo, s.Hi
	n := &Node{ID: id, Lo: lo, Hi: hi, ranges: ranges}
	if s.NumLocal() == 0 {
		return n
	}
	var comps int
	n.rep, comps = collapse(s)

	// Seed the component labels: min global id + 1, hub's component 0.
	// Components are numbered in order of their smallest vertex, so the
	// first vertex carrying the next unseen index is that component's
	// smallest.
	n.label = make([]uint32, comps)
	n.suppressed = make([]bool, comps)
	n.isChanged = make([]bool, comps)
	n.changed = make([]uint32, 0, comps)
	next := uint32(0)
	for v, c := range n.rep {
		if c == next {
			n.label[c] = lo + uint32(v) + 1
			next++
		}
	}
	if hub >= lo && hub < hi {
		n.label[n.rep[hub-lo]] = 0
	}

	n.buildBoundary(s, ranges, comps)
	return n
}

// collapse returns each local vertex's dense interior component index and
// the component count. It is a sequential Afforest pass (Sutton, Ben-Nun &
// Barak) over the slice's rows: linkHeads links every vertex to its first
// few interior neighbours, which on a skewed graph already joins most of
// the shard's giant; afforest.FrequentRoot samples that giant's root;
// finish links the full rows of the vertices outside it; and number
// flattens and numbers the forest. Skipping the giant's rows is exact
// whatever root the sampler picks — see finish.
func collapse(s *graph.CSRSlice) (rep []uint32, comps int) {
	comp := linkHeads(s)
	flatten(comp)
	finish(s, comp, afforest.FrequentRoot(comp))
	return comp, number(comp)
}

// linkHeads returns a union-find forest over the slice's local vertices in
// which every vertex is linked to its first afforest.NeighborRounds interior
// neighbours. The scan passes over cut slots and self-loops rather than
// taking fixed row positions: a shard's leading slots are often remote
// hubs. Linking always hooks the larger root under the smaller one, and
// path halving only ever moves a vertex to a smaller ancestor, so every
// parent lies below its child — the invariant the ascending flattening
// passes rely on.
func linkHeads(s *graph.CSRSlice) []uint32 {
	comp := make([]uint32, s.NumLocal())
	for v := range comp {
		comp[v] = uint32(v)
	}
	lo, span := s.Lo, s.Hi-s.Lo
	for v := range comp {
		k := 0
		for _, u := range s.Adj[s.Offsets[v]:s.Offsets[v+1]] {
			// u-lo >= span is u outside [lo, hi): below lo, the difference wraps.
			if w := u - lo; w < span && w != uint32(v) {
				link(comp, uint32(v), w)
				if k++; k == afforest.NeighborRounds {
					break
				}
			}
		}
	}
	return comp
}

// flatten points every vertex of a forest whose parents lie below their
// children straight at its root: ascending, a vertex's parent is already
// flat.
func flatten(comp []uint32) {
	for v := range comp {
		comp[v] = comp[comp[v]]
	}
}

// finish links every interior edge of every vertex v with comp[v] != root.
// A skipped vertex's parent is root, so it is in root's tree, and trees
// only ever merge: an edge with a skipped endpoint either has a scanned
// other endpoint, which links it, or two skipped endpoints, both already
// in root's tree. A shard's rows hold both directions of every interior
// edge, so this holds whatever root is passed; the sampler only decides
// how many rows are skipped.
func finish(s *graph.CSRSlice, comp []uint32, root uint32) {
	lo, span := s.Lo, s.Hi-s.Lo
	for v := range comp {
		if comp[v] == root {
			continue
		}
		for _, u := range s.Adj[s.Offsets[v]:s.Offsets[v+1]] {
			if w := u - lo; w < span {
				link(comp, uint32(v), w)
			}
		}
	}
}

// number rewrites comp in place from a forest whose parents lie below their
// children to dense component indices, numbered in order of each
// component's smallest vertex, and returns the component count. Ascending,
// a vertex's parent has already been rewritten to its component's index.
func number(comp []uint32) int {
	next := uint32(0)
	for v, p := range comp {
		if p == uint32(v) {
			comp[v] = next
			next++
		} else {
			comp[v] = comp[p]
		}
	}
	return int(next)
}

// link unites the trees of a and b, hooking the larger root under the
// smaller.
func link(comp []uint32, a, b uint32) {
	a, b = find(comp, a), find(comp, b)
	comp[max(a, b)] = min(a, b)
}

// find returns x's root, halving the path on the way.
func find(comp []uint32, x uint32) uint32 {
	for comp[x] != x {
		comp[x] = comp[comp[x]]
		x = comp[x]
	}
	return x
}

// buildBoundary extracts the shard's cut edges into the remote-target index
// and per-component entry lists, deduplicating parallel entries (two
// interior vertices of one component adjacent to the same remote vertex
// produce one entry — they could only ever ship the same label).
//
// The cut is typically several times larger than what survives dedup, so
// the build never copies it and sorts nothing:
//
//  1. a counting sort groups the local vertices by component;
//  2. each component's rows are walked in place, and every cut target is
//     deduplicated against a global-id bitmap — only the bits just set are
//     cleared again, so the bitmap is never swept — leaving the survivors,
//     component after component, in one array of BoundaryEntries ids;
//  3. the survivors' bits, set once more, are the distinct targets: read in
//     order they are the index, and one popcount prefix per bitmap word
//     ranks every survivor in place (and every shard's Lo) into a compact
//     index.
func (n *Node) buildBoundary(s *graph.CSRSlice, ranges []parallel.Range, comps int) {
	local := s.NumLocal()
	// Counts land at off[c+2]; the running sum then leaves off[c+1] at the
	// first vertex of c's group, and the scatter advances it to the last+1.
	off := make([]int, comps+2)
	for _, c := range n.rep {
		off[c+2]++
	}
	for c := 2; c < len(off); c++ {
		off[c] += off[c-1]
	}
	order := make([]uint32, local)
	for v, c := range n.rep {
		order[off[c+1]] = uint32(v)
		off[c+1]++
	}

	// Component c's vertices are order[vlo:off[c+1]]; once its survivors are
	// appended, off[c+1] is rewritten to their end, turning off into the
	// entry offsets. u-lo >= span is u outside [lo, hi): below lo, the
	// difference wraps.
	lo, span := n.Lo, n.Hi-n.Lo
	seen := bitmap.New(s.GlobalVertices)
	// A skewed shard keeps about one entry per local vertex; the headroom
	// spares the common case a regrowth copy.
	entries := make([]uint32, 0, local+local/4)
	vlo := 0
	for c := 0; c < comps; c++ {
		start := len(entries)
		for _, v := range order[vlo:off[c+1]] {
			for _, u := range s.Adj[s.Offsets[v]:s.Offsets[v+1]] {
				if u-lo >= span && !seen.Get(int(u)) {
					seen.Set(int(u))
					entries = append(entries, u)
				}
			}
		}
		for _, u := range entries[start:] {
			seen.Clear(int(u))
		}
		vlo = off[c+1]
		off[c+1] = len(entries)
	}
	n.compOff = off[: comps+1 : comps+1]
	n.BoundaryEntries = int64(len(entries))

	for _, u := range entries {
		seen.Set(int(u))
	}
	// order is dead: the target index takes its storage when it fits.
	n.targets = seen.AppendTo(order[:0])
	rank := bitmap.NewRank(seen)
	for i, u := range entries {
		entries[i] = uint32(rank.Below(int(u)))
	}
	n.entries = entries
	n.destStart = make([]int, len(ranges)+1)
	for d, rg := range ranges {
		n.destStart[d] = rank.Below(int(rg.Lo))
	}
	n.destStart[len(ranges)] = len(n.targets)
	n.knownZero = bitmap.New(len(n.targets))
	n.touched = bitmap.New(len(n.targets))
	n.best = make([]uint32, len(n.targets))
}

// Bootstrap marks every component with boundary targets as changed, so the
// first Emit ships the initial labels — the cross-shard analogue of
// Thrifty's Initial Push (the planted 0 leaves the hub's shard in round 0).
func (n *Node) Bootstrap() {
	for r := 0; r+1 < len(n.compOff); r++ {
		if n.compOff[r+1] > n.compOff[r] {
			n.markChanged(uint32(r))
		}
	}
}

// Apply MIN-combines one incoming batch into the node's component labels.
// Pairs addressing suppressed (label-0) components are counted and skipped:
// nothing can improve on 0. This is the inbox side of every exchange round;
// the per-pair callback stays on slices only (markChanged owns the one
// append, outside the annotation's reach).
//
//thrifty:hotpath
func (n *Node) Apply(data []byte) error {
	return DecodePairs(data, n.Lo, n.Hi, func(v, label uint32) {
		r := n.rep[v-n.Lo]
		if n.suppressed[r] {
			n.Suppressed++
			return
		}
		if label < n.label[r] {
			n.label[r] = label
			n.markChanged(r)
		}
	})
}

func (n *Node) markChanged(r uint32) {
	if !n.isChanged[r] {
		n.isChanged[r] = true
		n.changed = append(n.changed, r)
	}
}

// Emit encodes the round's outgoing batches, one per destination shard
// (nil for destinations with nothing to say), and returns them with the
// number of pairs shipped, counted before MIN-dedup. Compaction, in the
// order applied:
//
//   - delta-only emission: only components whose label changed since the
//     last Emit appear at all;
//   - zero-convergence suppression: a component that changed to 0 ships that
//     final 0 once, marks each target as known-zero, and leaves the
//     exchange; entries from any component targeting a known-zero vertex are
//     dropped (the target's label is already the global minimum) and counted
//     in Suppressed;
//   - MIN-dedup: each target keeps the smallest label queued for it, in
//     best, and is marked in touched;
//   - varint delta-encoding: each destination's touched targets, walked in
//     index order, are already sorted and distinct, and go straight to the
//     encoder.
func (n *Node) Emit(numShards int) (batches [][]byte, pairs int64) {
	if len(n.changed) == 0 {
		return nil, 0
	}
	for _, r := range n.changed {
		n.isChanged[r] = false
		if n.suppressed[r] {
			continue
		}
		lab := n.label[r]
		for _, t := range n.entries[n.compOff[r]:n.compOff[r+1]] {
			if n.knownZero.Get(int(t)) {
				n.Suppressed++
				continue
			}
			if !n.touched.Get(int(t)) || lab < n.best[t] {
				n.touched.Set(int(t))
				n.best[t] = lab
			}
			pairs++
			if lab == 0 {
				n.knownZero.Set(int(t))
			}
		}
		if lab == 0 {
			n.suppressed[r] = true
		}
	}
	n.changed = n.changed[:0]
	if pairs == 0 {
		return nil, 0
	}

	// Two walks over each destination's touched range: the first sizes the
	// batch exactly, the second encodes straight into it.
	batches = make([][]byte, numShards)
	for d := range batches {
		base := n.ranges[d].Lo
		count, size, prev := 0, 0, base
		n.touched.ForEachRange(n.destStart[d], n.destStart[d+1], func(t int) {
			v := n.targets[t]
			size += uvarintLen(uint64(v-prev)) + uvarintLen(uint64(n.best[t]))
			prev = v
			count++
		})
		if count == 0 {
			continue
		}
		buf := make([]byte, uvarintLen(uint64(count))+size)
		w := binary.PutUvarint(buf, uint64(count))
		prev = base
		n.touched.ForEachRange(n.destStart[d], n.destStart[d+1], func(t int) {
			v := n.targets[t]
			w += putPair(buf[w:], v-prev, n.best[t])
			prev = v
		})
		batches[d] = buf
	}
	n.touched.Reset()
	return batches, pairs
}

// Labels writes the node's final per-vertex labels into the global array.
//
//thrifty:hotpath
func (n *Node) Labels(global []uint32) {
	for v := 0; v < len(n.rep); v++ {
		global[int(n.Lo)+v] = n.label[n.rep[v]]
	}
}
