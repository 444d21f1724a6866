package shard

import (
	"thriftylp/graph"
	"thriftylp/internal/bitmap"
	"thriftylp/internal/parallel"
)

// Node is the per-shard state machine of the out-of-core solver. Its life
// has two phases:
//
//  1. Collapse (NewNode): one union-find pass over the shard's rows links
//     every interior edge — both endpoints inside [Lo, Hi) — collapsing the
//     shard to its interior components. Boundary edges are extracted into
//     an index of the distinct remote targets and one entry list per
//     component, after which the shard's adjacency is never touched again
//     and its mapping can be released.
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

	// rep[v-Lo] is v's interior component representative: the smallest local
	// id in the component. Representatives double as indices into the
	// per-component arrays below (only rep-valued slots are meaningful).
	rep []uint32
	// label[r] is component r's current global label.
	label []uint32
	// suppressed[r] is set once component r has converged to label 0 and
	// shipped its final 0-emission: it takes no further part in the exchange
	// — the cross-shard form of Zero Convergence.
	suppressed []bool

	// targets is the remote-target index: the node's distinct boundary
	// targets in ascending global id order. Everything below addresses a
	// target by its compact index into targets, and destination shard d's
	// targets are the index range [destStart[d], destStart[d+1]).
	targets   []uint32
	destStart []int
	// Component r's boundary entries are entries[compOff[r]:compOff[r+1]]:
	// compact target indices, one per distinct target, in no particular
	// order. len(entries) is BoundaryEntries (see buildBoundary).
	compOff []int
	entries []uint32
	// knownZero marks targets this node has shipped a 0 to: their labels are
	// final, so any further entry targeting them is dead and is dropped (and
	// counted) instead of emitted.
	knownZero *bitmap.Bitmap
	// best[t] is the smallest label Emit has queued for target t this round,
	// meaningful where touched is set; pairs is Emit's reused gather buffer.
	best    []uint32
	touched *bitmap.Bitmap
	pairs   []Pair
	// changed lists representatives whose label dropped since the last Emit;
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
// components with one union-find pass over its rows, seeds the component
// labels and extracts the boundary index. ranges must be the full set's
// ranges and hub the global max-degree vertex.
func NewNode(id int, s *graph.CSRSlice, ranges []parallel.Range, hub uint32) *Node {
	lo, hi := s.Lo, s.Hi
	local := s.NumLocal()
	n := &Node{ID: id, Lo: lo, Hi: hi, ranges: ranges}
	if local == 0 {
		return n
	}
	n.rep = collapse(s)

	// Seed the component labels: min global id + 1, hub's component 0.
	n.label = make([]uint32, local)
	n.suppressed = make([]bool, local)
	n.isChanged = make([]bool, local)
	for v := 0; v < local; v++ {
		r := n.rep[v]
		if uint32(v) == r {
			n.label[r] = lo + r + 1
		}
	}
	if hub >= lo && hub < hi {
		n.label[n.rep[hub-lo]] = 0
	}

	n.buildBoundary(s, ranges)
	return n
}

// collapse returns each local vertex's interior component representative:
// the smallest local id in its component. It is a sequential union-find over
// the slice's rows. Cut slots are skipped, and each interior edge is linked
// once, from its smaller endpoint's side of the symmetric CSR, so mirrors
// and self-loops cost one comparison. Linking always hooks the larger root
// under the smaller one, and path halving only ever moves a vertex to a
// smaller ancestor, so every parent lies below its child: one ascending
// pass then flattens each vertex to its component's minimum.
func collapse(s *graph.CSRSlice) []uint32 {
	comp := make([]uint32, s.NumLocal())
	for v := range comp {
		comp[v] = uint32(v)
	}
	lo, span := s.Lo, s.Hi-s.Lo
	for v := range comp {
		for _, u := range s.Adj[s.Offsets[v]:s.Offsets[v+1]] {
			// u-lo >= span is u outside [lo, hi): below lo, the difference wraps.
			if w := u - lo; w < span && w > uint32(v) {
				a, b := find(comp, uint32(v)), find(comp, w)
				comp[max(a, b)] = min(a, b)
			}
		}
	}
	for v := range comp {
		comp[v] = comp[comp[v]]
	}
	return comp
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
//  1. a counting sort groups the local vertices by representative;
//  2. each component's rows are walked in place, and every cut target is
//     deduplicated against a global-id bitmap — only the bits just set are
//     cleared again, so the bitmap is never swept — leaving the survivors,
//     component after component, in one array of BoundaryEntries ids;
//  3. the survivors' bits, set once more, are the distinct targets: read in
//     order they are the index, and one popcount prefix per bitmap word
//     ranks every survivor (and every shard's Lo) into a compact index.
func (n *Node) buildBoundary(s *graph.CSRSlice, ranges []parallel.Range) {
	local := s.NumLocal()
	// Counts land at off[r+2]; the running sum then leaves off[r+1] at the
	// first vertex of r's group, and the scatter advances it to the last+1.
	off := make([]int, local+2)
	for v := 0; v < local; v++ {
		off[n.rep[v]+2]++
	}
	for r := 2; r < len(off); r++ {
		off[r] += off[r-1]
	}
	order := make([]uint32, local)
	for v := 0; v < local; v++ {
		r := n.rep[v]
		order[off[r+1]] = uint32(v)
		off[r+1]++
	}

	// Component r's vertices are order[vlo:off[r+1]]; once its survivors are
	// appended, off[r+1] is rewritten to their end, turning off into the
	// entry offsets. u-lo >= span is u outside [lo, hi): below lo, the
	// difference wraps.
	lo, span := n.Lo, n.Hi-n.Lo
	seen := bitmap.New(s.GlobalVertices)
	surv := make([]uint32, 0, local)
	vlo := 0
	for r := 0; r < local; r++ {
		start := len(surv)
		for _, v := range order[vlo:off[r+1]] {
			for _, u := range s.Adj[s.Offsets[v]:s.Offsets[v+1]] {
				if u-lo >= span && !seen.Get(int(u)) {
					seen.Set(int(u))
					surv = append(surv, u)
				}
			}
		}
		for _, u := range surv[start:] {
			seen.Clear(int(u))
		}
		vlo = off[r+1]
		off[r+1] = len(surv)
	}
	n.compOff = off[: local+1 : local+1]
	n.BoundaryEntries = int64(len(surv))

	for _, u := range surv {
		seen.Set(int(u))
	}
	n.targets = seen.AppendTo(make([]uint32, 0, seen.Count()))
	rank := bitmap.NewRank(seen)
	n.entries = make([]uint32, len(surv))
	for i, u := range surv {
		n.entries[i] = uint32(rank.Below(int(u)))
	}
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

	// Every touched target yields one pair: size the gather buffer once.
	if need := n.touched.Count(); cap(n.pairs) < need {
		n.pairs = make([]Pair, 0, need)
	}
	batches = make([][]byte, numShards)
	for d := range batches {
		base := n.ranges[d].Lo
		ps, size, prev := n.pairs[:0], 0, base
		n.touched.ForEachRange(n.destStart[d], n.destStart[d+1], func(t int) {
			v, l := n.targets[t], n.best[t]
			ps = append(ps, Pair{V: v, L: l})
			size += uvarintLen(uint64(v-prev)) + uvarintLen(uint64(l))
			prev = v
		})
		if len(ps) == 0 {
			continue
		}
		batches[d] = make([]byte, uvarintLen(uint64(len(ps)))+size)
		encodePairs(batches[d], base, ps)
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
