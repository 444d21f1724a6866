package shard

import (
	"slices"

	"thriftylp/graph"
	"thriftylp/internal/bitmap"
	"thriftylp/internal/core"
	"thriftylp/internal/parallel"
)

// Node is the per-shard state machine of the out-of-core solver. Its life
// has two phases:
//
//  1. Solve (NewNode): the shard's interior subgraph — both endpoints inside
//     [Lo, Hi) — is built and solved with the shared-memory Thrifty kernel,
//     collapsing the shard to its interior components. Boundary edges are
//     extracted into per-component, per-destination target lists, after
//     which the shard's adjacency is never touched again and its mapping can
//     be released.
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
	// shipped its final 0-emission: it is dropped from every future exchange
	// (its target lists dropped) — the cross-shard form of Zero Convergence.
	suppressed []bool
	// out[r] lists component r's boundary targets per destination shard;
	// dropped on suppression. Every list is a window of one dense array of
	// BoundaryEntries targets (see buildBoundary).
	out [][]destTargets
	// knownZero marks remote vertices this node has shipped a 0 to: their
	// labels are final, so any further entry targeting them is dead and is
	// dropped (and counted) instead of emitted.
	knownZero map[uint32]bool
	// changed lists representatives whose label dropped since the last Emit;
	// isChanged dedups it.
	changed   []uint32
	isChanged []bool
	// ranges is the full set's shard ranges: Emit encodes each batch's
	// vertex deltas against the destination's Lo.
	ranges []parallel.Range

	// LocalIterations is the interior Thrifty solve's iteration count.
	LocalIterations int
	// BoundaryEntries is the node's total (component, target) entry count
	// after construction-time dedup — its share of the naive exchange.
	BoundaryEntries int64
	// Suppressed counts exchange entries dropped by zero-convergence
	// suppression: dead-target emissions skipped plus incoming pairs for
	// already-suppressed components.
	Suppressed int64
}

// destTargets is one component's boundary targets inside one destination
// shard, sorted ascending.
type destTargets struct {
	dest    int
	targets []uint32
}

// NewNode builds shard id from slice s: solves the interior subgraph with
// core.Thrifty under cfg (Pool/Stop/Faults are honoured; instrumentation
// must not be set — nodes run concurrently with shared sinks otherwise) and
// extracts the boundary lists. ranges must be the full set's ranges and hub
// the global max-degree vertex. canceled reports that cfg.Stop fired before
// the interior solve converged; the node is then unusable.
func NewNode(id int, s *graph.CSRSlice, ranges []parallel.Range, hub uint32, cfg core.Config) (n *Node, canceled bool, err error) {
	lo, hi := s.Lo, s.Hi
	local := s.NumLocal()
	n = &Node{ID: id, Lo: lo, Hi: hi, ranges: ranges, knownZero: make(map[uint32]bool)}
	if local == 0 {
		return n, false, nil
	}

	// Interior subgraph: both endpoints in [lo, hi), ids rebased to local.
	// Symmetric by construction — the global CSR is symmetric and the filter
	// keeps an edge iff it keeps its mirror.
	offsets := make([]int64, local+1)
	for v := 0; v < local; v++ {
		row := s.Adj[s.Offsets[v]:s.Offsets[v+1]]
		deg := int64(0)
		for _, u := range row {
			if u >= lo && u < hi {
				deg++
			}
		}
		offsets[v+1] = offsets[v] + deg
	}
	if err := graph.CheckOffsets64(offsets, offsets[local]); err != nil {
		return nil, false, err
	}
	adj := make([]uint32, offsets[local])
	w := 0
	for v := 0; v < local; v++ {
		row := s.Adj[s.Offsets[v]:s.Offsets[v+1]]
		for _, u := range row {
			if u >= lo && u < hi {
				adj[w] = u - lo
				w++
			}
		}
	}
	ig, err := graph.FromCSR(offsets, adj)
	if err != nil {
		return nil, false, err
	}
	res := core.Thrifty(ig, cfg)
	if res.Canceled {
		return nil, true, nil
	}
	n.LocalIterations = res.Iterations
	n.rep = core.Normalize(res.Labels)

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
	return n, false, nil
}

// buildBoundary extracts the shard's cut edges into per-component,
// per-destination sorted target lists, deduplicating parallel entries (two
// interior vertices of one component adjacent to the same remote vertex
// produce one entry — they could only ever ship the same label).
//
// The cut is typically several times larger than what survives dedup, so
// the build is linear in the cut and sorts only the survivors:
//
//  1. a counting sort by representative scatters every cut slot's target
//     into one buffer, component segments in representative order;
//  2. each segment is deduplicated against a global-id bitmap — only the
//     bits just set are cleared again, so the bitmap is never swept — and
//     its survivors, compacted to the buffer's front, are sorted;
//  3. the survivors are copied into one dense array of BoundaryEntries
//     targets and cut at owner-range boundaries: sorted ids make each
//     destination contiguous, so OwnerOf runs once per list, not per slot.
func (n *Node) buildBoundary(s *graph.CSRSlice, ranges []parallel.Range) {
	local := s.NumLocal()
	// Counts land at end[r+1]; the running sum then leaves end[r] at the
	// first slot of r's segment, and the scatter advances it to the last+1.
	end := make([]int, local+1)
	for v := 0; v < local; v++ {
		r := n.rep[v]
		for _, u := range s.Adj[s.Offsets[v]:s.Offsets[v+1]] {
			if u < n.Lo || u >= n.Hi {
				end[r+1]++
			}
		}
	}
	for r := 0; r < local; r++ {
		end[r+1] += end[r]
	}
	cut := make([]uint32, end[local])
	for v := 0; v < local; v++ {
		r := n.rep[v]
		for _, u := range s.Adj[s.Offsets[v]:s.Offsets[v+1]] {
			if u < n.Lo || u >= n.Hi {
				cut[end[r]] = u
				end[r]++
			}
		}
	}

	// Segment r is cut[end[r-1]:end[r]]. Survivors compact to cut[:w];
	// end[r] is rewritten to the compacted segment's end.
	seen := bitmap.New(s.GlobalVertices)
	lo, w := 0, 0
	for r := 0; r < local; r++ {
		hi, start := end[r], w
		for _, u := range cut[lo:hi] {
			if !seen.Get(int(u)) {
				seen.Set(int(u))
				cut[w] = u
				w++
			}
		}
		kept := cut[start:w]
		for _, u := range kept {
			seen.Clear(int(u))
		}
		slices.Sort(kept)
		end[r], lo = w, hi
	}

	// The resident copy holds the survivors only; every destTargets, from
	// one pre-counted backing array, windows into it.
	targets := slices.Clone(cut[:w])
	n.BoundaryEntries = int64(w)
	lists := 0
	lo = 0
	for r := 0; r < local; r++ {
		lists += splitByOwner(ranges, targets[lo:end[r]], nil)
		lo = end[r]
	}
	pool := make([]destTargets, 0, lists)
	n.out = make([][]destTargets, local)
	lo = 0
	for r := 0; r < local; r++ {
		if lo == end[r] {
			continue
		}
		first := len(pool)
		splitByOwner(ranges, targets[lo:end[r]], func(dest int, run []uint32) {
			pool = append(pool, destTargets{dest: dest, targets: run})
		})
		n.out[r] = pool[first:len(pool):len(pool)]
		lo = end[r]
	}
}

// splitByOwner cuts sorted global ids into maximal runs owned by one shard,
// calling fn (when non-nil) with each run and its owner, and returns the
// run count.
func splitByOwner(ranges []parallel.Range, sorted []uint32, fn func(dest int, run []uint32)) int {
	runs := 0
	for i := 0; i < len(sorted); runs++ {
		d := OwnerOf(ranges, sorted[i])
		j := i + 1
		for j < len(sorted) && sorted[j] < ranges[d].Hi {
			j++
		}
		if fn != nil {
			fn(d, sorted[i:j:j])
		}
		i = j
	}
	return runs
}

// Bootstrap marks every component with boundary targets as changed, so the
// first Emit ships the initial labels — the cross-shard analogue of
// Thrifty's Initial Push (the planted 0 leaves the hub's shard in round 0).
func (n *Node) Bootstrap() {
	for r, dts := range n.out {
		if len(dts) > 0 {
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
// number of pairs shipped. Compaction, in the order applied:
//
//   - delta-only emission: only components whose label changed since the
//     last Emit appear at all;
//   - zero-convergence suppression: a component that changed to 0 ships that
//     final 0 once, marks each target as known-zero, and drops its lists;
//     entries from any component targeting a known-zero vertex are dropped
//     (the target's label is already the global minimum) and counted in
//     Suppressed;
//   - MIN-dedup and varint delta-encoding inside AppendPairs.
func (n *Node) Emit(numShards int) (batches [][]byte, pairs int64) {
	if len(n.changed) == 0 {
		return nil, 0
	}
	perDest := make([][]Pair, numShards)
	for _, r := range n.changed {
		n.isChanged[r] = false
		if n.suppressed[r] {
			continue
		}
		lab := n.label[r]
		for _, dt := range n.out[r] {
			for _, t := range dt.targets {
				if n.knownZero[t] {
					n.Suppressed++
					continue
				}
				perDest[dt.dest] = append(perDest[dt.dest], Pair{V: t, L: lab})
				if lab == 0 {
					n.knownZero[t] = true
				}
			}
		}
		if lab == 0 {
			n.suppressed[r] = true
			n.out[r] = nil
		}
	}
	n.changed = n.changed[:0]

	batches = make([][]byte, numShards)
	for d, ps := range perDest {
		if len(ps) == 0 {
			continue
		}
		batches[d] = AppendPairs(nil, n.ranges[d].Lo, ps)
		pairs += int64(len(ps))
	}
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
