// Package graph provides the in-memory graph representation used throughout
// this repository: an undirected graph in Compressed Sparse Row form, the
// representation assumed by the Thrifty paper (§II). Each undirected edge is
// stored twice — once in each endpoint's adjacency list — which permits
// information flow across edges in both directions (required by pull
// traversals) and supports sampling edges incident to specific vertices
// (required by Afforest).
//
// Matching the paper's memory layout, offsets are 8-byte integers
// (|V|+1 of them) and neighbour ids are 4-byte integers (one per directed
// edge); labels elsewhere in the repository are likewise 4 bytes.
package graph

import (
	"errors"
	"fmt"
	"thriftylp/internal/atomicx"

	"thriftylp/internal/parallel"
)

// Edge is one undirected edge between vertices U and V.
type Edge struct {
	U, V uint32
}

// Graph is an immutable undirected graph in CSR form. Vertex ids are dense
// in [0, NumVertices()). The zero value is an empty graph.
type Graph struct {
	offsets []int64  // len NumVertices()+1; offsets[v]..offsets[v+1] index adj
	adj     []uint32 // neighbour ids; len = 2 × undirected edges (minus self-loop doubling)
	maxDeg  uint32   // a vertex with maximum degree (smallest id among ties)
	mapped  []byte   // non-nil when offsets/adj alias an mmap region (see Close)

	// closeGate serializes Close: the first caller to claim it (CAS 0→1)
	// performs the release, every later or concurrent caller is a no-op.
	closeGate atomicx.Int32
	// unmapped is set (before the munmap) once a mapped graph's arrays have
	// been torn down; it backs Validate's use-after-close error and the
	// debug-build accessor checks. Never set for heap-backed graphs, whose
	// storage stays valid after Close.
	unmapped atomicx.Bool
}

// errUseAfterClose reports access to a mapped graph whose pages have been
// released. The string is errfreeze-listed: tests and runbooks match on it.
var errUseAfterClose = errors.New("graph: use of mmap-backed graph after Close")

// ErrUseAfterClose reports whether err is the use-after-close error a mapped
// graph returns (from Validate) or panics with (from the accessors, in
// builds tagged thriftydebug) once Close has released its pages.
func ErrUseAfterClose(err error) bool { return errors.Is(err, errUseAfterClose) }

// Mapped reports whether the graph's CSR arrays alias a memory-mapped file
// (the zero-copy LoadBinary path) rather than the heap.
func (g *Graph) Mapped() bool { return g.mapped != nil }

// MappedBytes returns the size of the memory mapping backing the graph's
// CSR arrays, 0 for heap-backed (or closed) graphs. Like every accessor it
// must only be called while the graph is live — holders of a
// serve.Snapshot reference satisfy that by construction.
func (g *Graph) MappedBytes() int64 { return int64(len(g.mapped)) }

// Close releases the memory mapping backing a zero-copy loaded graph and is
// a no-op for heap-backed graphs. After Close the graph — and every slice
// previously obtained from Offsets, Adjacency, or Neighbors — must not be
// used: the aliased pages are gone and touching them faults. Close is
// idempotent and safe to call from multiple goroutines: exactly one caller
// performs the munmap, the rest return nil. What Close does NOT synchronize
// against is in-flight readers — see the ownership contract in zerocopy.go;
// long-lived servers must layer reference counting (internal/serve.Snapshot)
// so the munmap only fires after the last reader is done. Graphs that are
// never closed keep their mapping until process exit, which is harmless for
// the common load-once-run-forever shape.
func (g *Graph) Close() error {
	if !g.closeGate.CompareAndSwap(0, 1) {
		return nil
	}
	m := g.mapped
	if m == nil {
		return nil
	}
	g.unmapped.Store(true)
	g.mapped = nil
	g.offsets = nil
	g.adj = nil
	return munmapBytes(m)
}

// usableErr returns errUseAfterClose once a mapped graph's pages have been
// released, nil otherwise.
func (g *Graph) usableErr() error {
	if g.unmapped.Load() {
		return errUseAfterClose
	}
	return nil
}

// mustUsable panics with errUseAfterClose on a closed mapped graph. It backs
// the debug-build accessor checks: a deliberate fail-fast panic at the access
// site beats the page fault (or silent garbage) the stale alias would hit.
func (g *Graph) mustUsable() {
	if err := g.usableErr(); err != nil {
		panic(err)
	}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumDirectedEdges returns the length of the adjacency array, i.e. the
// number of stored (directed) edge slots. For a simple undirected graph this
// is 2·|E|.
func (g *Graph) NumDirectedEdges() int64 { return int64(len(g.adj)) }

// NumEdges returns the undirected edge count |E| (directed slots / 2,
// rounding up so that a lone self-loop still counts as one edge).
func (g *Graph) NumEdges() int64 { return (int64(len(g.adj)) + 1) / 2 }

// Degree returns the number of adjacency slots of v.
//
//thrifty:hotpath
func (g *Graph) Degree(v uint32) int {
	if debugClosedChecks {
		g.mustUsable()
	}
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns v's adjacency list. The returned slice aliases the
// graph's storage and must not be modified.
//
//thrifty:hotpath
func (g *Graph) Neighbors(v uint32) []uint32 {
	if debugClosedChecks {
		g.mustUsable()
	}
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Offsets returns the CSR offsets array (len NumVertices()+1). The returned
// slice aliases the graph's storage and must not be modified; it is exposed
// for edge-balanced partitioning.
func (g *Graph) Offsets() []int64 {
	if debugClosedChecks {
		g.mustUsable()
	}
	return g.offsets
}

// Adjacency returns the raw neighbour array. The returned slice aliases the
// graph's storage and must not be modified.
func (g *Graph) Adjacency() []uint32 {
	if debugClosedChecks {
		g.mustUsable()
	}
	return g.adj
}

// MaxDegreeVertex returns a vertex of maximum degree (the smallest id among
// ties), computed once at construction. This is the vertex Thrifty's Zero
// Planting technique assigns label 0. Panics on an empty graph.
func (g *Graph) MaxDegreeVertex() uint32 {
	if g.NumVertices() == 0 {
		panic("graph: MaxDegreeVertex of empty graph")
	}
	return g.maxDeg
}

// String returns a short summary, e.g. "graph{|V|=21, |E|=40}".
func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d, |E|=%d}", g.NumVertices(), g.NumEdges())
}

// Edges materializes the undirected edge set with U <= V, one entry per
// undirected edge. Self-loops appear once. Intended for tests and small
// graphs; it allocates |E| entries.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if uint32(v) <= u {
				edges = append(edges, Edge{U: uint32(v), V: u})
			}
		}
	}
	return edges
}

// Validate checks structural invariants of the CSR arrays: monotone offsets
// spanning the adjacency array, in-range neighbour ids, and symmetry (every
// directed slot (v,u) has a matching (u,v); a self-loop's slot is its own
// match). It is O(|V|+|E|) time and O(|V|) space and is used by tests and by
// loaders of untrusted files.
func (g *Graph) Validate() error {
	_, err := g.validate(parallel.Default())
	return err
}

// validate is Validate that also returns the max-degree vertex the
// structural pass found.
func (g *Graph) validate(pool *parallel.Pool) (uint32, error) {
	if err := g.usableErr(); err != nil {
		return 0, err
	}
	hub, err := g.validateStructure(pool)
	if err != nil {
		return 0, err
	}
	n := g.NumVertices()
	if n == 0 {
		return 0, nil
	}
	// Symmetry: the multiset of (v,u) slots must equal the multiset of
	// (u,v) slots. Count degree-direction balance: for each unordered pair
	// the number of v→u slots must equal u→v slots. A full multiset check
	// is O(E log E); we verify via per-vertex counters over two passes.
	inCount := inDegreeHistogram(pool, g.adj, n)
	if v := firstViolation(pool, n, 16, func(lo, hi int) int {
		for v := lo; v < hi; v++ {
			if inCount[v] != g.offsets[v+1]-g.offsets[v] {
				return v
			}
		}
		return -1
	}); v >= 0 {
		return 0, fmt.Errorf("graph: vertex %d has out-degree %d but in-degree %d (asymmetric CSR)",
			v, g.offsets[v+1]-g.offsets[v], inCount[v])
	}
	return hub, nil
}

// validateStructure checks the invariants memory safety depends on —
// monotone offsets spanning the adjacency array and in-range neighbour ids —
// without the O(|E|) symmetry audit, and returns the max-degree vertex. It
// is the shared checker (check.go): one chunked pass over each array.
func (g *Graph) validateStructure(pool *parallel.Pool) (uint32, error) {
	n := g.NumVertices()
	if len(g.offsets) == 0 {
		if len(g.adj) != 0 {
			return 0, fmt.Errorf("graph: adjacency without offsets")
		}
		return 0, nil
	}
	if g.offsets[0] != 0 {
		return 0, fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	bad, hub, _ := scanOffsets(pool, g.offsets)
	if bad >= 0 {
		return 0, fmt.Errorf("graph: offsets not monotone at vertex %d", bad)
	}
	if g.offsets[n] != int64(len(g.adj)) {
		return 0, fmt.Errorf("graph: offsets[%d] = %d, want len(adj) = %d", n, g.offsets[n], len(g.adj))
	}
	if i := firstOutOfRange(pool, g.adj, n); i >= 0 {
		return 0, fmt.Errorf("graph: adjacency slot %d references vertex %d out of range [0,%d)", i, g.adj[i], n)
	}
	return uint32(hub), nil
}

// FromCSR constructs a Graph directly from prebuilt CSR arrays, taking
// ownership of the slices. offsets must have length n+1 for an n-vertex
// graph, and the arrays must describe a symmetric adjacency structure; this
// is checked and an error returned otherwise.
func FromCSR(offsets []int64, adj []uint32) (*Graph, error) {
	g := &Graph{offsets: offsets, adj: adj}
	hub, err := g.validate(parallel.Default())
	if err != nil {
		return nil, err
	}
	g.maxDeg = hub
	return g, nil
}
