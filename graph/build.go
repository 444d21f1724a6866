package graph

import (
	"fmt"
	"thriftylp/internal/atomicx"

	"thriftylp/internal/parallel"
)

// maxVertexID is the reserved top of the uint32 id space. Ids must stay
// strictly below it: several consumers compute id+1 — Thrifty's planted
// labels (v+1) and the degree-count indexing below (deg[e.U+1]) — and a
// vertex numbered MaxUint32 would silently wrap those to 0.
const maxVertexID = ^uint32(0)

// BuildOption configures BuildUndirected.
type BuildOption func(*buildConfig)

type buildConfig struct {
	numVertices int
	dedup       bool
	dropLoops   bool
	sortAdj     bool
	pool        *parallel.Pool
}

// WithNumVertices fixes the vertex count instead of inferring max-id+1.
// Ids in edges must be < n.
func WithNumVertices(n int) BuildOption {
	return func(c *buildConfig) { c.numVertices = n }
}

// WithDedup removes duplicate edges (parallel edges collapse to one). It
// implies sorted adjacency lists: the repeats are dropped inside the
// sorting transpose, so deduplication costs no pass of its own.
func WithDedup() BuildOption {
	return func(c *buildConfig) { c.dedup = true; c.sortAdj = true }
}

// WithoutSelfLoops drops self-loop edges during construction.
func WithoutSelfLoops() BuildOption {
	return func(c *buildConfig) { c.dropLoops = true }
}

// WithSortedAdjacency sorts each vertex's neighbour list ascending instead
// of leaving it in edge order. Either layout is the same for every thread
// count. The lists are sorted by a counting-sort transpose of the built CSR,
// which needs a second adjacency array.
func WithSortedAdjacency() BuildOption {
	return func(c *buildConfig) { c.sortAdj = true }
}

// WithBuildPool runs construction on the given worker pool instead of the
// process-wide default. The caller keeps ownership of the pool.
func WithBuildPool(p *parallel.Pool) BuildOption {
	return func(c *buildConfig) { c.pool = p }
}

// parallelBuildCutoff is the edge (or slot) count below which a counting
// sort runs as one part on the calling goroutine: fork/join overhead would
// dominate any split.
const parallelBuildCutoff = 1 << 15

// BuildUndirected constructs a CSR graph from an edge list. Each edge {U,V}
// with U≠V occupies two adjacency slots (U→V and V→U); a self-loop occupies
// one.
//
// Construction is one counting sort (see countingSort) over contiguous edge
// shards, one per part: each part counts its shard's degrees into a private
// histogram, the histograms become exclusive absolute write cursors, and
// each part scatters its own shard through them, with no atomics. Part t's
// slots in any list follow those of parts < t, in edge order, so the layout
// is that of a sequential counting sort for every part count and thread
// count. countParts picks one part below parallelBuildCutoff and otherwise
// up to one per thread, fewer when the histograms would dwarf the edges.
//
// With WithSortedAdjacency or WithDedup, the built CSR is then transposed
// into sorted lists (see sortedTranspose) by the same counting sort with
// the same part count; no comparison sort runs.
func BuildUndirected(edges []Edge, opts ...BuildOption) (*Graph, error) {
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	pool := cfg.pool
	if pool == nil {
		pool = parallel.Default()
	}

	n, err := resolveVertexCount(edges, &cfg, pool)
	if err != nil {
		return nil, err
	}

	parts := countParts(pool.Threads(), n, len(edges))
	offsets, adj := buildCSR(pool, edges, n, parts, cfg.dropLoops)
	if cfg.sortAdj {
		offsets, adj = sortedTranspose(offsets, adj, cfg.dedup, pool, parts)
	}

	g := &Graph{offsets: offsets, adj: adj}
	if g.NumVertices() > 0 {
		g.computeMaxDegree(pool)
	}
	return g, nil
}

// resolveVertexCount returns the vertex count for the edge list: the
// configured count (validating every edge against it) or the inferred
// max-id+1.
func resolveVertexCount(edges []Edge, cfg *buildConfig, pool *parallel.Pool) (int, error) {
	n := cfg.numVertices
	if n == 0 {
		var maxID int64 = -1
		parallel.For(pool, len(edges), 1<<16, func(_, lo, hi int) {
			local := int64(-1)
			for _, e := range edges[lo:hi] {
				if int64(e.U) > local {
					local = int64(e.U)
				}
				if int64(e.V) > local {
					local = int64(e.V)
				}
			}
			for {
				cur := atomicx.LoadInt64(&maxID)
				if cur >= local || atomicx.CASInt64(&maxID, cur, local) {
					break
				}
			}
		})
		if maxID >= int64(maxVertexID) {
			return 0, fmt.Errorf("graph: vertex id %d is reserved (id space is [0,%d))", maxID, maxVertexID)
		}
		return int(maxID + 1), nil
	}
	if int64(n) > int64(maxVertexID) {
		return 0, fmt.Errorf("graph: %d vertices exceeds the id space [0,%d)", n, maxVertexID)
	}
	if i := firstViolation(pool, len(edges), func(i int) bool {
		return int(edges[i].U) >= n || int(edges[i].V) >= n
	}); i >= 0 {
		return 0, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", edges[i].U, edges[i].V, n)
	}
	return n, nil
}

// buildCSR counting-sorts the edges into a CSR over parts contiguous edge
// shards: the layout of a sequential counting sort, for any part count.
func buildCSR(pool *parallel.Pool, edges []Edge, n, parts int, dropLoops bool) ([]int64, []uint32) {
	m := len(edges)
	return countingSort(pool, n, parts, func(t int, h []int64, out []uint32) {
		for _, e := range edges[m*t/parts : m*(t+1)/parts] {
			if e.U == e.V {
				if !dropLoops {
					if out != nil {
						out[h[e.U]] = e.V //thrifty:benign-race private per-part cursors make each slot exclusively owned
					}
					h[e.U]++
				}
				continue
			}
			if out != nil {
				out[h[e.U]] = e.V //thrifty:benign-race private per-part cursors make each slot exclusively owned
				out[h[e.V]] = e.U //thrifty:benign-race private per-part cursors make each slot exclusively owned
			}
			h[e.U]++
			h[e.V]++
		}
	})
}

// countParts returns how many parts a counting sort of m items into n lists
// runs on a pool of the given size: one below parallelBuildCutoff, else one
// per thread, capped so that the parts' histograms (parts×n entries) stay
// within 8m + 2^20, a small multiple of the input itself.
func countParts(threads, n, m int) int {
	if m < parallelBuildCutoff {
		return 1
	}
	if n > 0 {
		threads = min(threads, (8*m+1<<20)/n)
	}
	return max(threads, 1)
}

// histograms runs count(t, h) for every part t in [0, parts), each into a
// fresh private n-entry histogram h, and returns them. One part runs on the
// calling goroutine; more are spread over the pool.
func histograms(pool *parallel.Pool, n, parts int, count func(t int, h []int64)) [][]int64 {
	hist := make([][]int64, parts)
	parallel.For(pool, parts, 1, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			h := make([]int64, n)
			count(t, h)
			hist[t] = h //thrifty:benign-race per-part slot indexed by t
		}
	})
	return hist
}

// countingSort is the one CSR counting sort. pass(t, h, out) walks part t's
// items in order and, for each item bound for list w, writes it at out[h[w]]
// when out is non-nil, then advances h[w]. The first run, with out nil,
// counts into a private histogram per part. The merge is a blocked scan
// over the lists: a first pass sums the counts of every block but the last,
// then each block, from the sum of the blocks before it, writes the offsets
// and turns part t's count for w into its absolute cursor, the position
// after w's slots of parts < t. The second run scatters. Part t's
// slots in every list thus follow those of parts < t, in the order pass
// visits them, whatever the part count. Transient memory is 8 bytes ×
// parts × n.
func countingSort(pool *parallel.Pool, n, parts int, pass func(t int, h []int64, out []uint32)) ([]int64, []uint32) {
	hist := histograms(pool, n, parts, func(t int, h []int64) { pass(t, h, nil) })

	blocks := parallel.PartitionVertices(n, min(pool.Threads(), n>>14+1))
	base := make([]int64, len(blocks)) // base[b] is the slot count of lists before block b
	parallel.For(pool, len(blocks)-1, 1, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			var sum int64
			for _, h := range hist {
				for _, c := range h[blocks[b].Lo:blocks[b].Hi] {
					sum += c
				}
			}
			base[b+1] = sum //thrifty:benign-race workers own disjoint block slots of base
		}
	})
	for b := 1; b < len(base); b++ {
		base[b] += base[b-1]
	}
	offsets := make([]int64, n+1)
	parallel.For(pool, len(blocks), 1, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			run := base[b]
			for w := blocks[b].Lo; w < blocks[b].Hi; w++ {
				for _, h := range hist {
					c := h[w]
					h[w] = run //thrifty:benign-race workers own disjoint vertex blocks of every hist row
					run += c
				}
				offsets[w+1] = run //thrifty:benign-race workers own disjoint vertex blocks of offsets
			}
		}
	})

	out := make([]uint32, offsets[n])
	parallel.For(pool, parts, 1, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			pass(t, hist[t], out)
		}
	})
	return offsets, out
}

// sortedTranspose returns the CSR (offsets, adj) with every adjacency list
// sorted ascending and, with dedup, free of duplicates. It is countingSort
// over sources: each slot (u, w) scatters u into w's list, and because
// sources are visited in ascending order, every list fills in ascending
// order. The CSR is symmetric, so w's transposed list holds the same
// multiset as its own list. Sources are split into parts slot-balanced
// contiguous ranges, and the layout is the same for any part count.
//
// Dedup needs no extra adjacency array: within a part, the copies of a
// duplicate slot (u, w) all arrive at list w while u is the source, so a
// per-part record of the last source seen at each list drops the repeats,
// both when counting and when scattering.
func sortedTranspose(offsets []int64, adj []uint32, dedup bool, pool *parallel.Pool, parts int) ([]int64, []uint32) {
	n := len(offsets) - 1
	ranges := parallel.PartitionEdges(offsets, parts)
	last := make([][]uint32, parts) // with dedup, last[t][w] is 1 + the source part t last sent to list w
	return countingSort(pool, n, parts, func(t int, h []int64, out []uint32) {
		if dedup {
			if out == nil {
				last[t] = make([]uint32, n) //thrifty:benign-race per-part slot indexed by t
			} else {
				clear(last[t])
			}
		}
		seen := last[t]
		for u := ranges[t].Lo; u < ranges[t].Hi; u++ {
			for _, w := range adj[offsets[u]:offsets[u+1]] {
				if seen != nil {
					if seen[w] == u+1 {
						continue
					}
					seen[w] = u + 1
				}
				if out != nil {
					out[h[w]] = u //thrifty:benign-race private per-part cursors make each slot exclusively owned
				}
				h[w]++
			}
		}
	})
}

// RemoveIsolated returns a copy of g with zero-degree vertices removed and
// the surviving vertices renumbered densely, plus a mapping from new id to
// original id. The paper removes zero-degree vertices from all datasets
// "because of their destructive effect" on frontier density heuristics
// (§V-A). If g has no isolated vertices it is returned unchanged with an
// identity mapping of nil.
func RemoveIsolated(g *Graph) (*Graph, []uint32) {
	pool := parallel.Default()
	n := g.NumVertices()
	isolated := parallel.SumInt64(pool, n, 1<<16, func(lo, hi int) int64 {
		var c int64
		for v := lo; v < hi; v++ {
			if g.offsets[v+1] == g.offsets[v] {
				c++
			}
		}
		return c
	})
	if isolated == 0 {
		return g, nil
	}

	// Survivor numbering: per-block survivor counts, a sequential exclusive
	// prefix over the (few) blocks, then a parallel fill of both directions
	// of the mapping.
	m := n - int(isolated)
	blocks := parallel.PartitionVertices(n, pool.Threads()*8)
	base := make([]int64, len(blocks)+1)
	parallel.For(pool, len(blocks), 1, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			var c int64
			for v := blocks[b].Lo; v < blocks[b].Hi; v++ {
				if g.offsets[v+1] > g.offsets[v] {
					c++
				}
			}
			base[b+1] = c //thrifty:benign-race workers own disjoint block slots of base
		}
	})
	for b := 1; b <= len(blocks); b++ {
		base[b] += base[b-1]
	}
	newID := make([]uint32, n)
	origID := make([]uint32, m)
	offsets := make([]int64, m+1)
	parallel.For(pool, len(blocks), 1, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			next := uint32(base[b])
			for v := blocks[b].Lo; v < blocks[b].Hi; v++ {
				if g.offsets[v+1] > g.offsets[v] {
					newID[v] = next                                 //thrifty:benign-race workers own disjoint vertex blocks
					origID[next] = v                                //thrifty:benign-race next stays inside this block's base range
					offsets[next+1] = g.offsets[v+1] - g.offsets[v] //thrifty:benign-race next stays inside this block's base range
					next++
				}
			}
		}
	})
	parallel.PrefixSum(pool, offsets)

	adj := make([]uint32, offsets[m])
	parallel.For(pool, m, 1<<14, func(_, lo, hi int) {
		for nv := lo; nv < hi; nv++ {
			w := offsets[nv]
			for _, u := range g.Neighbors(origID[nv]) {
				adj[w] = newID[u] //thrifty:benign-race cursor w walks this worker's vertex range of adj
				w++
			}
		}
	})
	ng := &Graph{offsets: offsets, adj: adj}
	if m > 0 {
		ng.computeMaxDegree(pool)
	}
	return ng, origID
}

// firstViolation returns the smallest i in [0, n) with bad(i), or -1. The
// scan is parallel; later chunks bail out once an earlier violation is on
// record, so the common all-good case is a full parallel sweep and the error
// case still reports the deterministic first offender.
func firstViolation(pool *parallel.Pool, n int, bad func(i int) bool) int {
	best := int64(n)
	parallel.For(pool, n, 1<<14, func(_, lo, hi int) {
		if int64(lo) >= atomicx.LoadInt64(&best) {
			return
		}
		for i := lo; i < hi; i++ {
			if bad(i) {
				for {
					cur := atomicx.LoadInt64(&best)
					if int64(i) >= cur || atomicx.CASInt64(&best, cur, int64(i)) {
						return
					}
				}
			}
		}
	})
	if best == int64(n) {
		return -1
	}
	return int(best)
}

// inDegreeHistogram counts, for each vertex, how many adjacency slots
// reference it (the in-degree). All ids in adj must be < n (callers check
// with validateStructure first). It is countingSort's counting run over
// contiguous slot shards, the per-part histograms then summed per vertex.
func inDegreeHistogram(pool *parallel.Pool, adj []uint32, n int) []int64 {
	m := len(adj)
	parts := countParts(pool.Threads(), n, m)
	hist := histograms(pool, n, parts, func(t int, h []int64) {
		for _, u := range adj[m*t/parts : m*(t+1)/parts] {
			h[u]++
		}
	})
	counts := hist[0]
	for _, h := range hist[1:] {
		parallel.For(pool, n, 1<<14, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				counts[v] += h[v] //thrifty:benign-race workers own disjoint vertex ranges of counts
			}
		})
	}
	return counts
}
