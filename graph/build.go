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

// WithSortedAdjacency sorts each vertex's neighbour list ascending. A
// sorted list is unique, so the layout does not depend on the build
// strategy or thread count. The lists are sorted by a counting-sort
// transpose of the built CSR, which needs a second adjacency array.
func WithSortedAdjacency() BuildOption {
	return func(c *buildConfig) { c.sortAdj = true }
}

// WithBuildPool runs construction on the given worker pool instead of the
// process-wide default. The caller keeps ownership of the pool.
func WithBuildPool(p *parallel.Pool) BuildOption {
	return func(c *buildConfig) { c.pool = p }
}

// parallelBuildCutoff is the edge count below which the sequential counting
// sort wins over any parallel strategy (fork/join overhead dominates).
const parallelBuildCutoff = 1 << 15

// BuildUndirected constructs a CSR graph from an edge list. Each edge {U,V}
// with U≠V occupies two adjacency slots (U→V and V→U); a self-loop occupies
// one.
//
// Construction is parallel and atomic-free on the hot path: each worker
// counts degrees of a contiguous edge shard into a private histogram, the
// histograms are merged per vertex range into exclusive per-thread write
// cursors, the offsets array is produced by a parallel blocked prefix sum,
// and each worker scatters its own shard through its private cursors. The
// resulting adjacency layout is deterministic — identical to a sequential
// counting sort of the edge list — regardless of thread count. When the
// histograms would not pay for themselves, construction falls back: tiny
// inputs and single-thread pools take a sequential counting sort, and
// pathological vertex-to-edge ratios take the legacy atomic-cursor strategy,
// which needs no per-thread histograms and so is the memory-frugal choice.
//
// With WithSortedAdjacency or WithDedup, the built CSR is then transposed
// into sorted lists (see sortedTranspose): a counting sort, not a
// comparison sort, parallel over per-thread histograms exactly when the
// build was, and sequential otherwise. The sorted layout is unique, so it
// is the same for every strategy and thread count.
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

	var offsets []int64
	var adj []uint32
	parts := 1 // source ranges of the sorting transpose, one per thread when the histograms fit
	switch {
	case pool.Threads() == 1 || len(edges) < parallelBuildCutoff:
		offsets, adj = buildCSRSerial(edges, n, cfg.dropLoops)
	case !histogramFits(pool.Threads(), n, len(edges)):
		offsets, adj = buildCSRAtomic(edges, n, cfg.dropLoops, pool)
	default:
		offsets, adj = buildCSRHistogram(edges, n, cfg.dropLoops, pool)
		parts = pool.Threads()
	}
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

// histogramFits reports whether the per-thread histogram strategy is safe
// and worthwhile: per-vertex cursors must fit int32 (guaranteed when the
// total directed slot count stays below 2^31), and threads×n histogram
// memory must stay within a small multiple of the edge array itself.
func histogramFits(threads, n, m int) bool {
	if int64(m) >= 1<<30 {
		return false
	}
	return int64(threads)*int64(n) <= 8*int64(m)+(1<<20)
}

// buildCSRSerial is a plain sequential counting sort — the layout reference
// for the deterministic parallel strategy, and the fastest path for small
// inputs.
func buildCSRSerial(edges []Edge, n int, dropLoops bool) ([]int64, []uint32) {
	offsets := make([]int64, n+1)
	for _, e := range edges {
		if e.U == e.V {
			if !dropLoops {
				offsets[e.U+1]++
			}
			continue
		}
		offsets[e.U+1]++
		offsets[e.V+1]++
	}
	for v := 1; v <= n; v++ {
		offsets[v] += offsets[v-1]
	}
	adj := make([]uint32, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range edges {
		if e.U == e.V {
			if !dropLoops {
				adj[cursor[e.U]] = e.V
				cursor[e.U]++
			}
			continue
		}
		adj[cursor[e.U]] = e.V
		cursor[e.U]++
		adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	return offsets, adj
}

// buildCSRHistogram is the atomic-free parallel strategy. Edge shards are
// static and contiguous, so thread t's writes into any vertex's slot list
// come after all writes from threads < t and preserve shard-internal edge
// order — the layout is bit-identical to buildCSRSerial.
func buildCSRHistogram(edges []Edge, n int, dropLoops bool, pool *parallel.Pool) ([]int64, []uint32) {
	threads := pool.Threads()
	parts := parallel.PartitionVertices(len(edges), threads)
	hist := make([][]int32, threads)

	// Pass 1: private degree histograms, one contiguous edge shard each.
	pool.MustRun(func(tid int) {
		h := make([]int32, n)
		for _, e := range edges[parts[tid].Lo:parts[tid].Hi] {
			if e.U == e.V {
				if !dropLoops {
					h[e.U]++
				}
				continue
			}
			h[e.U]++
			h[e.V]++
		}
		hist[tid] = h //thrifty:benign-race per-thread histogram slot indexed by tid
	})

	// Merge by vertex range: hist[t][v] becomes thread t's exclusive write
	// cursor within v's slot list, offsets[v+1] the total degree.
	offsets := make([]int64, n+1)
	parallel.For(pool, n, 1<<14, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			var run int32
			for t := 0; t < threads; t++ {
				c := hist[t][v]
				hist[t][v] = run //thrifty:benign-race workers own disjoint vertex ranges of every hist row
				run += c
			}
			offsets[v+1] = int64(run) //thrifty:benign-race workers own disjoint vertex ranges of offsets
		}
	})
	parallel.PrefixSum(pool, offsets)

	// Pass 2: scatter through private cursors — no atomics, no sharing.
	adj := make([]uint32, offsets[n])
	pool.MustRun(func(tid int) {
		h := hist[tid]
		for _, e := range edges[parts[tid].Lo:parts[tid].Hi] {
			if e.U == e.V {
				if !dropLoops {
					adj[offsets[e.U]+int64(h[e.U])] = e.V //thrifty:benign-race private per-thread cursors make each adj slot exclusively owned
					h[e.U]++
				}
				continue
			}
			adj[offsets[e.U]+int64(h[e.U])] = e.V //thrifty:benign-race private per-thread cursors make each adj slot exclusively owned
			h[e.U]++
			adj[offsets[e.V]+int64(h[e.V])] = e.U //thrifty:benign-race private per-thread cursors make each adj slot exclusively owned
			h[e.V]++
		}
	})
	return offsets, adj
}

// buildCSRAtomic is the original strategy: degrees counted with atomic adds
// and slots filled through per-vertex atomic cursors. Slot order within a
// vertex is scheduling-dependent; memory overhead is one int64 cursor per
// vertex regardless of thread count.
func buildCSRAtomic(edges []Edge, n int, dropLoops bool, pool *parallel.Pool) ([]int64, []uint32) {
	deg := make([]int64, n+1) // deg[v+1] accumulates v's slot count
	parallel.For(pool, len(edges), 1<<16, func(_, lo, hi int) {
		for _, e := range edges[lo:hi] {
			if e.U == e.V {
				if !dropLoops {
					atomicx.AddInt64(&deg[e.U+1], 1)
				}
				continue
			}
			atomicx.AddInt64(&deg[e.U+1], 1)
			atomicx.AddInt64(&deg[e.V+1], 1)
		}
	})

	offsets := deg
	parallel.PrefixSum(pool, offsets)
	adj := make([]uint32, offsets[n])

	cursor := make([]int64, n)
	parallel.For(pool, n, 1<<16, func(_, lo, hi int) {
		copy(cursor[lo:hi], offsets[lo:hi])
	})
	parallel.For(pool, len(edges), 1<<16, func(_, lo, hi int) {
		for _, e := range edges[lo:hi] {
			if e.U == e.V {
				if !dropLoops {
					adj[atomicx.AddInt64(&cursor[e.U], 1)-1] = e.V //thrifty:benign-race slot index claimed by atomic fetch-add, so the write is exclusive
				}
				continue
			}
			adj[atomicx.AddInt64(&cursor[e.U], 1)-1] = e.V //thrifty:benign-race slot index claimed by atomic fetch-add, so the write is exclusive
			adj[atomicx.AddInt64(&cursor[e.V], 1)-1] = e.U //thrifty:benign-race slot index claimed by atomic fetch-add, so the write is exclusive
		}
	})
	return offsets, adj
}

// sortedTranspose returns the CSR (offsets, adj) with every adjacency list
// sorted ascending and, with dedup, free of duplicates. It is a counting
// sort, not a comparison sort: each slot (u, w) scatters u into w's list,
// and because sources are visited in ascending order, every list fills in
// ascending order. The CSR is symmetric, so w's transposed list holds the
// same multiset as its own list, and without dedup the offsets are
// unchanged. Sources are split into parts slot-balanced contiguous ranges,
// each with a private histogram, the way buildCSRHistogram splits edges:
// part t's writes into any list follow those of parts < t, so the layout
// is the same for any part count. parts is 1 or pool.Threads(); with one
// part the source passes run sequentially on the calling goroutine.
//
// Dedup needs no extra adjacency array: within a part, the copies of a
// duplicate slot (u, w) all arrive at list w while u is the source, so a
// per-part record of the last source seen at each list drops the repeats,
// both when counting and when scattering.
func sortedTranspose(offsets []int64, adj []uint32, dedup bool, pool *parallel.Pool, parts int) ([]int64, []uint32) {
	n := len(offsets) - 1
	ranges := parallel.PartitionEdges(offsets, parts)
	run := func(job func(t int)) {
		if parts == 1 {
			job(0)
			return
		}
		pool.MustRun(job)
	}
	// int64: the cursors become absolute slot positions in the sorted array.
	hist := make([][]int64, parts)
	last := make([][]uint32, parts) // with dedup, last[t][w] is 1 + the source part t last sent to list w

	// Pass 1: per-part counts of the slots each list receives.
	run(func(t int) {
		h := make([]int64, n)
		if dedup {
			last[t] = make([]uint32, n) //thrifty:benign-race per-part slot indexed by t
		}
		transposeRange(offsets, adj, ranges[t], last[t], h, nil)
		hist[t] = h //thrifty:benign-race per-part slot indexed by t
	})

	// Merge by vertex range: hist[t][w] becomes part t's exclusive write
	// cursor within w's list; with dedup the totals are the new degrees.
	newOff := offsets
	if dedup {
		newOff = make([]int64, n+1)
	}
	parallel.For(pool, n, 1<<14, func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			var sum int64
			for t := range hist {
				c := hist[t][w]
				hist[t][w] = sum //thrifty:benign-race workers own disjoint vertex ranges of every hist row
				sum += c
			}
			if dedup {
				newOff[w+1] = sum //thrifty:benign-race workers own disjoint vertex ranges of newOff
			}
		}
	})
	if dedup {
		parallel.PrefixSum(pool, newOff)
	}

	// Pass 2: scatter through private cursors — no atomics, no sharing.
	// Each part first makes its cursors absolute, a sequential pass that
	// spares the scatter a random read of newOff per slot.
	sorted := make([]uint32, newOff[n])
	run(func(t int) {
		h := hist[t]
		for w := range h {
			h[w] += newOff[w]
		}
		clear(last[t])
		transposeRange(offsets, adj, ranges[t], last[t], h, sorted)
	})
	return newOff, sorted
}

// transposeRange is one pass of sortedTranspose over the sources in r.
// Each slot (u, w) advances list w's cursor h[w]; with out non-nil, u is
// first written at out[h[w]]. With seen non-nil, a source already sent to
// w is skipped.
func transposeRange(offsets []int64, adj []uint32, r parallel.Range, seen []uint32, h []int64, out []uint32) {
	for u := r.Lo; u < r.Hi; u++ {
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
// with validateStructure first). Counting is contention-free — per-thread
// int32 histograms over contiguous slot shards, merged per vertex, the same
// strategy as buildCSRHistogram — with the atomic fallback for inputs where
// the histograms would not pay for themselves.
func inDegreeHistogram(pool *parallel.Pool, adj []uint32, n int) []int64 {
	threads := pool.Threads()
	counts := make([]int64, n)
	if threads == 1 || len(adj) < parallelBuildCutoff {
		for _, u := range adj {
			counts[u]++
		}
		return counts
	}
	if !histogramFits(threads, n, len(adj)) {
		parallel.For(pool, len(adj), 1<<16, func(_, lo, hi int) {
			for _, u := range adj[lo:hi] {
				atomicx.AddInt64(&counts[u], 1)
			}
		})
		return counts
	}
	parts := parallel.PartitionVertices(len(adj), threads)
	hist := make([][]int32, threads)
	pool.MustRun(func(tid int) {
		h := make([]int32, n)
		for _, u := range adj[parts[tid].Lo:parts[tid].Hi] {
			h[u]++
		}
		hist[tid] = h //thrifty:benign-race per-thread histogram slot indexed by tid
	})
	parallel.For(pool, n, 1<<14, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			var s int64
			for t := 0; t < threads; t++ {
				s += int64(hist[t][v])
			}
			counts[v] = s //thrifty:benign-race workers own disjoint vertex ranges of counts
		}
	})
	return counts
}
