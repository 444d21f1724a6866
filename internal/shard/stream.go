package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"thriftylp/graph"
	"thriftylp/internal/atomicx"
	"thriftylp/internal/parallel"
)

// Streamed shard-set construction: a replayable edge stream straight to a
// directory of CSR slice files, without ever materializing the edge list.
// Pass 1 replays every chunk to count directed degrees and choose
// edge-balanced cut points; pass 2 replays every chunk once per shard,
// keeping only the endpoints that land in the shard's vertex range, so peak
// memory is the per-vertex degree/offset arrays (12 bytes per vertex) plus
// one shard's slice at a time. Self-loops are dropped; duplicate edges are
// kept (streaming dedup would need edge-list-sized state — the thing being
// avoided) and are harmless to connected components and the CSR invariants.

// EdgeStream is a deterministic, replayable chunked edge stream — the
// contract StreamWrite builds shard sets from. gen.RMATStream implements it.
type EdgeStream interface {
	// Vertices returns the vertex-id space size; every emitted endpoint is
	// below it.
	Vertices() int
	// Chunks returns the replayable chunk count.
	Chunks() int
	// Chunk replays chunk ci, calling emit for each edge. Replays must be
	// bit-identical — StreamWrite replays every chunk once in pass 1 and
	// once per shard in pass 2 and relies on them agreeing. Distinct chunks
	// may be replayed concurrently.
	Chunk(ci int, emit func(u, v uint32))
}

// StreamStats accounts for the streamed build's memory shape, next to what
// the in-RAM edge-list path would have needed for the same input.
type StreamStats struct {
	// Vertices and DirectedSlots describe the generated graph.
	Vertices      int   `json:"vertices"`
	DirectedSlots int64 `json:"directed_slots"`
	// SelfLoops is the number of generated self-loops (dropped).
	SelfLoops int64 `json:"self_loops"`
	// PeakBytes estimates the streamed path's peak heap: the per-vertex
	// degree/offset arrays plus the largest shard's slice (offsets +
	// adjacency).
	PeakBytes int64 `json:"peak_bytes"`
	// EdgeListBytes is what materializing the raw edge list alone would
	// cost (8 bytes per generated edge) — the in-memory path's floor,
	// before it builds the CSR on top.
	EdgeListBytes int64 `json:"edge_list_bytes"`
}

// StreamWrite builds the graph described by src directly as a sharded CSR
// set in dir: k edge-balanced vertex-range slice files plus a manifest,
// ready for Open / dist.RunSource. See the file comment above for the
// memory model and the duplicate-edge semantics.
func StreamWrite(src EdgeStream, dir string, shards int) (*Manifest, *StreamStats, error) {
	n := src.Vertices()
	if n <= 0 {
		return nil, nil, fmt.Errorf("shard: stream has %d vertices", n)
	}
	pool := parallel.Default()
	chunks := src.Chunks()

	// Pass 1: replay every chunk once, counting directed degrees. Counts are
	// uint32 (the id-space bound CheckOffsets64 enforces); the prefix sum
	// below detects any wrap because it accumulates in int64 and must land
	// exactly on the known slot total.
	deg := make([]uint32, n)
	var edges, selfLoops atomicx.Int64
	parallel.For(pool, chunks, 1, func(_, clo, chi int) {
		var total, loops int64
		for ci := clo; ci < chi; ci++ {
			src.Chunk(ci, func(u, v uint32) {
				total++
				if u == v {
					loops++
					return
				}
				atomicx.AddUint32(&deg[u], 1)
				atomicx.AddUint32(&deg[v], 1)
			})
		}
		edges.Add(total)
		selfLoops.Add(loops)
	})

	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + int64(deg[v])
	}
	slots := 2 * (edges.Load() - selfLoops.Load())
	if offsets[n] != slots {
		return nil, nil, fmt.Errorf("shard: streamed degree count %d does not match %d directed slots (degree overflow?)", offsets[n], slots)
	}
	// The audit also finds the hub (needed for Zero Planting downstream):
	// max degree, smallest id among ties, as Graph.MaxDegreeVertex.
	hub, err := graph.CheckOffsets64(offsets, slots)
	if err != nil {
		return nil, nil, err
	}
	deg = nil
	parts := partition(offsets, shards)

	m := &Manifest{Schema: ManifestSchema, Vertices: n, Slots: slots, Hub: hub}
	stats := &StreamStats{
		Vertices:      n,
		DirectedSlots: slots,
		SelfLoops:     selfLoops.Load(),
		EdgeListBytes: 8 * edges.Load(),
	}
	perVertexBytes := int64(n)*4 + int64(n+1)*8 // deg + offsets
	// Pass 2, once per shard: replay every chunk, keep endpoints in
	// [lo, hi), write the slice, free it. Rows fill via atomic cursors (the
	// chunk workers race per target row), then sort — deterministic file
	// bytes regardless of scheduling.
	for i, p := range parts {
		lo, hi := int(p.Lo), int(p.Hi)
		base := offsets[lo]
		local := make([]int64, hi-lo+1)
		for v := lo; v <= hi; v++ {
			local[v-lo] = offsets[v] - base
		}
		adj := make([]uint32, local[hi-lo])
		cursor := make([]int64, hi-lo)
		copy(cursor, local[:hi-lo])
		parallel.For(pool, chunks, 1, func(_, clo, chi int) {
			for ci := clo; ci < chi; ci++ {
				src.Chunk(ci, func(u, v uint32) {
					if u == v {
						return
					}
					if int(u) >= lo && int(u) < hi {
						adj[atomicx.AddInt64(&cursor[u-uint32(lo)], 1)-1] = v //thrifty:benign-race each atomic cursor add claims a distinct slot
					}
					if int(v) >= lo && int(v) < hi {
						adj[atomicx.AddInt64(&cursor[v-uint32(lo)], 1)-1] = u //thrifty:benign-race each atomic cursor add claims a distinct slot
					}
				})
			}
		})
		parallel.For(pool, hi-lo, 1<<10, func(_, vlo, vhi int) {
			for v := vlo; v < vhi; v++ {
				row := adj[local[v]:local[v+1]]
				slices.Sort(row)
			}
		})
		sl := &graph.CSRSlice{GlobalVertices: n, Lo: p.Lo, Hi: p.Hi, Offsets: local, Adj: adj}
		if bytes := perVertexBytes + int64(len(local))*8 + int64(len(adj))*4; bytes > stats.PeakBytes {
			stats.PeakBytes = bytes
		}
		file := ShardFileName(i)
		if err := writeShardFile(dir, file, sl); err != nil {
			return nil, nil, err
		}
		m.Shards = append(m.Shards, Info{File: file, Lo: p.Lo, Hi: p.Hi, Slots: sl.NumSlots()})
	}
	if err := WriteManifest(dir, m); err != nil {
		return nil, nil, err
	}
	return m, stats, nil
}

// writeShardFile writes one slice into dir, creating dir on first use.
func writeShardFile(dir, file string, sl *graph.CSRSlice) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return graph.SaveCSRSlice(filepath.Join(dir, file), sl)
}
