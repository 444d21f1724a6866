package gen

// Streamed generation: RMAT as a deterministic, replayable chunk stream
// instead of a materialized edge list. The in-memory path (RMATEdges →
// BuildUndirected) holds 8 bytes per generated edge plus the full CSR at
// once; a consumer of RMATStream can instead replay the stream as many
// times as it needs (count degrees, then fill one shard at a time — see
// shard.StreamWrite), holding only per-vertex arrays. That is what makes a
// graph whose edge list exceeds RAM generatable on one box.
//
// The trick is that RMAT edges are regenerated, not stored: generation is
// deterministic per fixed-size chunk (chunkRNG), so every replay of a chunk
// yields the same edges in the same order, and chunks are independent so
// replays parallelize. Regeneration is compute, not I/O: one goroutine
// replays RMAT-16 at 2.6–2.9 Medges/s on a 2-vCPU x86-64 host
// (BenchmarkRMATStream), and the per-edge cost grows with Scale, one
// recursion level per bit. k-fold regeneration buys the memory bound with
// k replays of that work, spread over the chunk workers.
//
// Unlike RMAT/RMATCompact, the stream reports duplicate edges and
// self-loops as generated (streaming dedup would need edge-list-sized state
// — the thing being avoided); consumers drop loops and keep duplicates,
// which are harmless to connected components and to the CSR invariants.

// RMATStream is the deterministic chunked edge stream of an RMAT
// configuration. It satisfies shard.EdgeStream: Chunk(ci) replays chunk ci's
// edges identically on every call, already passed through the same
// seed-derived vertex permutation as RMATEdges, so the stream and the
// in-memory generator name the same graph.
type RMATStream struct {
	cfg RMATConfig
}

// NewRMATStream validates cfg and returns its edge stream.
func NewRMATStream(cfg RMATConfig) (*RMATStream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &RMATStream{cfg: cfg}, nil
}

// Vertices returns the stream's vertex-id space size.
func (s *RMATStream) Vertices() int { return 1 << s.cfg.Scale }

// Edges returns the total generated edge count (self-loops and duplicates
// included), summed over all chunks.
func (s *RMATStream) Edges() int64 { return int64(s.cfg.edges()) }

// Chunks returns the replayable chunk count.
func (s *RMATStream) Chunks() int { return (s.cfg.edges() + rmatChunkEdges - 1) / rmatChunkEdges }

// Chunk replays chunk ci, calling emit for each generated edge. Replays are
// bit-identical; distinct chunks may run concurrently.
func (s *RMATStream) Chunk(ci int, emit func(u, v uint32)) {
	rmatChunk(s.cfg, ci, emit)
}
