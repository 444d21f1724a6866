// Package dist is the shard scheduler: it drives N per-shard nodes
// (internal/shard.Node) — goroutine "nodes" today, a process boundary later
// — through the out-of-core connected-components pipeline:
//
//  1. Collapse phase, sequential over shards: load one CSR slice, collapse
//     it to its interior components with a sampled union-find pass (link
//     each vertex's first interior neighbours, then scan in full only the
//     rows outside the dominant component), extract the boundary lists,
//     release the slice. At most one shard's adjacency is
//     resident at a time — this is what lets the pipeline run graphs whose
//     adjacency exceeds RAM, with the per-vertex label state (a few bytes
//     per vertex) as the only global footprint.
//  2. Exchange phase, parallel over nodes: rounds of compacted boundary
//     label exchange (delta-only emission, zero-convergence suppression,
//     varint delta encoding — see shard.Node.Emit) until no component's
//     label changes anywhere.
//
// Inboxes are double-buffered by round parity: while node i decodes and
// applies its round-r batches, node j is already encoding its round-r+1
// batches into the other buffer, so decode and emit overlap across nodes
// with no locks — slot (parity, dst, src) is written only by src and read
// only by dst, with the round barrier providing the happens-before edge.
package dist

import (
	"thriftylp/internal/core"
	"thriftylp/internal/parallel"
	"thriftylp/internal/shard"
)

// Config parameterizes a sharded run; the source fixes the shard count.
type Config struct {
	// Pool supplies the exchange phase's worker threads, across which it
	// spreads the nodes; nil selects parallel.Default(). The collapse phase
	// is sequential.
	Pool *parallel.Pool
	// Stop, when non-nil, is polled before each shard's collapse and at
	// round boundaries; once requested the run returns early with Canceled
	// set.
	Stop *core.Stop
	// MaxRounds caps the exchange loop as a safety net; a value <= 0 means
	// 2·|V|+16 (core.IterationCap), which no correct run can reach (labels
	// strictly decrease).
	MaxRounds int
	// ExchangeFault, when non-nil, is invoked by every node at the start of
	// each exchange round — the exchange-level chaos hook. It may block,
	// deschedule, or panic; panics surface to the caller as
	// *parallel.PanicError like any pool-job panic.
	ExchangeFault func(round, node int)
}

// RoundStats records one exchange round's traffic.
type RoundStats struct {
	// Bytes is the encoded batch bytes shipped this round.
	Bytes int64 `json:"bytes"`
	// NaiveBytes is what a naive full-boundary exchange would have shipped
	// this round: every boundary entry at 8 flat bytes, changed or not.
	NaiveBytes int64 `json:"naive_bytes"`
	// Pairs is the (vertex, label) pair count emitted this round.
	Pairs int64 `json:"pairs"`
	// Suppressed is the zero-convergence suppression count this round:
	// entries dropped because their target or addressee had already
	// converged to label 0.
	Suppressed int64 `json:"suppressed"`
}

// Stats is the sharded pipeline's telemetry: the exchange cost model of
// one run. cc re-exports it as cc.ShardStats on RunStats.Shard.
type Stats struct {
	// Shards is the shard count the source supplied.
	Shards int
	// Rounds is the number of exchange rounds executed (the bootstrap
	// emission is round 1).
	Rounds int
	// LocalIterations counts collapses: one per non-empty shard, as each
	// shard's interior is collapsed into a single union-find forest.
	LocalIterations int
	// BoundaryEntries is the total deduplicated (component, target) entry
	// count across shards — the static cut size.
	BoundaryEntries int64
	// ExchangedBytes is the total encoded exchange traffic.
	ExchangedBytes int64
	// NaiveBytes is the naive full-boundary total over the same rounds.
	NaiveBytes int64
	// Pairs is the total emitted pair count.
	Pairs int64
	// SuppressedVertices is the total zero-convergence suppression count.
	SuppressedVertices int64
	// PerRound holds the per-round traffic breakdown.
	PerRound []RoundStats
}

// Result reports the outcome and the exchange cost model.
type Result struct {
	// Labels is the final component labelling: the hub's component
	// converges to 0, every other component to its minimum vertex id + 1 —
	// the same value space as the shared-memory Thrifty kernel.
	Labels []uint32
	Stats
	// Canceled reports that Stop fired before convergence; Labels then
	// holds intermediate state.
	Canceled bool
}

// RunSource solves the shard set provided by src.
func RunSource(src shard.Source, cfg Config) (Result, error) {
	n := src.Vertices()
	res := Result{Labels: make([]uint32, n), Stats: Stats{Shards: src.Shards()}}
	if n == 0 {
		return res, nil
	}
	k := res.Shards
	ranges := src.Ranges()
	hub := src.Hub()
	maxRounds := core.IterationCap(cfg.MaxRounds, n)
	pool := cfg.Pool
	if pool == nil {
		pool = parallel.Default()
	}

	// Collapse phase: one shard resident at a time.
	nodes := make([]*shard.Node, k)
	for i := 0; i < k; i++ {
		if cfg.Stop.Requested() {
			res.Canceled = true
			return res, nil
		}
		sl, err := src.Slice(i)
		if err != nil {
			return res, err
		}
		node := shard.NewNode(i, sl, ranges, hub)
		if err := src.Release(sl); err != nil {
			return res, err
		}
		nodes[i] = node
		if node.Hi > node.Lo {
			res.LocalIterations++
		}
		res.BoundaryEntries += node.BoundaryEntries
		node.Bootstrap()
	}

	// Exchange phase. inboxes[parity][dst][src] holds the batch src encoded
	// for dst in the round of that parity; see the package comment for the
	// ownership discipline that makes the buffers race-free.
	var inboxes [2][][][]byte
	for p := 0; p < 2; p++ {
		inboxes[p] = make([][][]byte, k)
		for d := range inboxes[p] {
			inboxes[p][d] = make([][]byte, k)
		}
	}
	perNode := make([]struct {
		bytes, pairs int64
		err          error
	}, k)

	for round := 0; round < maxRounds; round++ {
		if cfg.Stop.Requested() {
			res.Canceled = true
			return res, nil
		}
		p := round & 1
		parallel.For(pool, k, 1, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if cfg.ExchangeFault != nil {
					cfg.ExchangeFault(round, i)
				}
				st := &perNode[i]
				st.bytes, st.pairs, st.err = 0, 0, nil
				// Decode and apply this round's inbound batches...
				for s := 0; s < k; s++ {
					if b := inboxes[p][i][s]; b != nil {
						inboxes[p][i][s] = nil //thrifty:benign-race node i owns row [p][i] during its round
						if err := nodes[i].Apply(b); err != nil {
							st.err = err
							return
						}
					}
				}
				// ...then encode the next round's outbound ones.
				batches, pairs := nodes[i].Emit(k)
				for d := range batches {
					if batches[d] != nil {
						inboxes[1-p][d][i] = batches[d] //thrifty:benign-race node i owns column [1-p][*][i]; rows are read only next round
						st.bytes += int64(len(batches[d]))
					}
				}
				st.pairs = pairs
			}
		})
		var rs RoundStats
		var suppressed int64
		for i := range perNode {
			if perNode[i].err != nil {
				return res, perNode[i].err
			}
			rs.Bytes += perNode[i].bytes
			rs.Pairs += perNode[i].pairs
			suppressed += nodes[i].Suppressed
		}
		rs.Suppressed = suppressed - res.SuppressedVertices
		res.SuppressedVertices = suppressed
		rs.NaiveBytes = res.BoundaryEntries * shard.NaivePairBytes
		res.Rounds++
		res.PerRound = append(res.PerRound, rs)
		res.ExchangedBytes += rs.Bytes
		res.NaiveBytes += rs.NaiveBytes
		res.Pairs += rs.Pairs
		if rs.Bytes == 0 {
			break
		}
	}

	for _, node := range nodes {
		node.Labels(res.Labels)
	}
	return res, nil
}
