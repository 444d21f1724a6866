package cc

import (
	"thriftylp/graph"
	"thriftylp/internal/core"
	"thriftylp/internal/dist"
	"thriftylp/internal/shard"
)

// AlgoShard is sharded out-of-core Thrifty: the graph is split into
// vertex-range CSR shards, each shard is collapsed to its interior
// components with a sampled union-find pass while only that shard's
// adjacency is resident, and the shards then reconcile through rounds of compacted
// boundary-label exchange (internal/dist). On an in-memory graph the shards
// are views — no copy — so AlgoShard is also a way to measure the exchange
// overhead the out-of-core pipeline would pay. Labels land in the same
// value space as AlgoThrifty: hub component 0, every other component
// min-vertex-id+1.
const AlgoShard Algorithm = "shard"

// ShardStats is the sharded pipeline's telemetry, attached to
// RunStats.Shard on AlgoShard runs (nil for every other algorithm). It is
// internal/dist's own record, not a copy: a field added there reaches
// RunStats with no other edit.
type ShardStats = dist.Stats

// ShardRoundStats is one exchange round's traffic, in execution order on
// ShardStats.PerRound.
type ShardRoundStats = dist.RoundStats

// WithShards sets the shard count for AlgoShard runs (clamped to the vertex
// count; 0 keeps the default). Ignored by other algorithms.
func WithShards(k int) Option {
	return func(o *options) {
		if k > 0 {
			o.shards = k
		}
	}
}

// Shard runs the sharded out-of-core Thrifty pipeline (see AlgoShard).
func Shard(g *graph.Graph, opts ...Option) Result { return mustRun(AlgoShard, g, opts) }

// runShard executes the sharded pipeline and adapts its result to the
// kernel Result shape, parking the shard telemetry on o for RunContext to
// attach to RunStats.
func runShard(g *graph.Graph, o *options) (core.Result, error) {
	k := o.shards
	if k <= 0 {
		k = 4
	}
	res, err := dist.RunSource(shard.NewGraphSource(g, k), dist.Config{
		Pool:      o.cfg.Pool,
		Stop:      o.cfg.Stop,
		MaxRounds: o.cfg.MaxIterations,
	})
	if err != nil {
		return core.Result{}, err
	}
	o.shardStats = &res.Stats
	out := core.Result{
		Labels:     res.Labels,
		Iterations: res.LocalIterations,
		Canceled:   res.Canceled,
	}
	if res.Canceled {
		out.Phase = "shard-solve"
	}
	return out, nil
}
