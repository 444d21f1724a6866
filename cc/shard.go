package cc

import (
	"os"
	"strconv"

	"thriftylp/graph"
	"thriftylp/internal/core"
	"thriftylp/internal/dist"
	"thriftylp/internal/shard"
	"thriftylp/internal/stats"
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

// MemBudgetEnv, when set to a positive byte count, gives AlgoAuto a memory
// budget on runs that did not pass WithMemoryBudget explicitly.
const MemBudgetEnv = "THRIFTY_MEM_BUDGET"

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

// WithMemoryBudget tells the AlgoAuto selector how many bytes of resident
// graph + solver state the run may use. When the input's estimated
// working set exceeds the budget, the selector picks AlgoShard with a shard
// count scaled so one shard's share fits, instead of a whole-graph
// algorithm ("beyond-memory-budget" rule). Zero means unlimited; the
// THRIFTY_MEM_BUDGET environment variable supplies a default when the
// option is absent. Ignored when the caller names an algorithm directly.
func WithMemoryBudget(bytes int64) Option {
	return func(o *options) {
		if bytes > 0 {
			o.memBudget = bytes
		}
	}
}

// memoryBudget resolves the effective budget: explicit option first, then
// the environment, else unlimited (0).
func (o *options) memoryBudget() int64 {
	if o.memBudget > 0 {
		return o.memBudget
	}
	if s := os.Getenv(MemBudgetEnv); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0
}

// estimateResidentBytes is the whole-graph working set the selector holds
// against the budget: the CSR arrays (8-byte offsets, 4-byte adjacency)
// plus the label-propagation solver state (labels, shadow labels, frontier
// bookkeeping — roughly 16 bytes per vertex).
func estimateResidentBytes(p stats.Probe) int64 {
	return 8*int64(p.Vertices+1) + 4*p.DirectedEdges + 16*int64(p.Vertices)
}

// budgetShardCount picks the shard count for a budget-driven AlgoShard run:
// enough shards that one shard's slice share of the estimate fits the
// budget, never fewer than two (one shard would be the whole-graph run the
// rule just rejected).
func budgetShardCount(estimate, budget int64) int {
	k := int((estimate + budget - 1) / budget)
	if k < 2 {
		k = 2
	}
	return k
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
