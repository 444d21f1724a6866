package cc_test

import (
	"strconv"
	"testing"

	"thriftylp/cc"
	"thriftylp/graph/gen"
)

func TestShardMatchesThrifty(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(12, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	want := cc.Thrifty(g)
	for _, shards := range []int{1, 2, 4, 8} {
		res, err := cc.Run(cc.AlgoShard, g, cc.WithShards(shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		// Same value space, not just the same partition: the sharded
		// pipeline is a drop-in for Thrifty.
		for v := range want.Labels {
			if res.Labels[v] != want.Labels[v] {
				t.Fatalf("shards=%d: labels[%d] = %d, want %d", shards, v, res.Labels[v], want.Labels[v])
			}
		}
	}
}

func TestShardStatsPopulated(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(12, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cc.Run(cc.AlgoShard, g, cc.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats.Shard
	if st == nil {
		t.Fatal("AlgoShard run has nil Stats.Shard")
	}
	if st.Shards != 4 || st.Rounds <= 0 || st.LocalIterations <= 0 {
		t.Fatalf("shape fields not populated: %+v", st)
	}
	if st.BoundaryEntries <= 0 || st.ExchangedBytes <= 0 || st.Pairs <= 0 {
		t.Fatalf("exchange fields not populated: %+v", st)
	}
	if st.ExchangedBytes >= st.NaiveBytes {
		t.Fatalf("compacted exchange %d B >= naive %d B", st.ExchangedBytes, st.NaiveBytes)
	}
	if st.SuppressedVertices <= 0 {
		t.Fatalf("suppression never fired: %+v", st)
	}
	if len(st.PerRound) != st.Rounds {
		t.Fatalf("%d per-round records for %d rounds", len(st.PerRound), st.Rounds)
	}
	if res.Iterations != st.LocalIterations {
		t.Fatalf("Iterations %d != LocalIterations %d", res.Iterations, st.LocalIterations)
	}

	direct := cc.Thrifty(g)
	if direct.Stats.Shard != nil {
		t.Fatal("non-shard run carries ShardStats")
	}
}

// TestShardNegativeMaxIterations: a negative cap means "use the default"
// for AlgoShard as it does for the kernels, so the sharded run converges to
// Thrifty's labels instead of stopping before the first exchange round.
func TestShardNegativeMaxIterations(t *testing.T) {
	g, err := gen.Web(gen.DefaultWeb(12, 42))
	if err != nil {
		t.Fatal(err)
	}
	want := cc.Thrifty(g, cc.WithMaxIterations(-1))
	res, err := cc.Run(cc.AlgoShard, g, cc.WithShards(4), cc.WithMaxIterations(-1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Shard.Rounds == 0 || !cc.Verify(g, res.Labels) {
		t.Fatalf("%d rounds, %d components, verify %v", res.Stats.Shard.Rounds, res.NumComponents(), cc.Verify(g, res.Labels))
	}
	if res.NumComponents() != want.NumComponents() {
		t.Fatalf("%d components, Thrifty finds %d", res.NumComponents(), want.NumComponents())
	}
}

// TestAutoBeyondMemoryBudget: with a budget smaller than the input's
// estimated working set, the selector must route to the sharded pipeline
// with a shard count scaled to the deficit — and still be correct.
func TestAutoBeyondMemoryBudget(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(12, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cc.Run(cc.AlgoAuto, g, cc.WithMemoryBudget(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Selected != cc.AlgoShard {
		t.Fatalf("selected %s, want shard", res.Stats.Selected)
	}
	if got := probeReason(res); got != "beyond-memory-budget" {
		t.Fatalf("decision reason = %q", got)
	}
	st := res.Stats.Shard
	if st == nil {
		t.Fatal("budget-driven run has nil ShardStats")
	}
	if st.Shards < 2 {
		t.Fatalf("budget rule chose %d shards", st.Shards)
	}
	if !cc.Equivalent(res.Labels, cc.Sequential(g)) {
		t.Fatal("budget-driven run disagrees with oracle")
	}

	// An ample budget must leave the structural rules in charge.
	ample, err := cc.Run(cc.AlgoAuto, g, cc.WithMemoryBudget(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	if ample.Stats.Selected == cc.AlgoShard {
		t.Fatal("ample budget still routed to the sharded pipeline")
	}
}

// TestAutoMemoryBudgetFromEnv: THRIFTY_MEM_BUDGET supplies the budget when
// the option is absent; an explicit WithMemoryBudget wins over it.
func TestAutoMemoryBudgetFromEnv(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(12, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(cc.MemBudgetEnv, strconv.Itoa(64<<10))
	res, err := cc.Run(cc.AlgoAuto, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Selected != cc.AlgoShard || probeReason(res) != "beyond-memory-budget" {
		t.Fatalf("env budget ignored: selected %s (%s)", res.Stats.Selected, probeReason(res))
	}
	over, err := cc.Run(cc.AlgoAuto, g, cc.WithMemoryBudget(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	if over.Stats.Selected == cc.AlgoShard {
		t.Fatal("explicit option did not override the env budget")
	}
	t.Setenv(cc.MemBudgetEnv, "not-a-number")
	junk, err := cc.Run(cc.AlgoAuto, g)
	if err != nil {
		t.Fatal(err)
	}
	if junk.Stats.Probe.Reason == "beyond-memory-budget" {
		t.Fatal("malformed env budget was honoured")
	}
}

// TestShardWithThreads: the sharded pipeline must honour a dedicated pool.
func TestShardWithThreads(t *testing.T) {
	g, err := gen.Web(gen.DefaultWeb(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	oracle := cc.Sequential(g)
	for _, threads := range []int{1, 2, 4} {
		res, err := cc.Run(cc.AlgoShard, g, cc.WithThreads(threads), cc.WithShards(3))
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if !cc.Equivalent(res.Labels, oracle) {
			t.Fatalf("threads=%d produced a wrong partition", threads)
		}
	}
}
