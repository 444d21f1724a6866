package cc_test

import (
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
