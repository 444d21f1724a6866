package shard_test

import (
	"testing"

	"thriftylp/internal/harness"
	"thriftylp/internal/shard"
)

// TestRepMatchesSeqCCSelectorFixtures pins every shard's collapse to the
// SeqCC oracle on the interior subgraph, on every selector fixture at 1, 2,
// 3, 4 and 8 shards: the cuts the traffic golden renders.
func TestRepMatchesSeqCCSelectorFixtures(t *testing.T) {
	for _, f := range harness.SelectorFixtures() {
		g, err := f.Build()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, k := range []int{1, 2, 3, 4, 8} {
			gs := shard.NewGraphSource(g, k)
			for i := 0; i < gs.Shards(); i++ {
				sl, err := gs.Slice(i)
				if err != nil {
					t.Fatal(err)
				}
				n := shard.NewNode(i, sl, gs.Ranges(), gs.Hub())
				if err := shard.CheckRep(sl, n); err != nil {
					t.Fatalf("%s/%d shard %d: %v", f.Name, k, i, err)
				}
			}
		}
	}
}
