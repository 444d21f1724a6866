// Sharded out-of-core connected components: the graph is cut into
// vertex-range CSR shards (balanced by edge count), each shard is collapsed
// to its interior components with a sampled union-find pass, and shards
// then exchange boundary component labels to global convergence. The exchange is where
// Thrifty's zero-convergence property pays off across the cut: label-0
// (hub-component) vertices are dropped from every future exchange, and only
// labels that changed are shipped at all — this example prints the
// compacted traffic next to what a naive full-boundary exchange would cost.
// The in-memory runs go through cc.Run(cc.AlgoShard, …) and read the
// traffic from Result.Stats.Shard; the on-disk run calls dist.RunSource on
// the shard set, whose Result carries the same dist.Stats record.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"thriftylp/cc"
	"thriftylp/graph/gen"
	"thriftylp/internal/dist"
	"thriftylp/internal/shard"
)

func main() {
	g, err := gen.RMATCompact(gen.DefaultRMAT(16, 16, 33))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())
	oracle := cc.Sequential(g)

	fmt.Printf("%-7s %-7s %-10s %-12s %-12s %-11s\n",
		"shards", "rounds", "boundary", "exchanged B", "naive B", "suppressed")
	for _, shards := range []int{2, 4, 8, 16} {
		res, err := cc.Run(cc.AlgoShard, g, cc.WithShards(shards))
		if err != nil {
			log.Fatal(err)
		}
		if !cc.Equivalent(res.Labels, oracle) {
			log.Fatalf("shards=%d produced a wrong partition", shards)
		}
		st := res.Stats.Shard
		fmt.Printf("%-7d %-7d %-10d %-12d %-12d %-11d\n",
			shards, st.Rounds, st.BoundaryEntries,
			st.ExchangedBytes, st.NaiveBytes, st.SuppressedVertices)
	}

	// The same pipeline out of core: write the shards to disk (one CSR slice
	// file each) and solve from the set — at most one shard's adjacency is
	// mapped at a time.
	dir, err := os.MkdirTemp("", "thriftylp-shards-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := shard.Write(g, dir, 4); err != nil {
		log.Fatal(err)
	}
	set, err := shard.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dist.RunSource(set, dist.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if !cc.Equivalent(res.Labels, oracle) {
		log.Fatal("on-disk shard set produced a wrong partition")
	}
	var bytes int64
	for _, info := range set.Manifest.Shards {
		st, err := os.Stat(filepath.Join(dir, info.File))
		if err != nil {
			log.Fatal(err)
		}
		bytes += st.Size()
	}
	fmt.Printf("\non-disk set: %d shard files, %d bytes, solved in %d rounds — labels match\n",
		len(set.Manifest.Shards), bytes, res.Rounds)
	fmt.Println("\nZero convergence crosses the cut: the hub's 0 floods the giant component")
	fmt.Println("and every 0-converged boundary vertex drops out of later exchanges.")
}
