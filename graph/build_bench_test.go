package graph_test

import (
	"fmt"
	"testing"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/parallel"
)

// BenchmarkBuildUndirected builds the CSR of RMAT-16's raw edges (16 per
// vertex, duplicates and self-loops included) as generated, with sorted
// lists, and deduplicated without self-loops as the generators build it,
// on 1- and 2-thread pools. The pool size is fixed and named: a b.Loop
// body runs once, at the starting GOMAXPROCS, so -cpu cannot size it.
func BenchmarkBuildUndirected(b *testing.B) {
	edges, err := gen.RMATEdges(gen.DefaultRMAT(16, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		opts []graph.BuildOption
	}{
		{"plain", nil},
		{"sorted", []graph.BuildOption{graph.WithSortedAdjacency()}},
		{"dedup", []graph.BuildOption{graph.WithDedup(), graph.WithoutSelfLoops()}},
	} {
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/threads=%d", bc.name, threads), func(b *testing.B) {
				pool := parallel.NewPool(threads)
				defer pool.Close()
				opts := append([]graph.BuildOption{graph.WithNumVertices(1 << 16), graph.WithBuildPool(pool)}, bc.opts...)
				b.ReportAllocs()
				for b.Loop() {
					if _, err := graph.BuildUndirected(edges, opts...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
