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
// lists, and deduplicated without self-loops as the generators build it;
// sparse builds the first 2^18 of those edges over 2^22 vertices, where
// the histogram memory cap leaves one part. Each runs on 1- and 2-thread
// pools. The pool size is fixed and named: a b.Loop body runs once, at
// the starting GOMAXPROCS, so -cpu cannot size it.
func BenchmarkBuildUndirected(b *testing.B) {
	edges, err := gen.RMATEdges(gen.DefaultRMAT(16, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		edges []graph.Edge
		n     int
		opts  []graph.BuildOption
	}{
		{"plain", edges, 1 << 16, nil},
		{"sorted", edges, 1 << 16, []graph.BuildOption{graph.WithSortedAdjacency()}},
		{"dedup", edges, 1 << 16, []graph.BuildOption{graph.WithDedup(), graph.WithoutSelfLoops()}},
		{"sparse", edges[:1<<18], 1 << 22, nil},
	} {
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/threads=%d", bc.name, threads), func(b *testing.B) {
				pool := parallel.NewPool(threads)
				defer pool.Close()
				opts := append([]graph.BuildOption{graph.WithNumVertices(bc.n), graph.WithBuildPool(pool)}, bc.opts...)
				b.ReportAllocs()
				for b.Loop() {
					if _, err := graph.BuildUndirected(bc.edges, opts...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
