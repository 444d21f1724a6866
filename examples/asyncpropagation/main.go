// Asynchronous propagation: the paper's §VII closes by asking about "the
// connection between the unified arrays optimization and asynchronous
// execution". This example makes that connection concrete on the DO-LP
// loop of internal/core: the same two programs — connected components
// (DOLP vs DOLPUnified) and BFS hop distance (HopDistance vs
// HopDistanceUnified) — run under a synchronous two-array schedule and an
// asynchronous unified-array schedule, and the iteration counts show how
// much of Thrifty's Unified Labels win is really "asynchrony smuggled into
// a bulk-synchronous loop".
//
//	go run ./examples/asyncpropagation
package main

import (
	"fmt"
	"log"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/core"
)

func main() {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{}
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			log.Fatal(err)
		}
		graphs = append(graphs, struct {
			name string
			g    *graph.Graph
		}{name, g})
	}
	rm, err := gen.RMATCompact(gen.DefaultRMAT(16, 16, 5))
	add("social (RMAT)", rm, err)
	web, err2 := gen.Web(gen.DefaultWeb(15, 5))
	add("web crawl", web, err2)
	road, err3 := gen.Road(1<<17, 5)
	add("road grid", road, err3)

	fmt.Printf("%-15s  %-22s  %-22s\n", "", "CC iterations", "BFS iterations")
	fmt.Printf("%-15s  %-10s %-10s  %-10s %-10s\n", "dataset", "sync", "async", "sync", "async")
	// Thrifty's 1% threshold keeps sparse frontiers on pull sweeps, which
	// are where the unified array lets values chain hops.
	cfg := core.Config{Threshold: core.DefaultThriftyThreshold}
	for _, tc := range graphs {
		ccS := core.DOLP(tc.g, cfg)
		ccA := core.DOLPUnified(tc.g, cfg)
		root := tc.g.MaxDegreeVertex()
		bfS := core.HopDistance(tc.g, root, cfg)
		bfA := core.HopDistanceUnified(tc.g, root, cfg)
		fmt.Printf("%-15s  %-10d %-10d  %-10d %-10d\n",
			tc.name, ccS.Iterations, ccA.Iterations, bfS.Iterations, bfA.Iterations)
	}
	fmt.Println("\nSynchronous sweeps move values one hop per iteration; the unified array")
	fmt.Println("lets a value cross an entire in-order run of vertices in one sweep — the")
	fmt.Println("effect is largest exactly where diameters are large (roads, crawls).")
}
