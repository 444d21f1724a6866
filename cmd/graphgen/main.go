// Command graphgen generates synthetic graphs and writes them to disk in
// either the text edge-list format or the compact binary CSR format this
// repository uses for large datasets.
//
//	graphgen -gen rmat:22:16 -o twitter-analog.bin
//	graphgen -gen road:4000000 -o road.el
//	graphgen -suite medium -dir datasets/   # materialize the whole analog suite
//
// With -shards, -o names a directory and the graph is written as a sharded
// CSR set (k vertex-range slice files plus a manifest) that thriftycc can
// solve out-of-core. RMAT specs stream straight to the shard files without
// ever materialising the whole edge list or CSR in memory — the path for
// graphs larger than RAM; other specs build in memory first and then shard:
//
//	graphgen -gen rmat:26:16 -shards 16 -o twitter-shards/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/harness"
	"thriftylp/internal/shard"
	"thriftylp/internal/stats"
)

func main() {
	var (
		spec   = flag.String("gen", "", "generator spec (rmat:<scale>[:<ef>], road:<n>, er:<n>[:<m>], web:<scale>, ba:<n>[:<m>], star:<n>, path:<n>)")
		out    = flag.String("o", "", "output path (.bin/.csr = binary CSR, anything else = edge list)")
		seed   = flag.Uint64("seed", 42, "generator seed")
		suite  = flag.String("suite", "", "materialize the whole analog suite at this scale (small/medium/large)")
		dir    = flag.String("dir", "datasets", "output directory for -suite")
		shards = flag.Int("shards", 0, "write a sharded CSR set with this many shards to the -o directory")
	)
	flag.Parse()

	if *suite != "" {
		if err := writeSuite(harness.Scale(*suite), *dir); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *spec == "" || *out == "" {
		fatalf("need -gen and -o (or -suite)")
	}
	sp, err := gen.ParseSpec(*spec)
	if err != nil {
		fatalf("%v", err)
	}
	if *shards > 0 {
		if err := writeShards(sp, *out, *seed, *shards); err != nil {
			fatalf("%v", err)
		}
		return
	}
	g, err := sp.Build(*seed)
	if err != nil {
		fatalf("%v", err)
	}
	start := time.Now()
	if err := writeGraph(*out, g); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %s: %s (in %.3f ms)\n", *out, summarize(g),
		float64(time.Since(start).Nanoseconds())/1e6)
}

// writeShards writes the graph as a sharded CSR set. RMAT specs take the
// streamed generator, which regenerates edge chunks deterministically per
// pass instead of holding an edge list, so peak memory stays at the degree
// array plus one shard's adjacency; everything else builds in memory first.
func writeShards(sp gen.Spec, dir string, seed uint64, k int) error {
	start := time.Now()
	if sp.Family == "rmat" {
		src, err := gen.NewRMATStream(sp.RMAT(seed))
		if err != nil {
			return err
		}
		m, st, err := shard.StreamWrite(src, dir, k)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d vertices, %d directed slots in %d shards (streamed, peak %.1f MB vs %.1f MB edge list, in %.3f ms)\n",
			dir, m.Vertices, st.DirectedSlots, len(m.Shards),
			float64(st.PeakBytes)/1e6, float64(st.EdgeListBytes)/1e6,
			float64(time.Since(start).Nanoseconds())/1e6)
		return nil
	}
	g, err := sp.Build(seed)
	if err != nil {
		return err
	}
	m, err := shard.Write(g, dir, k)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s in %d shards (in %.3f ms)\n", dir, summarize(g),
		len(m.Shards), float64(time.Since(start).Nanoseconds())/1e6)
	return nil
}

// summarize renders the generation summary: size, max degree and the
// degree-skew estimate that tells whether the graph is in the regime the
// Thrifty direction heuristics target.
func summarize(g *graph.Graph) string {
	ds := stats.Degrees(g)
	return fmt.Sprintf("%d vertices, %d edges, max degree %d, skew %.1fx mean (alpha %.2f, power-law %v)",
		g.NumVertices(), g.NumEdges(), ds.Max, ds.SkewRatio, ds.Alpha, stats.IsSkewed(ds))
}

func writeGraph(path string, g *graph.Graph) error {
	if strings.HasSuffix(path, ".bin") || strings.HasSuffix(path, ".csr") {
		return graph.SaveBinary(path, g)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSuite(s harness.Scale, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range harness.Suite(s) {
		g, err := d.Build()
		if err != nil {
			return fmt.Errorf("building %s: %w", d.Name, err)
		}
		path := filepath.Join(dir, d.Name+".bin")
		if err := graph.SaveBinary(path, g); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		ds := stats.Degrees(g)
		fmt.Printf("wrote %-20s %12d vertices %14d edges  max-deg %8d  skew %8.1fx  (analog of %s)\n",
			path, g.NumVertices(), g.NumEdges(), ds.Max, ds.SkewRatio, d.Analog)
	}
	return nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "graphgen: "+format+"\n", args...)
	os.Exit(1)
}
