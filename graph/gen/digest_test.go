package gen

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"thriftylp/graph"
	"thriftylp/internal/parallel"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/digests.golden from the current generators and CSR build")

const digestGolden = "testdata/digests.golden"

func fnvOf(write func(h hash.Hash64)) uint64 {
	h := fnv.New64a()
	write(h)
	return h.Sum64()
}

func edgesDigest(edges []graph.Edge) uint64 {
	return fnvOf(func(h hash.Hash64) { binary.Write(h, binary.LittleEndian, edges) })
}

// csrDigest renders a graph as its size, max-degree vertex (hub) and the
// FNV-64a digests of Offsets and Adjacency, each list hashed in the order
// the build left it.
func csrDigest(g *graph.Graph) string {
	var hub uint32
	if g.NumVertices() > 0 {
		hub = g.MaxDegreeVertex()
	}
	return fmt.Sprintf("n=%d slots=%d hub=%d off=%016x adj=%016x", g.NumVertices(), g.NumDirectedEdges(), hub,
		fnvOf(func(h hash.Hash64) { binary.Write(h, binary.LittleEndian, g.Offsets()) }),
		fnvOf(func(h hash.Hash64) { binary.Write(h, binary.LittleEndian, g.Adjacency()) }))
}

// renderDigests generates every pinned input and renders one line per case:
// raw RMAT edge lists over scale, seed, noise, permutation and edge factor;
// every RMATStream chunk; each generator family's built graph; and
// BuildUndirected under each option on 1-, 2- and 4-thread pools, below
// the parallel cutoff, above it, and above it with histograms too large for
// more than one part.
func renderDigests(t *testing.T) []byte {
	var b bytes.Buffer
	b.WriteString("# case: raw edges as fnv64a, or n, slot count, max-degree vertex (hub) and fnv64a of Offsets and Adjacency\n")

	for _, scale := range []int{0, 4, 10, 16} {
		for _, seed := range []uint64{1, 7, 42} {
			for _, noise := range []float64{0, 0.1} {
				for _, permute := range []bool{false, true} {
					ef := 4
					if scale == 16 {
						ef = 1
					}
					cfg := RMATConfig{Scale: scale, EdgeFactor: ef, A: 0.57, B: 0.19, C: 0.19, Noise: noise, Permute: permute, Seed: seed}
					edges, err := RMATEdges(cfg)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, "rmat-edges scale=%d ef=%d seed=%d noise=%g permute=%t m=%d %016x\n",
						scale, ef, seed, noise, permute, len(edges), edgesDigest(edges))
				}
			}
		}
	}
	for _, cfg := range []RMATConfig{
		{Scale: 10, EdgeFactor: 0, A: 0.57, B: 0.19, C: 0.19, Noise: 0.1, Permute: true, Seed: 3},
		{Scale: 12, EdgeFactor: 5, A: 0.45, B: 0.25, C: 0.15, Noise: 0.05, Permute: true, Seed: 9},
		{Scale: 12, EdgeFactor: 5, A: 0.25, B: 0.25, C: 0.25, Seed: 9},
	} {
		edges, err := RMATEdges(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "rmat-edges %+v m=%d %016x\n", cfg, len(edges), edgesDigest(edges))
	}

	for _, cfg := range []RMATConfig{DefaultRMAT(14, 4, 42), DefaultRMAT(10, 5, 7)} {
		s, err := NewRMATStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ci := 0; ci < s.Chunks(); ci++ {
			var chunk []graph.Edge
			s.Chunk(ci, func(u, v uint32) { chunk = append(chunk, graph.Edge{U: u, V: v}) })
			fmt.Fprintf(&b, "rmat-stream scale=%d ef=%d seed=%d chunk=%d m=%d %016x\n",
				cfg.Scale, cfg.EdgeFactor, cfg.Seed, ci, len(chunk), edgesDigest(chunk))
		}
	}

	gens := []struct {
		name string
		make func() (*graph.Graph, error)
	}{
		{"web", func() (*graph.Graph, error) { return Web(DefaultWeb(12, 5)) }},
		{"web-small", func() (*graph.Graph, error) {
			return Web(WebConfig{CoreScale: 8, CoreEdgeFactor: 8, NumChains: 4, ChainLength: 32, Seed: 9})
		}},
		{"erdos-renyi", func() (*graph.Graph, error) { return ErdosRenyi(1<<12, 1<<14, 3) }},
		{"sbm", func() (*graph.Graph, error) {
			return SBM(SBMConfig{Blocks: 8, BlockSize: 256, IntraDegree: 6, InterEdges: 2, Seed: 4})
		}},
		{"barabasi-albert", func() (*graph.Graph, error) { return BarabasiAlbert(4096, 4, 6) }},
		{"grid", func() (*graph.Graph, error) { return Grid(GridConfig{Rows: 64, Cols: 64, DropFraction: 0.03, Seed: 4}) }},
		{"road", func() (*graph.Graph, error) { return Road(4096, 5) }},
		{"rmat", func() (*graph.Graph, error) { return RMAT(DefaultRMAT(12, 8, 5)) }},
		{"rmat-compact", func() (*graph.Graph, error) { return RMATCompact(DefaultRMAT(12, 8, 5)) }},
	}
	for _, gc := range gens {
		g, err := gc.make()
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", gc.name, csrDigest(g))
	}

	// Build inputs: below the parallel cutoff (one part at any thread
	// count), above it (one part per thread), and above it with a vertex
	// count far beyond the edge count (one part, the histogram memory cap).
	// RMAT's raw edges carry both duplicates and self-loops. No layout
	// depends on the thread count, so every row hashes its lists in build
	// order (canonical=false).
	small, err := RMATEdges(DefaultRMAT(8, 4, 11))
	if err != nil {
		t.Fatal(err)
	}
	large, err := RMATEdges(DefaultRMAT(12, 16, 11))
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name  string
		edges []graph.Edge
		n     int
	}{
		{"small", small, 1 << 8},
		{"large", large, 1 << 12},
		{"sparse", large[:1<<15], 1 << 20},
	}
	opts := []struct {
		name string
		opt  []graph.BuildOption
	}{
		{"none", nil},
		{"sorted", []graph.BuildOption{graph.WithSortedAdjacency()}},
		{"dedup", []graph.BuildOption{graph.WithDedup()}},
		{"noloops", []graph.BuildOption{graph.WithoutSelfLoops()}},
	}
	for _, threads := range []int{1, 2, 4} {
		pool := parallel.NewPool(threads)
		for _, in := range inputs {
			for _, o := range opts {
				g, err := graph.BuildUndirected(in.edges, append([]graph.BuildOption{graph.WithNumVertices(in.n), graph.WithBuildPool(pool)}, o.opt...)...)
				if err != nil {
					t.Fatalf("build %s/%s/%d: %v", in.name, o.name, threads, err)
				}
				fmt.Fprintf(&b, "build %s %s threads=%d canonical=false %s\n", in.name, o.name, threads, csrDigest(g))
			}
		}
		pool.Close()
	}
	return b.Bytes()
}

// TestGeneratorDigestsMatchGolden pins every generator's output and every
// BuildUndirected layout byte for byte. Regenerate with `go test
// ./graph/gen -run TestGeneratorDigestsMatchGolden -update-digests` only
// for a deliberate change of what a generator or the CSR build produces.
func TestGeneratorDigestsMatchGolden(t *testing.T) {
	got := renderDigests(t)
	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(digestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
