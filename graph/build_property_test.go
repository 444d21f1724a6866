package graph

import (
	"math/rand"
	"slices"
	"testing"

	"thriftylp/internal/parallel"
)

// referenceCSR is a deliberately naive sequential builder used as the
// property-test oracle: count degrees, prefix-sum, scatter in edge order.
// It mirrors what buildCSRSerial does but shares no code with it.
func referenceCSR(edges []Edge, n int, dropLoops bool) ([]int64, []uint32) {
	deg := make([]int64, n)
	for _, e := range edges {
		if e.U == e.V {
			if !dropLoops {
				deg[e.U]++
			}
			continue
		}
		deg[e.U]++
		deg[e.V]++
	}
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]uint32, offsets[n])
	cur := make([]int64, n)
	copy(cur, offsets[:n])
	for _, e := range edges {
		if e.U == e.V {
			if !dropLoops {
				adj[cur[e.U]] = e.V
				cur[e.U]++
			}
			continue
		}
		adj[cur[e.U]] = e.V
		cur[e.U]++
		adj[cur[e.V]] = e.U
		cur[e.V]++
	}
	return offsets, adj
}

// randomEdges generates an edge list with self-loops, duplicates and sparse
// ids (leaving isolated vertices below n).
func randomEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if rng.Intn(10) == 0 {
			v = u // forced self-loop
		}
		edges[i] = Edge{U: u, V: v}
		if i > 0 && rng.Intn(8) == 0 {
			edges[i] = edges[rng.Intn(i)] // forced duplicate
		}
	}
	return edges
}

// TestBuildStrategiesMatchReference cross-checks all three construction
// strategies against the naive oracle over random inputs: the serial and
// histogram strategies must reproduce the oracle's layout bit-for-bit
// (deterministic scatter order), and the atomic strategy must agree after
// per-vertex sorting (its slot order is scheduling-dependent).
func TestBuildStrategiesMatchReference(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(99))

	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		m := rng.Intn(800)
		edges := randomEdges(rng, n, m)
		dropLoops := trial%2 == 0

		wantOff, wantAdj := referenceCSR(edges, n, dropLoops)

		serOff, serAdj := buildCSRSerial(edges, n, dropLoops)
		if !slices.Equal(serOff, wantOff) || !slices.Equal(serAdj, wantAdj) {
			t.Fatalf("trial %d: serial layout differs from reference", trial)
		}

		histOff, histAdj := buildCSRHistogram(edges, n, dropLoops, pool)
		if !slices.Equal(histOff, wantOff) {
			t.Fatalf("trial %d: histogram offsets differ from reference", trial)
		}
		if !slices.Equal(histAdj, wantAdj) {
			t.Fatalf("trial %d: histogram adjacency not bit-identical to sequential reference", trial)
		}

		atomOff, atomAdj := buildCSRAtomic(edges, n, dropLoops, pool)
		if !slices.Equal(atomOff, wantOff) {
			t.Fatalf("trial %d: atomic offsets differ from reference", trial)
		}
		sortPerVertex := func(off []int64, adj []uint32) []uint32 {
			s := slices.Clone(adj)
			for v := 0; v < n; v++ {
				slices.Sort(s[off[v]:off[v+1]])
			}
			return s
		}
		if !slices.Equal(sortPerVertex(atomOff, atomAdj), sortPerVertex(wantOff, wantAdj)) {
			t.Fatalf("trial %d: atomic adjacency differs from reference as a multiset", trial)
		}
	}
}

// TestBuildUndirectedLegacyEquivalence checks the public entry point: the
// default (histogram/serial) pipeline with its sorting transpose and the
// legacy atomic-cursor strategy with each list comparison-sorted produce
// identical graphs.
func TestBuildUndirectedLegacyEquivalence(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(300)
		edges := randomEdges(rng, n, 100+rng.Intn(2000))

		g1, err := BuildUndirected(edges, WithSortedAdjacency(), WithBuildPool(pool))
		if err != nil {
			t.Fatal(err)
		}
		off, adj := buildCSRAtomic(edges, g1.NumVertices(), false, pool)
		for v := 0; v+1 < len(off); v++ {
			slices.Sort(adj[off[v]:off[v+1]])
		}
		g2 := &Graph{offsets: off, adj: adj}
		g2.computeMaxDegree(pool)
		if !slices.Equal(g1.Offsets(), g2.Offsets()) || !slices.Equal(g1.Adjacency(), g2.Adjacency()) {
			t.Fatalf("trial %d: default and legacy builds disagree", trial)
		}
		if g1.MaxDegreeVertex() != g2.MaxDegreeVertex() {
			t.Fatalf("trial %d: max-degree vertex differs: %d vs %d",
				trial, g1.MaxDegreeVertex(), g2.MaxDegreeVertex())
		}
		if err := g1.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestSortedTransposeMatchesSort checks the counting-sort transpose against
// a comparison sort (and, with dedup, a sort then a drop of repeats) on
// random multigraphs with self-loops, for 1 to 4 source parts: every part
// count must give the reference layout.
func TestSortedTransposeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(400)
		edges := randomEdges(rng, n, rng.Intn(3000))
		off, adj := referenceCSR(edges, n, trial%2 == 0)
		wantAdj := slices.Clone(adj)
		wantDedupOff := make([]int64, n+1)
		var wantDedupAdj []uint32
		for v := 0; v < n; v++ {
			l := wantAdj[off[v]:off[v+1]]
			slices.Sort(l)
			wantDedupAdj = append(wantDedupAdj, slices.Compact(slices.Clone(l))...)
			wantDedupOff[v+1] = int64(len(wantDedupAdj))
		}
		for parts := 1; parts <= 4; parts++ {
			pool := parallel.NewPool(parts)
			gotOff, gotAdj := sortedTranspose(off, adj, false, pool, parts)
			if !slices.Equal(gotOff, off) || !slices.Equal(gotAdj, wantAdj) {
				t.Fatalf("trial %d, %d parts: sorted layout differs from comparison sort", trial, parts)
			}
			gotOff, gotAdj = sortedTranspose(off, adj, true, pool, parts)
			if !slices.Equal(gotOff, wantDedupOff) || !slices.Equal(gotAdj, wantDedupAdj) {
				t.Fatalf("trial %d, %d parts: dedup layout differs from sort then compact", trial, parts)
			}
			pool.Close()
		}
	}
}

// TestBuildHistogramLargeDeterminism forces the histogram path past the
// parallel cutoff and checks determinism across repeated parallel builds
// and against the serial layout.
func TestBuildHistogramLargeDeterminism(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(3))
	n := 5000
	edges := randomEdges(rng, n, parallelBuildCutoff+5000)

	wantOff, wantAdj := buildCSRSerial(edges, n, false)
	for rep := 0; rep < 3; rep++ {
		off, adj := buildCSRHistogram(edges, n, false, pool)
		if !slices.Equal(off, wantOff) || !slices.Equal(adj, wantAdj) {
			t.Fatalf("rep %d: parallel histogram layout differs from serial", rep)
		}
	}
}

func TestHistogramFits(t *testing.T) {
	if !histogramFits(4, 1000, 100000) {
		t.Errorf("dense small graph should fit")
	}
	if histogramFits(4, 1<<28, 100) {
		t.Errorf("histograms 4x of a huge vertex set over 100 edges should not fit")
	}
	if histogramFits(2, 10, 1<<30) {
		t.Errorf("edge counts at the int32 cursor limit should not fit")
	}
}

// TestParseEdgeListShardedLineNumbers pins that a parse error deep in a
// later shard still reports its file-global line number.
func TestParseEdgeListShardedLineNumbers(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()

	var data []byte
	// Enough lines to exceed parseParallelCutoff and spread over shards.
	line := 0
	for len(data) < parseParallelCutoff*2 {
		line++
		data = append(data, []byte("7 8\n")...)
	}
	badLine := line + 1
	data = append(data, []byte("oops not numbers\n")...)

	_, err := parseEdgeList(data, pool)
	if err == nil {
		t.Fatal("malformed tail line accepted")
	}
	want := "line " + itoa(badLine)
	if !containsStr(err.Error(), want) {
		t.Fatalf("error %q does not carry global %q", err, want)
	}

	// And a clean parse of the same prefix agrees with the sequential path.
	clean := data[:len(data)-len("oops not numbers\n")]
	seq, perr := parseEdgeChunk(clean, nil)
	if perr != nil {
		t.Fatal(perr.msg)
	}
	par, err := parseEdgeList(clean, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seq, par) {
		t.Fatal("sharded parse differs from sequential parse")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
