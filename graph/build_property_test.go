package graph

import (
	"math/rand"
	"slices"
	"testing"

	"thriftylp/internal/parallel"
)

// referenceCSR is a deliberately naive sequential builder used as the
// property-test oracle: count degrees, prefix-sum, scatter in edge order.
// It shares no code with countingSort.
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

// TestBuildCSRPartsMatchReference checks the counting-sort build against the
// naive oracle over random multigraphs, with and without self-loops, for 1
// to 4 edge shards on a 4-thread pool: every part count must reproduce the
// oracle's layout bit for bit.
func TestBuildCSRPartsMatchReference(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(99))

	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		m := rng.Intn(800)
		edges := randomEdges(rng, n, m)
		dropLoops := trial%2 == 0

		wantOff, wantAdj := referenceCSR(edges, n, dropLoops)
		for parts := 1; parts <= 4; parts++ {
			off, adj := buildCSR(pool, edges, n, parts, dropLoops)
			if !slices.Equal(off, wantOff) || !slices.Equal(adj, wantAdj) {
				t.Fatalf("trial %d, %d parts: layout differs from reference", trial, parts)
			}
		}
	}
}

// TestBuildUndirectedMatchesReference checks the public entry point above
// parallelBuildCutoff, where the build and the sorting transpose split into
// one part per thread, on 1-, 2- and 4-thread pools: edge-order lists equal
// the oracle's, sorted lists equal the oracle's sorted per list, dedup
// equals sort then compact, and every build repeats exactly, keeps the
// smallest vertex of largest degree as its hub, and validates.
func TestBuildUndirectedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 5000
	edges := randomEdges(rng, n, parallelBuildCutoff+5000)

	refOff, refAdj := referenceCSR(edges, n, false)
	noLoopOff, noLoopAdj := referenceCSR(edges, n, true)
	sortedAdj := slices.Clone(refAdj)
	dedupOff := make([]int64, n+1)
	var dedupAdj []uint32
	for v := 0; v < n; v++ {
		l := sortedAdj[refOff[v]:refOff[v+1]]
		slices.Sort(l)
		dedupAdj = append(dedupAdj, slices.Compact(slices.Clone(l))...)
		dedupOff[v+1] = int64(len(dedupAdj))
	}
	cases := []struct {
		name string
		opts []BuildOption
		off  []int64
		adj  []uint32
	}{
		{"none", nil, refOff, refAdj},
		{"noloops", []BuildOption{WithoutSelfLoops()}, noLoopOff, noLoopAdj},
		{"sorted", []BuildOption{WithSortedAdjacency()}, refOff, sortedAdj},
		{"dedup", []BuildOption{WithDedup()}, dedupOff, dedupAdj},
	}
	for _, threads := range []int{1, 2, 4} {
		if parts := countParts(threads, n, len(edges)); parts != threads {
			t.Fatalf("%d threads: countParts = %d, want one part per thread", threads, parts)
		}
		pool := parallel.NewPool(threads)
		for _, c := range cases {
			var hub uint32
			for v := range uint32(n) {
				if c.off[v+1]-c.off[v] > c.off[hub+1]-c.off[hub] {
					hub = v
				}
			}
			for rep := 0; rep < 2; rep++ {
				g, err := BuildUndirected(edges, append([]BuildOption{WithNumVertices(n), WithBuildPool(pool)}, c.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(g.Offsets(), c.off) || !slices.Equal(g.Adjacency(), c.adj) {
					t.Fatalf("%s, %d threads, rep %d: layout differs from reference", c.name, threads, rep)
				}
				if g.MaxDegreeVertex() != hub {
					t.Fatalf("%s, %d threads: max-degree vertex %d, want %d", c.name, threads, g.MaxDegreeVertex(), hub)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("%s, %d threads: %v", c.name, threads, err)
				}
			}
		}
		pool.Close()
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

// TestCountParts pins the part count of a counting sort: one part below
// parallelBuildCutoff whatever the pool, one per thread above it, and
// fewer when parts×n histogram entries would exceed 8m + 2^20.
func TestCountParts(t *testing.T) {
	const m = parallelBuildCutoff
	for _, c := range []struct {
		threads, n, m, want int
	}{
		{4, 1000, m - 1, 1},          // below the cutoff
		{4, 1000, m, 4},              // at the cutoff: one part per thread
		{1, 1000, 100000, 1},         // one thread
		{2, 1000, 100000, 2},         // thread cap
		{4, 0, m, 4},                 // no vertices, no histogram memory
		{4, 8*m + 1<<20, m, 1},       // memory cap: one histogram fits
		{4, (8*m + 1<<20) / 2, m, 2}, // memory cap: two fit
		{4, 1 << 28, m, 1},           // memory cap: not even one fits
		{8, 1 << 22, 1 << 18, 1},     // n ≫ m, as in BenchmarkBuildUndirected/sparse
	} {
		if got := countParts(c.threads, c.n, c.m); got != c.want {
			t.Errorf("countParts(%d, %d, %d) = %d, want %d", c.threads, c.n, c.m, got, c.want)
		}
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
