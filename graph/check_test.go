package graph

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"thriftylp/internal/parallel"
)

// refIDsBelow is the scalar reference for idsBelow.
func refIDsBelow(ids []uint32, n int) bool {
	for _, u := range ids {
		if int(u) >= n {
			return false
		}
	}
	return true
}

// TestIDsBelowEdges runs the word-wide check against the scalar reference
// at the lane edges: n = 0, 1, 2, 2^31 - 1, 2^31 and above it, each with ids
// at n - 1, n, 2^⌈log₂n⌉ - 1, 2^31 - 1, 2^31 and 2^32 - 1, in every position
// of odd and even lengths, and on sub-slices that start at an odd index,
// so the word view is unaligned (checkptr, under -race, checks the peel).
func TestIDsBelowEdges(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 1000, 1<<31 - 1, 1 << 31, 1<<31 + 1, math.MaxUint32} {
		pow := 1
		for pow < n {
			pow <<= 1
		}
		probes := []uint32{0, 1 << 31, math.MaxUint32, 1<<31 - 1, uint32(pow - 1)}
		if n > 0 {
			probes = append(probes, uint32(n-1))
		}
		if n < math.MaxUint32 {
			probes = append(probes, uint32(n))
		}
		for _, length := range []int{0, 1, 2, 3, 4, 7, 8, 9} {
			backing := make([]uint32, length+2)
			for skip := 0; skip < 2; skip++ {
				ids := backing[skip : skip+length]
				if got, want := idsBelow(ids, n), refIDsBelow(ids, n); got != want {
					t.Fatalf("n=%d len=%d skip=%d zeros: idsBelow = %v, want %v", n, length, skip, got, want)
				}
				for pos := range ids {
					for _, p := range probes {
						ids[pos] = p
						if got, want := idsBelow(ids, n), refIDsBelow(ids, n); got != want {
							t.Fatalf("n=%d len=%d skip=%d ids[%d]=%d: idsBelow = %v, want %v", n, length, skip, pos, p, got, want)
						}
						ids[pos] = 0
					}
				}
			}
		}
	}
}

// TestIDsBelowQuick compares the word-wide check with the scalar reference
// on random ids against random bounds, at both alignments.
func TestIDsBelowQuick(t *testing.T) {
	f := func(ids []uint32, n uint32, skip bool) bool {
		if skip && len(ids) > 0 {
			ids = ids[1:]
		}
		bound := int(n >> (n % 32)) // spread the bounds over every magnitude
		return idsBelow(ids, bound) == refIDsBelow(ids, bound)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckerFirstOffenderAcrossChunks plants violations in several 64 Ki
// chunks of the adjacency and of the offsets, on 1- and 4-thread pools:
// the smallest index must win, with the frozen message. Each array is
// checked once just below checkParallelBytes, on the caller, and once just
// above it, on the pool; both lengths are odd, so the last chunk ends on a
// lone id.
func TestCheckerFirstOffenderAcrossChunks(t *testing.T) {
	const n = 5
	for _, tc := range []struct{ threads, m, nv int }{
		{1, checkParallelBytes/4 - 1, checkParallelBytes/8 - 1},
		{4, checkParallelBytes/4 - 1, checkParallelBytes/8 - 1},
		{1, checkParallelBytes/4 + 7, checkParallelBytes/8 + 3},
		{4, checkParallelBytes/4 + 7, checkParallelBytes/8 + 3},
	} {
		threads, m := tc.threads, tc.m
		pool := parallel.NewPool(threads)
		for _, bad := range [][]int{
			{m - 1},
			{7*checkGrain + 3, checkGrain + 1, m - 1},
			{checkGrain, 6 * checkGrain},
			{0, checkGrain + 9},
		} {
			adj := make([]uint32, m)
			for _, i := range bad {
				adj[i] = n + uint32(i%3)
			}
			g := &Graph{offsets: []int64{0, 0, 0, 0, 0, int64(m)}, adj: adj}
			first := slicesMin(bad)
			want := fmt.Sprintf("graph: adjacency slot %d references vertex %d out of range [0,%d)", first, adj[first], n)
			if _, err := g.validateStructure(pool); err == nil || err.Error() != want {
				t.Errorf("threads=%d m=%d bad=%v: got %v, want %q", threads, m, bad, err, want)
			}
			if got := firstOutOfRange(pool, adj[1:], n); got != firstAtOrAfter(bad, 1)-1 {
				t.Errorf("threads=%d m=%d bad=%v: unaligned firstOutOfRange = %d", threads, m, bad, got)
			}
		}
		for _, dips := range [][]int{
			{3*checkGrain + 1, checkGrain + 4},
			{3 * checkGrain},
			{0},
		} {
			nv := tc.nv
			offsets := make([]int64, nv+1)
			for v := 1; v <= nv; v++ {
				offsets[v] = offsets[v-1] + 2
			}
			for _, v := range dips {
				offsets[v+1] = offsets[v] - 1
			}
			g := &Graph{offsets: offsets}
			want := fmt.Sprintf("graph: offsets not monotone at vertex %d", slicesMin(dips))
			if _, err := g.validateStructure(pool); err == nil || err.Error() != want {
				t.Errorf("threads=%d nv=%d dips=%v: got %v, want %q", threads, tc.nv, dips, err, want)
			}
		}
		pool.Close()
	}
}

func slicesMin(xs []int) int {
	best := xs[0]
	for _, x := range xs[1:] {
		best = min(best, x)
	}
	return best
}

// firstAtOrAfter returns the smallest x in xs with x >= lo.
func firstAtOrAfter(xs []int, lo int) int {
	best := math.MaxInt
	for _, x := range xs {
		if x >= lo {
			best = min(best, x)
		}
	}
	return best
}

// TestScanOffsetsDeterministicTies pins the argmax tie-break to the
// smallest id, within a chunk and across chunks, whatever the pool size.
// It carries the tie checks of the deleted parallel.MaxIndex.
func TestScanOffsetsDeterministicTies(t *testing.T) {
	fromDegrees := func(deg []int64) []int64 {
		offsets := make([]int64, len(deg)+1)
		for v, d := range deg {
			offsets[v+1] = offsets[v] + d
		}
		return offsets
	}
	big := make([]int64, checkParallelBytes/8+5)
	for v := range big {
		big[v] = int64(v % 7)
	}
	big[2*checkGrain+11] = 50
	big[checkGrain+13] = 50
	big[3*checkGrain+1] = 50
	for _, tc := range []struct {
		deg     []int64
		wantHub int
	}{
		{[]int64{3, 9, 2, 9, 9, 1}, 1},
		{[]int64{7}, 0},
		{[]int64{0, 0, 0}, 0},
		{big, checkGrain + 13},
	} {
		for _, threads := range []int{1, 2, 4} {
			pool := parallel.NewPool(threads)
			bad, hub, maxDeg := scanOffsets(pool, fromDegrees(tc.deg))
			pool.Close()
			if bad != -1 || hub != tc.wantHub || maxDeg != tc.deg[tc.wantHub] {
				t.Errorf("len=%d threads=%d: scanOffsets = (%d, %d, %d), want (-1, %d, %d)",
					len(tc.deg), threads, bad, hub, maxDeg, tc.wantHub, tc.deg[tc.wantHub])
			}
		}
	}
	if bad, hub, maxDeg := scanOffsets(parallel.Default(), []int64{0}); bad != -1 || hub != 0 || maxDeg != 0 {
		t.Errorf("no vertices: scanOffsets = (%d, %d, %d), want (-1, 0, 0)", bad, hub, maxDeg)
	}
}

// TestScanOffsetsNegativeOffsets covers dips whose degrees wrap past the
// int64 range, so every next - prev is positive: the fast path must still
// send the chunk to the exact compare. The first case is a FuzzLoadBinary
// input the mapped load once accepted.
func TestScanOffsetsNegativeOffsets(t *testing.T) {
	for _, tc := range []struct {
		offsets []int64
		wantBad int
	}{
		{[]int64{0, 1, 3, math.MinInt64 + 2, 0, 5}, 2},
		{[]int64{0, math.MaxInt64, math.MinInt64 + 4, 0, 5}, 1},
	} {
		if bad, _, _ := scanOffsets(parallel.Default(), tc.offsets); bad != tc.wantBad {
			t.Errorf("%v: bad = %d, want %d", tc.offsets, bad, tc.wantBad)
		}
		g := &Graph{offsets: tc.offsets, adj: make([]uint32, 5)}
		want := fmt.Sprintf("graph: offsets not monotone at vertex %d", tc.wantBad)
		if _, err := g.validateStructure(parallel.Default()); err == nil || err.Error() != want {
			t.Errorf("%v: validateStructure = %v, want %q", tc.offsets, err, want)
		}
	}
}

// TestScanOffsetsQuick compares scanOffsets with a sequential scan on
// random degree sequences, some with dips (negative degrees).
func TestScanOffsetsQuick(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	f := func(deg []int16) bool {
		offsets := make([]int64, len(deg)+1)
		wantBad, wantHub := -1, 0
		for v, d := range deg {
			offsets[v+1] = offsets[v] + int64(d)
			if d < 0 && wantBad < 0 {
				wantBad = v
			}
			if d > deg[wantHub] {
				wantHub = v
			}
		}
		bad, hub, _ := scanOffsets(pool, offsets)
		return bad == wantBad && (wantBad >= 0 || hub == wantHub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxDegreeVertexTieBreakEveryPath builds a graph whose two hubs tie
// and checks that every constructor reports the smaller id: the build,
// FromCSR, the mapped load, Relabel, InducedSubgraph and RemoveIsolated.
func TestMaxDegreeVertexTieBreakEveryPath(t *testing.T) {
	// Vertices 2 and 5 both have degree 3; vertex 7 is isolated.
	g := mustBuild(t, []Edge{{2, 0}, {2, 1}, {2, 3}, {5, 4}, {5, 6}, {5, 3}}, WithNumVertices(8))
	check := func(path string, h *Graph, want uint32) {
		t.Helper()
		if got := h.MaxDegreeVertex(); got != want {
			t.Errorf("%s: MaxDegreeVertex = %d, want %d", path, got, want)
		}
	}
	check("build", g, 2)
	fg, err := FromCSR(g.Offsets(), g.Adjacency())
	if err != nil {
		t.Fatal(err)
	}
	check("FromCSR", fg, 2)

	file := filepath.Join(t.TempDir(), "tie.bin")
	if err := SaveBinary(file, g); err != nil {
		t.Fatal(err)
	}
	lg, err := LoadBinary(file)
	if err != nil {
		t.Fatal(err)
	}
	check("LoadBinary", lg, 2)
	lg.Close()

	// Relabel swaps the hubs' order: 5 becomes 1 and 2 becomes 6.
	perm := []uint32{0, 2, 6, 3, 4, 1, 5, 7}
	rg, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	check("Relabel", rg, 1)

	sg, _, err := InducedSubgraph(g, []uint32{6, 5, 4, 3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	check("InducedSubgraph", sg, 2)

	ig, _ := RemoveIsolated(g)
	check("RemoveIsolated", ig, 2)
}

// TestLoadBinaryMaxDegreeVertexMatchesBuild checks the mapped load's hub on
// random graphs spanning several checker chunks.
func TestLoadBinaryMaxDegreeVertexMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	for i, n := range []int{3, 1000, checkParallelBytes/8 + 17} {
		edges := make([]Edge, 2*n)
		for j := range edges {
			// Squaring skews the ids low, so degrees tie near the top.
			r := rng.Float64()
			edges[j] = Edge{U: uint32(r * r * float64(n)), V: uint32(rng.Intn(n))}
		}
		g := mustBuild(t, edges, WithNumVertices(n))
		file := filepath.Join(dir, fmt.Sprintf("g%d.bin", i))
		if err := SaveBinary(file, g); err != nil {
			t.Fatal(err)
		}
		lg, err := LoadBinary(file)
		if err != nil {
			t.Fatal(err)
		}
		if lg.MaxDegreeVertex() != g.MaxDegreeVertex() {
			t.Errorf("n=%d: mapped hub %d, built hub %d", n, lg.MaxDegreeVertex(), g.MaxDegreeVertex())
		}
		lg.Close()
	}
}
