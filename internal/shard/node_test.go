package shard

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/afforest"
	"thriftylp/internal/core"
	"thriftylp/internal/parallel"
)

// destTargets is one component's boundary targets inside one destination
// shard, sorted ascending: the shape the oracle builds.
type destTargets struct {
	dest    int
	targets []uint32
}

// boundaryView maps the node's compact entry lists back to the oracle's
// per-component, per-destination shape: each component's indices, sorted,
// are cut at the destStart boundaries and mapped through the target index
// to global ids. Emit relies on exactly that index order and those cuts.
func boundaryView(n *Node) [][]destTargets {
	out := make([][]destTargets, len(n.label))
	for r := 0; r+1 < len(n.compOff); r++ {
		idx := slices.Clone(n.entries[n.compOff[r]:n.compOff[r+1]])
		slices.Sort(idx)
		d := 0
		for i := 0; i < len(idx); {
			for int(idx[i]) >= n.destStart[d+1] {
				d++
			}
			var ids []uint32
			for ; i < len(idx) && int(idx[i]) < n.destStart[d+1]; i++ {
				ids = append(ids, n.targets[idx[i]])
			}
			out[r] = append(out[r], destTargets{dest: d, targets: ids})
		}
	}
	return out
}

// oracleBoundary is the original boundary build, kept as the reference the
// linear build is pinned to: every cut slot becomes a (rep, dest, target)
// triple, the triples are sorted, and each (rep, dest) run is deduplicated.
// rep holds dense component indices below comps.
func oracleBoundary(s *graph.CSRSlice, rep []uint32, comps int, ranges []parallel.Range) (out [][]destTargets, entries int64) {
	type triple struct {
		rep    uint32
		dest   int32
		target uint32
	}
	var ts []triple
	for v := 0; v < s.NumLocal(); v++ {
		for _, u := range s.Adj[s.Offsets[v]:s.Offsets[v+1]] {
			if u < s.Lo || u >= s.Hi {
				ts = append(ts, triple{rep: rep[v], dest: int32(OwnerOf(ranges, u)), target: u})
			}
		}
	}
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.rep != b.rep {
			return a.rep < b.rep
		}
		if a.dest != b.dest {
			return a.dest < b.dest
		}
		return a.target < b.target
	})
	out = make([][]destTargets, comps)
	for i := 0; i < len(ts); {
		j := i
		for j < len(ts) && ts[j].rep == ts[i].rep && ts[j].dest == ts[i].dest {
			j++
		}
		var targets []uint32
		for k := i; k < j; k++ {
			if len(targets) == 0 || targets[len(targets)-1] != ts[k].target {
				targets = append(targets, ts[k].target)
			}
		}
		r := ts[i].rep
		out[r] = append(out[r], destTargets{dest: int(ts[i].dest), targets: targets})
		entries += int64(len(targets))
		i = j
	}
	return out, entries
}

// checkRep requires n.rep to equal core.SeqCC on the interior subgraph of
// s — both endpoints inside [Lo, Hi), ids rebased to local — rebuilt here
// from the slice. SeqCC labels each vertex with its component's smallest
// id; renumbering those labels 0, 1, ... in order of first appearance is a
// bijection of the same partition onto exactly the dense index the collapse
// promises, so the comparison is as strict as before the renumbering.
func checkRep(s *graph.CSRSlice, n *Node) error {
	local := s.NumLocal()
	offsets := make([]int64, local+1)
	var adj []uint32
	for v := 0; v < local; v++ {
		for _, u := range s.Adj[s.Offsets[v]:s.Offsets[v+1]] {
			if u >= s.Lo && u < s.Hi {
				adj = append(adj, u-s.Lo)
			}
		}
		offsets[v+1] = int64(len(adj))
	}
	ig, err := graph.FromCSR(offsets, adj)
	if err != nil {
		return fmt.Errorf("[%d,%d): interior subgraph: %v", s.Lo, s.Hi, err)
	}
	want := core.SeqCC(ig)
	var comps uint32
	for v, m := range want {
		if m == uint32(v) {
			want[v] = comps
			comps++
		} else {
			want[v] = want[m]
		}
	}
	if len(n.rep) != len(want) {
		return fmt.Errorf("[%d,%d): %d representatives, want %d", s.Lo, s.Hi, len(n.rep), len(want))
	}
	for v := range want {
		if n.rep[v] != want[v] {
			return fmt.Errorf("[%d,%d): rep[%d] = %d, SeqCC renumbered says %d", s.Lo, s.Hi, v, n.rep[v], want[v])
		}
	}
	if len(n.label) != int(comps) {
		return fmt.Errorf("[%d,%d): %d components, SeqCC says %d", s.Lo, s.Hi, len(n.label), comps)
	}
	return nil
}

// checkAgainstOracle builds the node for slice s and requires its
// representatives to equal the SeqCC oracle's and its boundary lists and
// entry count to equal the triple-sort oracle's exactly.
func checkAgainstOracle(t *testing.T, s *graph.CSRSlice, ranges []parallel.Range, hub uint32) *Node {
	t.Helper()
	n := NewNode(0, s, ranges, hub)
	if err := checkRep(s, n); err != nil {
		t.Fatal(err)
	}
	want, entries := oracleBoundary(s, n.rep, len(n.label), ranges)
	if n.BoundaryEntries != entries {
		t.Fatalf("[%d,%d): BoundaryEntries %d, oracle %d", s.Lo, s.Hi, n.BoundaryEntries, entries)
	}
	got := boundaryView(n)
	if len(got) != len(want) {
		t.Fatalf("[%d,%d): %d component slots, oracle %d", s.Lo, s.Hi, len(got), len(want))
	}
	var distinct []uint32
	for r := range want {
		if err := sameDestTargets(got[r], want[r]); err != nil {
			t.Fatalf("[%d,%d) component %d: %v", s.Lo, s.Hi, r, err)
		}
		for _, dt := range want[r] {
			distinct = append(distinct, dt.targets...)
		}
	}
	slices.Sort(distinct)
	if distinct = slices.Compact(distinct); !slices.Equal(n.targets, distinct) {
		t.Fatalf("[%d,%d): target index %v, oracle's distinct targets %v", s.Lo, s.Hi, n.targets, distinct)
	}
	return n
}

func sameDestTargets(got, want []destTargets) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d destinations, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i].dest != want[i].dest {
			return fmt.Errorf("list %d: dest %d, oracle %d", i, got[i].dest, want[i].dest)
		}
		if !slices.Equal(got[i].targets, want[i].targets) {
			return fmt.Errorf("dest %d: targets %v, oracle %v", want[i].dest, got[i].targets, want[i].targets)
		}
	}
	return nil
}

// TestBoundaryMatchesOracleFamilies pins the linear boundary build to the
// triple-sort oracle on all ten generator families at 1, 2, 4 and 8 shards.
func TestBoundaryMatchesOracleFamilies(t *testing.T) {
	families := map[string]*graph.Graph{
		"rmat":         mustGraph(gen.RMAT(gen.DefaultRMAT(11, 8, 42))),
		"rmat-compact": mustGraph(gen.RMATCompact(gen.DefaultRMAT(11, 8, 42))),
		"web":          mustGraph(gen.Web(gen.DefaultWeb(10, 42))),
		"road":         mustGraph(gen.Grid(gen.GridConfig{Rows: 48, Cols: 48, DropFraction: 0.05, Seed: 42})),
		"er":           mustGraph(gen.ErdosRenyi(1<<11, 1<<13, 42)),
		"ba":           mustGraph(gen.BarabasiAlbert(3_000, 3, 42)),
		"star":         mustGraph(gen.Star(4_000)),
		"path":         mustGraph(gen.Path(4_000)),
		"cliques":      mustGraph(gen.Components(12, 20)),
		"complete":     mustGraph(gen.Complete(120)),
	}
	for name, g := range families {
		t.Run(name, func(t *testing.T) {
			for _, k := range []int{1, 2, 4, 8} {
				gs := NewGraphSource(g, k)
				for i := 0; i < gs.Shards(); i++ {
					sl, err := gs.Slice(i)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstOracle(t, sl, gs.Ranges(), gs.Hub())
				}
			}
		})
	}
}

// TestBoundaryMatchesOracleEdgeCases covers what the generators do not
// produce: duplicate neighbours (a multi-edge, and two vertices of one
// component sharing a target), self-loops on both sides of the cut,
// isolated vertices, an empty shard range, and one component whose
// targets span three destination shards.
func TestBoundaryMatchesOracleEdgeCases(t *testing.T) {
	// Shards: [0,4) [4,4) [4,6) [6,9) [9,12).
	ranges := []parallel.Range{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 4}, {Lo: 4, Hi: 6}, {Lo: 6, Hi: 9}, {Lo: 9, Hi: 12}}
	edges := [][2]uint32{
		{0, 1}, {1, 2}, {0, 0}, // component {0,1,2} with a self-loop; 3 isolated
		{0, 5}, {0, 5}, {1, 5}, // target 5 twice from 0 and once from 1
		{2, 6}, {0, 7}, // into [6,9)
		{2, 9}, {1, 10}, {2, 11}, // into [9,12)
		{4, 5}, {6, 7}, {7, 7}, {9, 10}, // remote structure; 8 isolated
	}
	g := mustGraph(csrFromEdges(12, edges))
	hub := g.MaxDegreeVertex()
	for i, r := range ranges {
		sl, err := graph.SliceFromGraph(g, r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		n := checkAgainstOracle(t, sl, ranges, hub)
		if i != 0 {
			continue
		}
		if got := len(boundaryView(n)[n.rep[0]]); got != 3 {
			t.Fatalf("component of vertex 0 spans %d destinations, want 3", got)
		}
		if n.BoundaryEntries != 6 {
			t.Fatalf("shard 0 has %d boundary entries, want 6 (targets 5,6,7,9,10,11)", n.BoundaryEntries)
		}
	}
}

// TestRepMatchesSeqCCEdgeCases pins the collapse on what stresses a
// union-find rather than the boundary build: self-loops, duplicate edges,
// isolated vertices, an empty shard, a chain whose ids descend along the
// path, and a chain whose ids jump about so that, after the last link,
// some of its vertices sit up to four links below their root: only the
// final flattening pass lands those on their component's smallest id.
func TestRepMatchesSeqCCEdgeCases(t *testing.T) {
	const n = 32
	var edges [][2]uint32
	// A chain 19-18-...-0 listed from its high end, with a self-loop and a
	// duplicate link in the middle.
	for v := uint32(19); v > 0; v-- {
		edges = append(edges, [2]uint32{v, v - 1})
	}
	edges = append(edges, [2]uint32{7, 7}, [2]uint32{12, 11}, [2]uint32{11, 12})
	// The deep chain; 30 and 31 stay isolated.
	deep := []uint32{24, 23, 25, 22, 28, 26, 21, 27, 29, 20}
	for i := 1; i < len(deep); i++ {
		edges = append(edges, [2]uint32{deep[i-1], deep[i]})
	}
	g := mustGraph(csrFromEdges(n, edges))
	for _, k := range []int{1, 2, 3, 5} {
		ranges := parallel.PartitionEdges(g.Offsets(), k)
		// An empty range in front of the first shard.
		ranges = append([]parallel.Range{{Lo: 0, Hi: 0}}, ranges...)
		for _, r := range ranges {
			sl, err := graph.SliceFromGraph(g, r.Lo, r.Hi)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, sl, ranges, g.MaxDegreeVertex())
		}
	}
}

// collapseFixture is one local shard [0, local) of a graph whose remaining
// vertices form a second shard, built edge by edge so that each row lists
// its neighbours in edge order.
type collapseFixture struct {
	name  string
	local uint32
	total int
	edges [][2]uint32
}

// collapseFixtures stresses the sampled collapse where a union-find over
// row prefixes goes wrong:
//
//   - leading-cut: every local row opens with two cut slots, then two
//     rings; linking row positions 0 and 1 would link nothing;
//   - split-giant: a ring of 8 and a ring of 40 joined only by edges past
//     each row's second interior slot, so the head links leave two trees
//     and the sampler picks the larger ring's root, 8, which the finish
//     step hooks under 0: the sampled root is not the final giant's;
//   - no-interior: every edge crosses the cut, so every vertex is its own
//     component.
func collapseFixtures() []collapseFixture {
	const remote = 4
	ring := func(edges [][2]uint32, lo, hi uint32) [][2]uint32 {
		for v := lo; v < hi; v++ {
			w := v + 1
			if w == hi {
				w = lo
			}
			edges = append(edges, [2]uint32{v, w})
		}
		return edges
	}
	lead := func(local uint32, per int) [][2]uint32 {
		var edges [][2]uint32
		for v := uint32(0); v < local; v++ {
			for i := 0; i < per; i++ {
				edges = append(edges, [2]uint32{v, local + (v+uint32(i))%remote})
			}
		}
		return edges
	}
	leading := ring(ring(lead(30, 2), 0, 12), 12, 30)
	split := ring(ring(lead(48, 1), 0, 8), 8, 48)
	split = append(split, [2]uint32{1, 20}, [2]uint32{5, 44}, [2]uint32{7, 9})
	return []collapseFixture{
		{name: "leading-cut", local: 30, total: 30 + remote, edges: leading},
		{name: "split-giant", local: 48, total: 48 + remote, edges: split},
		{name: "no-interior", local: 20, total: 20 + remote, edges: lead(20, 3)},
	}
}

// slice builds the fixture's graph and returns its local shard and the
// two-shard ranges.
func (f collapseFixture) slice(t *testing.T) (*graph.CSRSlice, []parallel.Range, uint32) {
	t.Helper()
	g := mustGraph(csrFromEdges(f.total, f.edges))
	ranges := []parallel.Range{{Lo: 0, Hi: f.local}, {Lo: f.local, Hi: uint32(f.total)}}
	sl, err := graph.SliceFromGraph(g, 0, f.local)
	if err != nil {
		t.Fatal(err)
	}
	return sl, ranges, g.MaxDegreeVertex()
}

// roots returns the distinct roots of a flat forest.
func roots(comp []uint32) []uint32 {
	rs := slices.Clone(comp)
	slices.Sort(rs)
	return slices.Compact(rs)
}

// TestCollapseFixtures pins rep and the boundary on the collapse fixtures,
// and what each one is built to exercise: the head links scan past cut
// slots, the sampled root loses its rootship in the finish step, and a
// shard without interior edges keeps one component per vertex.
func TestCollapseFixtures(t *testing.T) {
	for _, f := range collapseFixtures() {
		t.Run(f.name, func(t *testing.T) {
			sl, ranges, hub := f.slice(t)
			n := checkAgainstOracle(t, sl, ranges, hub)
			head := linkHeads(sl)
			flatten(head)
			switch f.name {
			case "leading-cut":
				if got := roots(head); !slices.Equal(got, []uint32{0, 12}) {
					t.Fatalf("head-link roots %v, want [0 12]: the head links must pass the cut slots", got)
				}
			case "split-giant":
				if got := roots(head); !slices.Equal(got, []uint32{0, 8}) {
					t.Fatalf("head-link roots %v, want [0 8]", got)
				}
				if got := afforest.FrequentRoot(head); got != 8 {
					t.Fatalf("sampled root %d, want 8 (the larger ring)", got)
				}
				if len(n.label) != 1 {
					t.Fatalf("%d components, want 1", len(n.label))
				}
			case "no-interior":
				if len(n.label) != int(f.local) {
					t.Fatalf("%d components, want %d singletons", len(n.label), f.local)
				}
			}
		})
	}
}

// TestFinishIsExactForEveryRoot runs the finish step from the same head
// forest with every local vertex as the skipped root — roots, non-roots,
// the giant's and a singleton's — and requires the rep the sampled root
// gives: the sampler may only change how many rows are scanned.
func TestFinishIsExactForEveryRoot(t *testing.T) {
	var shards []*graph.CSRSlice
	for _, f := range collapseFixtures() {
		sl, _, _ := f.slice(t)
		shards = append(shards, sl)
	}
	for _, g := range []*graph.Graph{
		mustGraph(gen.RMATCompact(gen.DefaultRMAT(9, 8, 42))),
		mustGraph(gen.Web(gen.DefaultWeb(8, 42))),
		mustGraph(gen.Components(6, 10)),
	} {
		gs := NewGraphSource(g, 2)
		for i := 0; i < gs.Shards(); i++ {
			sl, err := gs.Slice(i)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, sl)
		}
	}
	for _, sl := range shards {
		want, comps := collapse(sl)
		head := linkHeads(sl)
		flatten(head)
		for root := uint32(0); root < uint32(len(head)); root++ {
			comp := slices.Clone(head)
			finish(sl, comp, root)
			if got := number(comp); got != comps || !slices.Equal(comp, want) {
				t.Fatalf("[%d,%d) root %d: %d components, rep differs from the sampled root's (%d components)",
					sl.Lo, sl.Hi, root, got, comps)
			}
		}
	}
}

// csrFromEdges builds a symmetric CSR that keeps duplicate edges and
// self-loops (a self-loop occupies one slot); graph.BuildUndirected would
// normalize both away.
func csrFromEdges(n int, edges [][2]uint32) (*graph.Graph, error) {
	rows := make([][]uint32, n)
	for _, e := range edges {
		rows[e[0]] = append(rows[e[0]], e[1])
		if e[0] != e[1] {
			rows[e[1]] = append(rows[e[1]], e[0])
		}
	}
	offsets := make([]int64, n+1)
	var adj []uint32
	for v, row := range rows {
		adj = append(adj, row...)
		offsets[v+1] = int64(len(adj))
	}
	return graph.FromCSR(offsets, adj)
}

// BenchmarkNewNode measures the sharded path's collapse phase — every
// shard's sampled union-find collapse and boundary build — on a compacted RMAT graph
// cut into two in-memory shards, without the file I/O or the exchange:
// rmat14 is the shard-social graph, rmat18 a shard too large for the cache.
func BenchmarkNewNode(b *testing.B) {
	for _, scale := range []int{14, 18} {
		var parts []*graph.CSRSlice
		var ranges []parallel.Range
		var hub uint32
		b.Run(fmt.Sprintf("rmat%d", scale), func(b *testing.B) {
			// b.Run calls this once per b.N probe; build the shards once.
			if parts == nil {
				g := mustGraph(gen.RMATCompact(gen.DefaultRMAT(scale, 16, 42)))
				gs := NewGraphSource(g, 2)
				ranges, hub = gs.Ranges(), gs.Hub()
				for i := 0; i < gs.Shards(); i++ {
					sl, err := gs.Slice(i)
					if err != nil {
						b.Fatal(err)
					}
					parts = append(parts, sl)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for i, sl := range parts {
					benchNode = NewNode(i, sl, ranges, hub)
				}
			}
		})
	}
}

// benchNode keeps BenchmarkNewNode's result live.
var benchNode *Node
