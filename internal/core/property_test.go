package core

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"thriftylp/graph"
)

// algorithmsUnderTest enumerates every implementation with a uniform
// signature for the property tests.
var algorithmsUnderTest = []struct {
	name string
	run  func(*graph.Graph, Config) Result
}{
	{"thrifty", Thrifty},
	{"dolp", DOLP},
	{"dolp-unified", DOLPUnified},
	{"lp", LP},
	{"sv", ShiloachVishkin},
	{"afforest", Afforest},
	{"jt", JayantiTarjan},
	{"bfs", BFSCC},
	{"fastsv", FastSV},
	{"connectit-kout", ConnectItKOut},
	{"connectit-bfs", ConnectItBFS},
}

// buildRandom converts quick's raw bytes into a graph over up to 256
// vertices: each byte pair is one edge. Duplicate edges and self-loops are
// kept — algorithms must tolerate them.
func buildRandom(raw []byte) (*graph.Graph, bool) {
	const n = 256
	var edges []graph.Edge
	for i := 0; i+1 < len(raw); i += 2 {
		edges = append(edges, graph.Edge{U: uint32(raw[i]), V: uint32(raw[i+1])})
	}
	g, err := graph.BuildUndirected(edges, graph.WithNumVertices(n))
	if err != nil {
		return nil, false
	}
	return g, true
}

// TestQuickAllAlgorithmsAgreeWithOracle is the repository's central
// property: on arbitrary random multigraphs, every algorithm's partition
// equals the sequential oracle's.
func TestQuickAllAlgorithmsAgreeWithOracle(t *testing.T) {
	for _, a := range algorithmsUnderTest {
		a := a
		t.Run(a.name, func(t *testing.T) {
			f := func(raw []byte) bool {
				g, ok := buildRandom(raw)
				if !ok {
					return false
				}
				res := a.run(g, Config{})
				return Equivalent(res.Labels, SeqCC(g))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickThriftyHubZero: on arbitrary graphs with at least one edge, the
// max-degree vertex's component converges to label 0 and no other vertex
// holds 0.
func TestQuickThriftyHubZero(t *testing.T) {
	f := func(raw []byte) bool {
		g, ok := buildRandom(raw)
		if !ok || g.NumDirectedEdges() == 0 {
			return true
		}
		res := Thrifty(g, Config{})
		oracle := SeqCC(g)
		hubComp := oracle[g.MaxDegreeVertex()]
		for v, l := range res.Labels {
			if (l == 0) != (oracle[v] == hubComp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNormalizeIdempotent: Normalize(Normalize(x)) == Normalize(x),
// and Normalize preserves the partition.
func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(labels []uint32) bool {
		n1 := Normalize(labels)
		n2 := Normalize(n1)
		for i := range n1 {
			if n1[i] != n2[i] {
				return false
			}
		}
		return Equivalent(labels, n1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEquivalentIsEquivalenceRelation: symmetry and reflexivity of the
// partition comparison on random label vectors.
func TestQuickEquivalentIsEquivalenceRelation(t *testing.T) {
	f := func(a, b []uint8) bool {
		// Equal-length vectors in a small label space so collisions happen.
		if len(a) > len(b) {
			a = a[:len(b)]
		} else {
			b = b[:len(a)]
		}
		la := make([]uint32, len(a))
		lb := make([]uint32, len(b))
		for i := range a {
			la[i] = uint32(a[i] % 4)
			lb[i] = uint32(b[i] % 4)
		}
		if !Equivalent(la, la) {
			return false
		}
		return Equivalent(la, lb) == Equivalent(lb, la)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIterationCountsSane: no algorithm exceeds the default safety cap
// on random graphs, and label-propagation variants never need more
// iterations than vertices.
func TestQuickIterationCountsSane(t *testing.T) {
	f := func(raw []byte) bool {
		g, ok := buildRandom(raw)
		if !ok {
			return false
		}
		for _, a := range algorithmsUnderTest {
			res := a.run(g, Config{})
			if res.Iterations > 2*g.NumVertices()+16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// normalizeReference is the map-based Normalize: the smallest vertex id per
// raw label, found in a first pass and written in a second.
func normalizeReference(labels []uint32) []uint32 {
	minID := make(map[uint32]uint32)
	for v, l := range labels {
		if cur, ok := minID[l]; !ok || uint32(v) < cur {
			minID[l] = uint32(v)
		}
	}
	norm := make([]uint32, len(labels))
	for v, l := range labels {
		norm[v] = minID[l]
	}
	return norm
}

// TestNormalizeMatchesMapReference checks both Normalize paths against the
// map reference: labels within [0, n] (the dense array, including label n
// itself), and labelings that carry values >= n or ^uint32(0) (the map
// fallback), plus empty input.
func TestNormalizeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	cases := [][]uint32{nil, {}, {0}, {1}, {^uint32(0)}, {2, 2, 0}, {3, 1, 3}}
	for i := 0; i < 200; i++ {
		n := rng.IntN(64) + 1
		labels := make([]uint32, n)
		for v := range labels {
			switch i % 4 {
			case 0: // dense, up to and including n
				labels[v] = uint32(rng.IntN(n + 1))
			case 1: // few distinct dense labels
				labels[v] = uint32(rng.IntN(3))
			case 2: // arbitrary values
				labels[v] = rng.Uint32()
			default: // dense with one out-of-range value mixed in
				labels[v] = uint32(rng.IntN(n))
				if v == n/2 {
					labels[v] = []uint32{uint32(n + 1), ^uint32(0)}[i%8/4]
				}
			}
		}
		cases = append(cases, labels)
	}
	for _, labels := range cases {
		got, want := Normalize(labels), normalizeReference(labels)
		if len(got) != len(labels) || !slices.Equal(got, want) {
			t.Fatalf("Normalize(%v) = %v, want %v", labels, got, want)
		}
	}
}
