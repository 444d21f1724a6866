// Package gen generates the synthetic datasets that stand in for the
// paper's 17 real-world graphs (Table II). Three families cover the
// behaviours that matter to Thrifty:
//
//   - RMAT/Kronecker graphs reproduce the skewed (power-law-like) degree
//     distribution and giant component of social networks (Pokec,
//     LiveJournal, Twitter, Friendster analogs);
//   - web-like graphs (an RMAT core with pendant paths) reproduce the high
//     effective diameter of web crawls (WebBase, UK-Union analogs), which is
//     what drives the paper's long push-iteration tails (70+ iterations);
//   - 2-D grid road networks reproduce the non-power-law, high-diameter
//     regime (GB/US road analogs) where union-find beats label propagation.
//
// All generators are deterministic in their seed, including under parallel
// generation: edge chunks derive independent RNG streams from (seed, chunk).
package gen

import "thriftylp/graph"

// rng is a splitmix64 generator: tiny, fast, and with a trivially splittable
// seeding discipline for reproducible parallel generation.
type rng struct{ state uint64 }

// splitmixGamma is splitmix64's state increment.
const splitmixGamma = 0x9e3779b97f4a7c15

func newRNG(seed uint64) *rng {
	// Avoid the all-zero state pathologies by mixing the seed once.
	r := &rng{state: seed + splitmixGamma}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.state += splitmixGamma
	return mix64(r.state)
}

// mix64 is splitmix64's output function of the advanced state.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uint32n returns a uniform value in [0, n).
func (r *rng) uint32n(n uint32) uint32 {
	if n == 0 {
		return 0
	}
	// Lemire's multiply-shift rejection-free reduction (slightly biased for
	// huge n; negligible for graph generation).
	return uint32((r.next() >> 32) * uint64(n) >> 32)
}

// float64v returns a uniform value in [0, 1).
func (r *rng) float64v() float64 {
	r.state += splitmixGamma
	return unitDraw(r.state)
}

// unitDraw is the uniform [0, 1) value splitmix64 draws at the advanced
// state z: float64v without the state, for kernels that keep the state in
// a local.
func unitDraw(z uint64) float64 { return float64(mix64(z)>>11) / (1 << 53) }

// chunkRNG derives the RNG stream for chunk i of a seeded generation.
func chunkRNG(seed uint64, i int) *rng {
	r := newRNG(seed ^ (uint64(i)+1)*0xd1342543de82ef95)
	r.next()
	return r
}

// build assembles an undirected simple graph from raw edges, removing
// duplicates and self-loops the way the paper's dataset preparation does.
func build(edges []graph.Edge, n int) (*graph.Graph, error) {
	return graph.BuildUndirected(edges,
		graph.WithNumVertices(n),
		graph.WithDedup(),
		graph.WithoutSelfLoops(),
	)
}

// DisjointUnion concatenates graphs into one graph with disjoint vertex-id
// blocks, in argument order. It is used to assemble datasets with a known
// component census, e.g. a giant RMAT component plus thousands of small
// islands (the |CC| column of Table II).
func DisjointUnion(gs ...*graph.Graph) (*graph.Graph, error) {
	totalV := 0
	totalSlots := int64(0)
	for _, g := range gs {
		totalV += g.NumVertices()
		totalSlots += g.NumDirectedEdges()
	}
	offsets := make([]int64, totalV+1)
	adj := make([]uint32, totalSlots)
	vBase, eBase := 0, int64(0)
	for _, g := range gs {
		go_ := g.Offsets()
		ga := g.Adjacency()
		for v := 0; v < g.NumVertices(); v++ {
			offsets[vBase+v] = eBase + go_[v]
		}
		for i, u := range ga {
			adj[eBase+int64(i)] = uint32(vBase) + u
		}
		vBase += g.NumVertices()
		eBase += int64(len(ga))
	}
	offsets[totalV] = eBase
	return graph.FromCSR(offsets, adj)
}
