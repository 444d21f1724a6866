package gen

import (
	"fmt"

	"thriftylp/graph"
	"thriftylp/internal/parallel"
)

// RMATConfig parameterizes the recursive-matrix (Kronecker) generator of
// Chakrabarti, Zhan & Faloutsos, the standard model for skewed-degree
// social-network-like graphs (also used by Graph500).
type RMATConfig struct {
	// Scale is log2 of the vertex count: n = 1<<Scale.
	Scale int
	// EdgeFactor is the number of undirected edges generated per vertex
	// (before dedup); Graph500 uses 16.
	EdgeFactor int
	// A, B, C are the recursive quadrant probabilities; D = 1-A-B-C.
	// Graph500 uses A=0.57, B=0.19, C=0.19 (D=0.05), which yields the
	// heavy-tailed degree distribution the Thrifty paper targets.
	A, B, C float64
	// Noise perturbs the quadrant probabilities per recursion level to
	// smooth the degree distribution (SSCA/Graph500 "noise" refinement).
	// 0 disables; 0.1 is a typical value. It must lie in [0, 1], which
	// keeps every perturbed probability non-negative.
	Noise float64
	// Permute scrambles vertex ids with a random bijection, as Graph500
	// requires. Raw RMAT correlates degree with id (vertex 0, the all-zeros
	// bit path, is always a top hub), which would accidentally hand plain
	// label propagation its minimum label pre-planted on a hub — hiding
	// exactly the inefficiency the paper's §III-C describes. Real datasets
	// have arbitrary id order.
	Permute bool
	// Seed makes generation deterministic.
	Seed uint64
}

// DefaultRMAT returns the Graph500 parameterization at the given scale and
// edge factor.
func DefaultRMAT(scale, edgeFactor int, seed uint64) RMATConfig {
	return RMATConfig{Scale: scale, EdgeFactor: edgeFactor, A: 0.57, B: 0.19, C: 0.19, Noise: 0.1, Permute: true, Seed: seed}
}

func (c RMATConfig) validate() error {
	if c.Scale < 0 || c.Scale > 31 {
		return fmt.Errorf("gen: RMAT scale %d out of range [0,31]", c.Scale)
	}
	if c.EdgeFactor < 0 {
		return fmt.Errorf("gen: RMAT edge factor %d negative", c.EdgeFactor)
	}
	// Negated so that NaN fails too.
	if !(c.A >= 0 && c.B >= 0 && c.C >= 0 && c.A+c.B+c.C <= 1) {
		return fmt.Errorf("gen: RMAT probabilities a=%v b=%v c=%v invalid", c.A, c.B, c.C)
	}
	if !(c.Noise >= 0 && c.Noise <= 1) {
		return fmt.Errorf("gen: RMAT noise %v out of range [0,1]", c.Noise)
	}
	return nil
}

// RMATEdges generates the raw edge list (duplicates and self-loops
// included, as the model produces them). Generation is parallel and
// deterministic in the seed: the edge array is split into fixed chunks and
// each chunk uses an independently derived RNG stream.
func RMATEdges(cfg RMATConfig) ([]graph.Edge, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := cfg.edges()
	edges := make([]graph.Edge, m)
	parallel.For(parallel.Default(), (m+rmatChunkEdges-1)/rmatChunkEdges, 1, func(_, clo, chi int) {
		for ci := clo; ci < chi; ci++ {
			i := ci * rmatChunkEdges
			rmatChunk(cfg, ci, func(u, v uint32) {
				edges[i] = graph.Edge{U: u, V: v} //thrifty:benign-race workers fill disjoint chunks of edges
				i++
			})
		}
	})
	return edges, nil
}

// rmatChunkEdges is the edge count of one RMAT chunk, the unit of both
// parallel generation and stream replay; each chunk draws from its own
// chunkRNG stream.
const rmatChunkEdges = 1 << 14

// edges is the generated edge count, self-loops and duplicates included.
func (c RMATConfig) edges() int { return (1 << c.Scale) * c.EdgeFactor }

// rmatChunk draws chunk ci of cfg's edge stream by recursive quadrant
// descent and passes each edge, permuted by rmatPerm, to emit in order. It
// is the one RMAT kernel: RMATEdges and RMATStream.Chunk both run it.
//
// The kernel is branch-free per level. The quadrant is one of four
// outcomes with probabilities near 57/19/19/5, so a branch on it
// mispredicts often, and every mispredict stalls the chain of RNG draws,
// noise and division that the following levels queue behind it. Instead,
// the row bit u is p ≥ la+lb (the lower two quadrants) and the column bit
// v is la ≤ p < la+lb or p ≥ la+lb+lc (the right two), combined with
// bitwise & and |, since Go compiles && and || to branches. With the
// non-negative probabilities validate admits, these are exactly the
// quadrants a sequential switch on the same three thresholds picks.
//
// The floating-point work is the switch version's, operation for
// operation: hoisting 1-Noise, 2*Noise and 1-A-B-C is exact, because Go
// evaluates them left to right and so every operation sees the same
// operands in the same order. The splitmix state lives in a local, so it
// stays in a register across the draws. The edges are bit-identical to
// those of a per-level switch; TestGeneratorDigestsMatchGolden pins them.
func rmatChunk(cfg RMATConfig, ci int, emit func(u, v uint32)) {
	perm := rmatPerm(cfg)
	state := chunkRNG(cfg.Seed, ci).state
	lo, hi := ci*rmatChunkEdges, min((ci+1)*rmatChunkEdges, cfg.edges())
	a, b, c := cfg.A, cfg.B, cfg.C
	d := 1 - a - b - c
	base, span := 1-cfg.Noise, 2*cfg.Noise
	noisy := cfg.Noise > 0
	for i := lo; i < hi; i++ {
		var u, v uint32
		for level := 0; level < cfg.Scale; level++ {
			la, lb, lc := a, b, c
			if noisy {
				// Multiplicative noise in [1-Noise, 1+Noise), renormalized.
				state += splitmixGamma
				la *= base + span*unitDraw(state)
				state += splitmixGamma
				lb *= base + span*unitDraw(state)
				state += splitmixGamma
				lc *= base + span*unitDraw(state)
				state += splitmixGamma
				ld := d * (base + span*unitDraw(state))
				sum := la + lb + lc + ld
				la, lb, lc = la/sum, lb/sum, lc/sum
			}
			state += splitmixGamma
			p := unitDraw(state)
			lab := la + lb
			u = u<<1 | b2u(p >= lab)
			v = v<<1 | b2u(p >= la)&b2u(p < lab) | b2u(p >= lab+lc)
		}
		emit(perm.apply(u), perm.apply(v))
	}
}

// rmatPermutation is the seed-derived vertex-id bijection on [0, 2^scale)
// of an RMAT configuration: an XOR mask then an odd multiplier, both
// invertible mod 2^scale. See RMATConfig.Permute.
type rmatPermutation struct{ mask, mult, top uint32 }

func (p rmatPermutation) apply(v uint32) uint32 { return ((v ^ p.mask) * p.mult) & p.top }

// rmatPerm returns cfg's vertex-id bijection (identity when Permute is
// off).
func rmatPerm(cfg RMATConfig) rmatPermutation {
	p := rmatPermutation{mult: 1, top: uint32(1)<<cfg.Scale - 1}
	if cfg.Permute && cfg.Scale > 0 {
		pr := newRNG(cfg.Seed ^ 0x5ca1ab1e5ca1ab1e)
		p.mask = uint32(pr.next()) & p.top
		p.mult = uint32(pr.next()) | 1 // odd ⇒ invertible mod 2^scale
	}
	return p
}

// b2u is 1 for true and 0 for false, compiled to a flag set, not a branch.
func b2u(b bool) uint32 {
	var x uint32
	if b {
		x = 1
	}
	return x
}

// RMAT generates an RMAT graph as a deduplicated simple undirected graph
// with self-loops removed.
func RMAT(cfg RMATConfig) (*graph.Graph, error) {
	edges, err := RMATEdges(cfg)
	if err != nil {
		return nil, err
	}
	return build(edges, 1<<cfg.Scale)
}

// RMATCompact generates an RMAT graph and removes its zero-degree vertices,
// matching the paper's dataset preparation (§V-A). The returned graph has
// densely renumbered vertex ids.
func RMATCompact(cfg RMATConfig) (*graph.Graph, error) {
	g, err := RMAT(cfg)
	if err != nil {
		return nil, err
	}
	g, _ = graph.RemoveIsolated(g)
	return g, nil
}
