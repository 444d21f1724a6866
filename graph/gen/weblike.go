package gen

import (
	"fmt"

	"thriftylp/graph"
)

// WebConfig parameterizes the web-graph analog: a skewed RMAT core with
// pendant paths ("crawl tendrils") attached to random core vertices. Real
// web crawls (WebBase-2001, UK-Union in Table II) combine a hub-dominated
// core with long chains of pages reachable only through each other, giving
// them a much larger effective diameter than social networks — which is why
// the paper reports 70+ push iterations on them (§IV-E) and why they are
// where Unified Labels' iteration reduction is largest (−89% on WebBase,
// Table V).
type WebConfig struct {
	// CoreScale and CoreEdgeFactor parameterize the RMAT core.
	CoreScale      int
	CoreEdgeFactor int
	// NumChains pendant paths of ChainLength vertices each are attached to
	// uniformly random core vertices.
	NumChains   int
	ChainLength int
	Seed        uint64
}

// DefaultWeb returns a web-graph analog configuration: chains totalling
// roughly a sixth of the vertices (tendrils are a minority of real crawls,
// Table I shows >=94.5% of vertices in the giant component), each long
// enough to force dozens of sparse push iterations.
func DefaultWeb(scale int, seed uint64) WebConfig {
	n := 1 << scale
	return WebConfig{
		CoreScale:      scale,
		CoreEdgeFactor: 12,
		NumChains:      n / 512,
		ChainLength:    96,
		Seed:           seed,
	}
}

// Web generates the web-graph analog. Chain vertices are numbered after the
// core block, so the core's skew dominates low vertex ids just as crawl
// order does in real web datasets.
func Web(cfg WebConfig) (*graph.Graph, error) {
	if cfg.NumChains < 0 || cfg.ChainLength < 0 {
		return nil, fmt.Errorf("gen: negative chain parameters %d×%d", cfg.NumChains, cfg.ChainLength)
	}
	coreEdges, err := RMATEdges(DefaultRMAT(cfg.CoreScale, cfg.CoreEdgeFactor, cfg.Seed))
	if err != nil {
		return nil, err
	}
	if cfg.NumChains > 0 && len(coreEdges) == 0 {
		return nil, fmt.Errorf("gen: web graph core has no edges to anchor %d chains (core edge factor %d)", cfg.NumChains, cfg.CoreEdgeFactor)
	}
	coreN := 1 << cfg.CoreScale
	n := coreN + cfg.NumChains*cfg.ChainLength
	if n > 1<<31 {
		return nil, fmt.Errorf("gen: web graph of %d vertices exceeds uint32 ids", n)
	}
	edges := coreEdges
	r := newRNG(cfg.Seed ^ 0x77eb77eb77eb77eb)
	next := uint32(coreN)
	const segment = 16
	for c := 0; c < cfg.NumChains; c++ {
		// Degree-biased anchor: an endpoint of a uniformly random core edge
		// is degree-proportional, so chains hang off the well-connected
		// part of the core — almost surely the giant component, keeping its
		// vertex share in the >=94% regime of Table I. (Crawl tendrils are
		// reached *from* the crawl's core, so this is also the realistic
		// attachment model.)
		anchor := coreEdges[r.uint32n(uint32(len(coreEdges)))].U
		if r.next()&1 == 0 {
			anchor = coreEdges[r.uint32n(uint32(len(coreEdges)))].V
		}
		// Chain vertex ids are assigned in segments of 16 whose order is
		// the *reverse* of hop order: pages within one crawl wave get
		// consecutive ids, but waves land in the id space far from their
		// hop-predecessors. Consequently an in-id-order label sweep drains
		// exactly one segment per iteration instead of the whole chain
		// (ids fully aligned with hops) or one vertex (ids fully opposed),
		// reproducing the intermediate regime of real crawls: dozens of
		// cheap sparse push iterations (70+ on WebBase/UK-Union, §IV-E)
		// instead of hundreds of dense ones.
		ids := make([]uint32, cfg.ChainLength)
		segs := (cfg.ChainLength + segment - 1) / segment
		pos := 0
		for si := segs - 1; si >= 0; si-- {
			lo := si * segment
			hi := lo + segment
			if hi > cfg.ChainLength {
				hi = cfg.ChainLength
			}
			for i := lo; i < hi; i++ {
				ids[pos] = next + uint32(i)
				pos++
			}
		}
		prev := anchor
		for _, id := range ids {
			edges = append(edges, graph.Edge{U: prev, V: id})
			prev = id
		}
		next += uint32(cfg.ChainLength)
	}
	g, err := build(edges, n)
	if err != nil {
		return nil, err
	}
	g, _ = graph.RemoveIsolated(g)
	return g, nil
}
