package stats

import (
	"sort"
	"time"

	"thriftylp/graph"
)

// This file is the O(sample) structural probe behind cc.AlgoAuto: a cheap
// pre-pass that characterizes an input graph well enough to pick a CC
// algorithm for it, in the spirit of the adaptive GPU CC work (runtime
// structure-driven adaptation) and Contour's sampling phase. The probe NEVER
// scans the full edge array: everything it reads is O(1) CSR metadata
// (vertex/edge counts, the memoized max-degree vertex, per-vertex degrees
// from the offsets array) plus a bounded vertex/edge sample, so its cost is
// independent of graph size and amortizes to noise on medium inputs.

// DefaultProbeSamples is the default vertex-sample size. 1024 keeps the
// sampled percentile/alpha estimates stable on skewed inputs while the whole
// probe stays tens of microseconds.
const DefaultProbeSamples = 1024

// probeKOut is how many incident edges per sampled vertex feed the
// connectivity hint (Afforest/Contour use 2 neighbour rounds for the same
// reason: two links already collapse most of a giant component).
const probeKOut = 2

// ProbeOptions configures ProbeGraph. The zero value selects the defaults.
type ProbeOptions struct {
	// Samples is the vertex-sample size; 0 selects DefaultProbeSamples.
	Samples int
	// Seed drives the sampling RNG. The default (0) is a fixed seed, so
	// probe results — and therefore auto-selector decisions — are
	// deterministic per graph.
	Seed uint64
}

// Probe is the structural fingerprint the auto-selector decides on.
//
// The exact fields (Vertices..HubEdgeFraction) cost O(1) reads of CSR
// metadata. The Sample* fields are estimates over SampleSize sampled
// vertices; LargestSampleComponent is only populated when the sample covers
// at least half the vertex set (SampleCoverage >= 0.5), because a k-out
// union-find over a sparse sample of a large graph is vacuously fragmented
// and would mislead the decision policy.
type Probe struct {
	// Vertices and DirectedEdges are |V| and the directed adjacency-slot
	// count (2|E| for undirected graphs), read in O(1).
	Vertices      int
	DirectedEdges int64
	// MeanDegree is the exact mean directed degree, DirectedEdges/Vertices.
	MeanDegree float64
	// MaxDegree is the exact maximum degree (the CSR memoizes its vertex).
	MaxDegree int
	// SkewRatio is MaxDegree/MeanDegree — the same heavy-tail indicator as
	// DegreeStats.SkewRatio, here without any full scan.
	SkewRatio float64
	// HubEdgeFraction is MaxDegree/DirectedEdges: the share of all adjacency
	// slots incident to the single max-degree vertex. Near 0.5 means a
	// star-like graph whose hub touches almost every edge.
	HubEdgeFraction float64

	// SampleSize is the number of vertex samples drawn; SampleCoverage is
	// SampleSize/Vertices (capped at 1 — small graphs are probed
	// exhaustively).
	SampleSize     int
	SampleCoverage float64
	// SampleMeanDegree, SampleP99 and SampleAlpha estimate the degree
	// distribution's shape from the sample: mean, 99th percentile, and the
	// Clauset-Shalizi-Newman MLE power-law exponent (0 when the sampled tail
	// is too small to fit).
	SampleMeanDegree float64
	SampleP99        int
	SampleAlpha      float64
	// IsolatedFraction is the sampled fraction of degree-0 vertices.
	IsolatedFraction float64

	// LargestSampleComponent is the Contour-style connectivity hint: the
	// fraction of probed vertices landing in the largest cluster after
	// union-finding probeKOut sampled incident edges per vertex. It is 0
	// unless SampleCoverage >= 0.5 (see type comment); EdgeSamples counts
	// the adjacency entries the hint examined.
	LargestSampleComponent float64
	EdgeSamples            int

	// Cost is the probe's wall time: the overhead the selector adds to a
	// run. Reason is the decision-policy rule that fired ("skewed",
	// "hub-dominated", "fragmented", "chain-like", "uniform-degree",
	// "trivial"); ProbeGraph leaves it empty and cc's auto-selector sets
	// it.
	Cost   time.Duration
	Reason string
}

// probeRNG is a splitmix64 stream, private to the probe so stats does not
// depend on graph/gen.
type probeRNG struct{ state uint64 }

func (r *probeRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *probeRNG) intn(n int) int {
	return int((r.next() >> 32) * uint64(n) >> 32)
}

// ProbeGraph computes the structural probe of g. Runtime is O(opt.Samples);
// no full vertex or edge scan ever happens, so probing a billion-edge graph
// costs the same as probing a million-edge one.
func ProbeGraph(g *graph.Graph, opt ProbeOptions) Probe {
	start := time.Now()
	p := Probe{Vertices: g.NumVertices(), DirectedEdges: g.NumDirectedEdges()}
	if p.Vertices == 0 {
		p.Cost = time.Since(start)
		return p
	}
	p.MaxDegree = g.Degree(g.MaxDegreeVertex())
	p.MeanDegree = float64(p.DirectedEdges) / float64(p.Vertices)
	if p.MeanDegree > 0 {
		p.SkewRatio = float64(p.MaxDegree) / p.MeanDegree
	}
	if p.DirectedEdges > 0 {
		p.HubEdgeFraction = float64(p.MaxDegree) / float64(p.DirectedEdges)
	}

	samples := opt.Samples
	if samples <= 0 {
		samples = DefaultProbeSamples
	}
	rng := &probeRNG{state: opt.Seed + 0x9e3779b97f4a7c15}
	rng.next()

	// Degree sample: exhaustive when the graph is no bigger than the sample
	// budget (then every estimate is exact), uniform with replacement
	// otherwise. Degrees are O(1) offset subtractions.
	exhaustive := p.Vertices <= samples
	if exhaustive {
		samples = p.Vertices
	}
	degs := make([]int, samples)
	isolated := 0
	var degSum int64
	for i := 0; i < samples; i++ {
		v := uint32(i)
		if !exhaustive {
			v = uint32(rng.intn(p.Vertices))
		}
		d := g.Degree(v)
		degs[i] = d
		degSum += int64(d)
		if d == 0 {
			isolated++
		}
	}
	p.SampleSize = samples
	p.SampleCoverage = float64(samples) / float64(p.Vertices)
	p.SampleMeanDegree = float64(degSum) / float64(samples)
	p.IsolatedFraction = float64(isolated) / float64(samples)
	sort.Ints(degs)
	p.SampleP99 = degs[min(samples-1, samples*99/100)]
	p.SampleAlpha = powerLawAlpha(degs, max(2, int(p.SampleMeanDegree)))

	// Connectivity hint, only when the sample covers most of the graph:
	// union-find over the first probeKOut edges of every vertex (exactly
	// Afforest's neighbour rounds, restricted to small inputs) and report
	// the largest cluster's share. On a fragmented input — thousands of
	// small components — this stays far below 1 and steers the selector
	// toward union-find; on a connected input it approaches 1.
	if p.SampleCoverage >= 0.5 {
		parent := make([]uint32, p.Vertices)
		for i := range parent {
			parent[i] = uint32(i)
		}
		var find func(uint32) uint32
		find = func(x uint32) uint32 {
			for parent[x] != x {
				parent[x] = parent[parent[x]] // path halving
				x = parent[x]
			}
			return x
		}
		for v := 0; v < p.Vertices; v++ {
			nbrs := g.Neighbors(uint32(v))
			k := min(probeKOut, len(nbrs))
			for j := 0; j < k; j++ {
				p.EdgeSamples++
				ru, rv := find(uint32(v)), find(nbrs[j])
				if ru != rv {
					if ru < rv {
						parent[rv] = ru
					} else {
						parent[ru] = rv
					}
				}
			}
		}
		counts := make(map[uint32]int, 64)
		largest := 0
		for v := 0; v < p.Vertices; v++ {
			r := find(uint32(v))
			counts[r]++
			if counts[r] > largest {
				largest = counts[r]
			}
		}
		p.LargestSampleComponent = float64(largest) / float64(p.Vertices)
	}

	p.Cost = time.Since(start)
	return p
}
