// Package afforest holds the parameters and the sampler of Afforest (Sutton,
// Ben-Nun & Barak, IPDPS 2018) that two union-find passes share: the
// parallel Afforest and ConnectIt kernels in internal/core, and the
// sequential per-shard collapse in internal/shard. Both link a few
// neighbours per vertex, find the dominant root by sampling, and then skip
// the remaining edges of every vertex in it.
package afforest

import "slices"

// NeighborRounds is the number of neighbours each vertex links before
// sampling; 2 is the value of the reference implementation in GAP.
const NeighborRounds = 2

// Samples is the number of vertices probed to find the dominant root (GAP
// uses 1024).
const Samples = 1024

// Probes calls fn with each of the Samples vertex positions in [0, n) that
// FrequentRoot reads, in order. The sequence is a fixed LCG, so every run
// probes the same vertices. n must be positive.
func Probes(n int, fn func(v int)) {
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < Samples; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		fn(int((state >> 16) % uint64(n)))
	}
}

// FrequentRoot returns the most frequent entry of comp at the Probes
// positions, the smallest on ties — GAP's SampleFrequentElement, made
// deterministic: the samples are sorted on the stack and the longest run
// wins, the first (smallest) among equals. comp must be non-empty, and flat
// if its entries are to be roots.
func FrequentRoot(comp []uint32) uint32 {
	var roots [Samples]uint32
	i := 0
	Probes(len(comp), func(v int) {
		roots[i] = comp[v]
		i++
	})
	slices.Sort(roots[:])
	best, bestRun := roots[0], 0
	for i := 0; i < len(roots); {
		j := i + 1
		for j < len(roots) && roots[j] == roots[i] {
			j++
		}
		if j-i > bestRun {
			best, bestRun = roots[i], j-i
		}
		i = j
	}
	return best
}
