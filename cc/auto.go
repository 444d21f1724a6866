package cc

import (
	"thriftylp/graph"
	"thriftylp/internal/stats"
)

// AlgoAuto is not an algorithm but a selector: the run begins with an
// O(sample) structural probe of the input (internal/stats.ProbeGraph) and a
// decision policy maps the probe to the concrete algorithm expected to win
// on inputs shaped like this one. The chosen algorithm, the probe values,
// and the probe's cost are reported through RunStats (Selected, Probe), so
// an auto run is never a black box.
const AlgoAuto Algorithm = "auto"

// ProbeStats is the structural fingerprint an AlgoAuto run measured before
// choosing its algorithm, surfaced on RunStats.Probe: internal/stats's own
// Probe record, with Reason set to the decision-policy rule that fired.
type ProbeStats = stats.Probe

// selectAlgorithm is the decision policy: probe in, concrete algorithm and
// the name of the rule that fired out. The rules are ordered most-specific
// first and calibrated by measurement over this repository's generator
// families (see DESIGN.md "Algorithm auto-selection"); the constants are
// deliberately coarse — each rule only has to separate regimes whose best
// algorithms differ by integer factors, not percentages.
//
// Why each rule picks what it picks:
//
//   - hub-dominated: one vertex touches >=40% of all edges (star-like).
//     Thrifty's initial push serializes on the hub's adjacency list while
//     the pull direction has nothing to skip yet; a direction-optimizing
//     BFS claims such graphs in two levels and measured 2x faster than
//     Thrifty on star inputs.
//   - skewed: a max degree 20x the mean is the paper's home turf — zero
//     planting lands on a giant-component hub and Zero Convergence prunes
//     the bulk of edge work (power-law inputs: RMAT, web, Barabasi-Albert).
//   - fragmented: the k-out connectivity hint found no dominant cluster, so
//     the input is thousands of small components. Per-component costs
//     dominate; Afforest's sampling union-find handles them without one
//     BFS launch per component and without LP's per-iteration sweeps.
//   - chain-like: mean degree under ~2.6 means paths/cycles/road-like
//     topology with tiny frontiers. Thrifty's sequential-drain cutoff makes
//     its many short push iterations cheap, and label propagation avoids
//     BFS's level-synchronization overhead on deep, narrow graphs.
//   - uniform-degree: no skew to exploit (Erdos-Renyi, grids, complete
//     graphs): Zero Planting has no special hub to find, so LP family loses
//     its edge; direction-optimizing BFS explores the single giant
//     component with the fewest edge touches.
//
// FastSV is never selected: across every family and thread count measured
// it trailed the winner by 5-25x, matching the paper's observation that
// min-hooking does strictly more work per edge than direction-optimized
// propagation.
func selectAlgorithm(p stats.Probe) (Algorithm, string) {
	switch {
	case p.Vertices == 0 || p.DirectedEdges == 0:
		// Empty or edgeless: every algorithm is O(V); Thrifty keeps the
		// labels convention consistent with the package's default.
		return AlgoThrifty, "trivial"
	case p.HubEdgeFraction >= 0.4:
		return AlgoBFSCC, "hub-dominated"
	case p.SkewRatio >= 20:
		return AlgoThrifty, "skewed"
	case p.SampleCoverage >= 0.5 && p.LargestSampleComponent < 0.4:
		return AlgoAfforest, "fragmented"
	case p.MeanDegree < 2.6:
		return AlgoThrifty, "chain-like"
	default:
		return AlgoBFSCC, "uniform-degree"
	}
}

// autoSelect probes g and returns the chosen algorithm plus the reported
// probe. Deterministic: the probe uses a fixed sampling seed, so equal
// graphs always select equally.
func autoSelect(g *graph.Graph) (Algorithm, *ProbeStats) {
	p := stats.ProbeGraph(g, stats.ProbeOptions{})
	var algo Algorithm
	algo, p.Reason = selectAlgorithm(p)
	return algo, &p
}

// Auto probes g, picks the algorithm the decision policy expects to win,
// and runs it. The choice is reported in Result.Stats.Selected.
func Auto(g *graph.Graph, opts ...Option) Result { return mustRun(AlgoAuto, g, opts) }
