// Package core implements the paper's contribution — Thrifty Label
// Propagation (Algorithm 2) — together with every baseline it is evaluated
// against: textbook synchronous Label Propagation, Direction-Optimizing
// Label Propagation (Algorithm 1), the DO-LP + Unified-Labels ablation
// variant, Shiloach-Vishkin, Afforest, Jayanti-Tarjan, BFS-CC, and FastSV.
// All algorithms run on the same runtime (internal/parallel), the same CSR
// representation (graph), and the same optional instrumentation
// (internal/counters), so comparisons among them measure algorithmic work
// rather than infrastructure differences.
package core

import (
	"time"

	"thriftylp/internal/counters"
	"thriftylp/internal/parallel"
)

// Default push/pull density thresholds. DO-LP traditionally switches at 5%
// (GraphGrind/Ligra-style); Thrifty's convergence optimizations make pull
// iterations so much cheaper that 1% is the better crossover (§IV-E,
// Table VII).
const (
	DefaultDOLPThreshold    = 0.05
	DefaultThriftyThreshold = 0.01
)

// Config carries the run-time knobs shared by all algorithms. The zero
// value is valid: it selects the default pool, the algorithm's default
// threshold, and no instrumentation.
type Config struct {
	// Pool supplies worker threads; nil selects parallel.Default().
	Pool *parallel.Pool
	// Threshold overrides the push/pull density threshold; 0 selects the
	// algorithm's default. Density is (|F.V|+|F.E|)/|E| as in Algorithm 1.
	Threshold float64
	// Ctr, when non-nil, accumulates software event counts (Fig 5/6).
	Ctr *counters.Counters
	// Trace, when non-nil, records per-iteration telemetry (Fig 3/7,
	// Tables V-VII).
	Trace *counters.Trace
	// Lines, when non-nil, tracks distinct labels-array cache lines per
	// iteration (the LLC proxy of Fig 6).
	Lines *counters.LineTracker
	// MaxIterations caps the iteration loops as a safety net; 0 means
	// 2·|V|+16, which no correct run can reach.
	MaxIterations int
	// Stop, when non-nil, is polled at iteration and partition boundaries;
	// once requested, the run abandons remaining work and returns a partial
	// Result with Canceled set. cc.RunContext arms it from a context.
	Stop *Stop
	// Faults, when non-nil, injects scheduling perturbations (and
	// optionally a panic) at the instrumentation hook points of every
	// kernel, which then takes the counting path. It composes with Ctr,
	// Lines and Trace, whose totals it leaves unchanged. Chaos tests only.
	Faults *FaultPlan

	// The remaining fields are Thrifty ablation/tuning switches; the zero
	// values select the paper's algorithm.

	// PlantVertex overrides where Zero Planting puts the 0 label: -1 or 0
	// with NoPlantOverride unset selects the max-degree vertex (§IV-C).
	// Setting PlantVertexSet plants at PlantVertex instead — the
	// structure-oblivious planting ablation, or a caller-known root.
	PlantVertex    uint32
	PlantVertexSet bool
	// NoInitialPush replaces the initial push (§IV-D) with a full first
	// pull, isolating the Initial Push technique's contribution (Table VI).
	NoInitialPush bool
	// EagerFrontier records a detailed frontier in every pull iteration
	// instead of counting-only pulls plus one Pull-Frontier bridge (§IV-E),
	// isolating that design choice's cost.
	EagerFrontier bool
	// DynamicScheduling replaces the paper's edge-balanced partitions with
	// work stealing (§V-A) by uniform dynamic vertex chunking — the runtime
	// ablation.
	DynamicScheduling bool
}

func (c Config) pool() *parallel.Pool {
	if c.Pool != nil {
		return c.Pool
	}
	return parallel.Default()
}

func (c Config) threshold(def float64) float64 {
	if c.Threshold > 0 {
		return c.Threshold
	}
	return def
}

func (c Config) maxIters(n int) int { return IterationCap(c.MaxIterations, n) }

// IterationCap resolves an iteration or exchange-round cap over n vertices:
// a positive limit is kept, and any other value selects 2·n+16, which no
// correct run reaches (labels strictly decrease).
func IterationCap(limit, n int) int {
	if limit > 0 {
		return limit
	}
	return 2*n + 16
}

// Result is the outcome of one connected-components run.
type Result struct {
	// Labels assigns every vertex a component label. Labels are consistent
	// within an algorithm but their value space differs across algorithms
	// (e.g. Thrifty's giant component converges to 0, union-find roots are
	// vertex ids); use Normalize/Equivalent for cross-algorithm comparison.
	Labels []uint32
	// Iterations is the number of iterations executed; for Thrifty the
	// initial push counts as an iteration (§V-C), for union-find algorithms
	// it is the number of graph passes.
	Iterations int
	// PushIterations and PullIterations decompose Iterations for the
	// label-propagation algorithms (Table VII); zero for union-find.
	PushIterations int
	PullIterations int
	// Sched aggregates the run's partition-scheduling activity (partitions
	// run from a thread's own block vs stolen, failed steal attempts).
	// Collected at partition boundaries only, so it is populated even on the
	// uninstrumented fast path; zero under the DynamicScheduling ablation
	// and for kernels that do not sweep through the stealer.
	Sched parallel.StealStats
	// PhaseDurations sums wall time per iteration kind ("pull", "push",
	// "pull-frontier", "initial-push"), measured at iteration boundaries.
	// Populated by the label-propagation kernels; nil for the union-find
	// family, whose passes are not phase loops.
	PhaseDurations map[string]time.Duration
	// Canceled reports that the run stopped at a cancellation point before
	// converging; Labels then holds the algorithm's intermediate state (for
	// the LP family a refinement en route to the partition, for union-find
	// a partially built forest), not the final partition.
	Canceled bool
	// Phase names the phase the run was in when cancelled ("pull", "push",
	// "hook", ...); empty for completed runs.
	Phase string
}

// chunkCounts is the counting policy's per-worker counter block (instr.go),
// flushed to the shared Counters once per chunk.
type chunkCounts struct {
	edges, visits, loads, stores, cas, branches int64
}

func (cc *chunkCounts) flush(ctr *counters.Counters, tid int) {
	if ctr == nil {
		return
	}
	ctr.Add(tid, counters.EdgesProcessed, cc.edges)
	ctr.Add(tid, counters.VertexVisits, cc.visits)
	ctr.Add(tid, counters.LabelLoads, cc.loads)
	ctr.Add(tid, counters.LabelStores, cc.stores)
	ctr.Add(tid, counters.CASOps, cc.cas)
	ctr.Add(tid, counters.BranchChecks, cc.branches)
	*cc = chunkCounts{}
}

// countZeros returns how many labels are zero — the converged count that
// Zero Convergence telemetry reports per iteration.
func countZeros(pool *parallel.Pool, labels []uint32) int64 {
	return parallel.SumInt64(pool, len(labels), 0, func(lo, hi int) int64 {
		var z int64
		for _, l := range labels[lo:hi] {
			if l == 0 {
				z++
			}
		}
		return z
	})
}
