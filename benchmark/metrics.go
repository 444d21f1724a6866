package main

import (
	"fmt"
	"math"
	"sort"
)

// e2eUnits are the end-to-end metrics every workload reports, with their
// units. An "op" is the workload's unit of work: one ingest-and-solve for
// the batch workloads, one query on serve-read. BENCHMARK.json lists the
// same names, directions and regression bounds.
var e2eUnits = map[string]string{
	"setup_s":     "s",
	"op_mean_ms":  "ms",
	"op_tail_ms":  "ms",
	"ops_per_s":   "1/s",
	"rss_peak_mb": "MB",
}

// layerUnits are the per-layer metrics, named "<package>.<metric>". Every
// workload reports all of them; a layer the workload never calls reads 0.
var layerUnits = map[string]string{
	"graph.load_ms":       "ms",
	"graph.load_mb_per_s": "MB/s",
	"graph.self_ms":       "ms",

	"cc.probe_us": "us",
	"cc.self_ms":  "ms",

	"core.solve_ms":         "ms",
	"core.initial_push_ms":  "ms",
	"core.pull_ms":          "ms",
	"core.pull_frontier_ms": "ms",
	"core.push_ms":          "ms",
	"core.iterations":       "count",
	"core.push_iterations":  "count",
	"core.pull_iterations":  "count",
	"core.edges":            "count",
	"core.vertex_visits":    "count",
	"core.label_stores":     "count",
	"core.cas_ops":          "count",
	"core.self_ms":          "ms",

	"parallel.pool_idle_ms":  "ms",
	"parallel.pool_jobs":     "count",
	"parallel.stolen":        "count",
	"parallel.failed_steals": "count",

	"shard.open_ms":    "ms",
	"shard.slice_ms":   "ms",
	"shard.node_ms":    "ms",
	"shard.release_ms": "ms",
	"shard.self_ms":    "ms",

	"dist.exchange_ms":      "ms",
	"dist.rounds":           "count",
	"dist.bytes":            "bytes",
	"dist.naive_bytes":      "bytes",
	"dist.pairs":            "count",
	"dist.suppressed":       "count",
	"dist.boundary_entries": "count",
	"dist.local_iterations": "count",
	"dist.self_ms":          "ms",

	"serve.server_p50_us": "us",
	"serve.server_p99_us": "us",
	"serve.shed":          "count",
	"serve.queue_us":      "us",
	"serve.acquire_us":    "us",
	"serve.handler_us":    "us",
	"serve.encode_us":     "us",

	"transport.p50_us": "us",
	"transport.p99_us": "us",

	"proc.alloc_mb_per_op":  "MB",
	"proc.gc_cycles_per_op": "count",
	"proc.gc_pause_ms":      "ms",

	"trace.overhead_pct": "%",
	"trace.coverage_pct": "%",
}

// result is one workload's outcome: whether every check passed, the ops
// attempted and failed, both metric sets, and what went wrong.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
	// Selected counts the algorithm cc.AlgoAuto chose, per op.
	Selected map[string]int `json:"selected,omitempty"`

	tracer *tracer
}

func newResult(name string) *result {
	return &result{Workload: name, Metrics: map[string]metric{}, Layers: map[string]metric{}, Selected: map[string]int{}}
}

// maxProblems caps the failure messages kept per workload; the count of
// failed ops is exact regardless.
const maxProblems = 8

// problem records a failed check. It does not count an op: callers that
// lost an op also increment Failed.
func (r *result) problem(format string, args ...any) {
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// opFailed counts one failed op and records why.
func (r *result) opFailed(format string, args ...any) {
	r.Failed++
	r.problem(format, args...)
}

func (r *result) setE2E(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: e2eUnits[name]}
}

func (r *result) setLayer(name string, v float64) {
	r.Layers[name] = metric{Value: v, Unit: layerUnits[name]}
}

// setLayers stores the per-key medians of per-op layer values.
func (r *result) setLayers(ops []map[string]float64) {
	vals := map[string][]float64{}
	for _, m := range ops {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	for k, xs := range vals {
		r.setLayer(k, median(xs))
	}
}

// finish fills per-layer metrics the workload never touched with 0 and
// settles Correct. A metric that is not finite is a benchmark bug and
// fails the run.
func (r *result) finish() {
	for name := range layerUnits {
		if _, ok := r.Layers[name]; !ok {
			r.setLayer(name, 0)
		}
	}
	for _, set := range []map[string]metric{r.Metrics, r.Layers} {
		for name, m := range set {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				r.problem("metric %s is not finite", name)
			}
		}
	}
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
