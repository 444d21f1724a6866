package counters

import "time"

// IterKind classifies one iteration of a label-propagation run.
type IterKind string

// Iteration kinds. InitialPush is Thrifty's iteration 0 (§IV-D);
// PullFrontier is the pull iteration that additionally records a detailed
// frontier just before switching to push traversal (§IV-E).
const (
	KindPull         IterKind = "pull"
	KindPush         IterKind = "push"
	KindPullFrontier IterKind = "pull-frontier"
	KindInitialPush  IterKind = "initial-push"
)

// IterRecord is the per-iteration telemetry row used to regenerate Fig 3,
// Fig 7/8, Table VI and Table VII. It is the one iteration record of the
// repository: the kernels fill it, cc exposes it as IterationStats, and
// obs.TraceRecord embeds it, so its JSON tags are the trace/v1 wire names.
type IterRecord struct {
	Index       int           `json:"iter"`         // iteration number, counting the initial push as 0
	Kind        IterKind      `json:"kind"`         // traversal direction chosen
	Active      int64         `json:"active"`       // active vertices at iteration start (frontier size)
	ActiveEdges int64         `json:"active_edges"` // summed degree of the frontier at iteration start (|F.E|)
	Changed     int64         `json:"changed"`      // vertices whose label changed this iteration
	Zero        int64         `json:"zero"`         // vertices holding label 0 at iteration end
	Edges       int64         `json:"edges"`        // edges processed during this iteration
	Density     float64       `json:"density"`      // (|F.V|+|F.E|)/|E| density that drove the direction choice
	Threshold   float64       `json:"threshold"`    // push/pull density threshold the decision was made against
	Duration    time.Duration `json:"duration_ns"`  // wall time of the iteration, integer nanoseconds on the wire
}

// Trace collects per-iteration records of one algorithm run. A nil *Trace is
// valid; all methods no-op. If OnIteration is set it is invoked at the end
// of every iteration with the record and the labels array as it stands at
// that moment; the harness uses this to compute converged-to-final
// percentages against an oracle (Fig 3 / Fig 7). The callback must not
// retain or mutate labels.
type Trace struct {
	Iters       []IterRecord
	OnIteration func(rec IterRecord, labels []uint32)
}

// Record appends rec and fires the callback.
func (t *Trace) Record(rec IterRecord, labels []uint32) {
	if t == nil {
		return
	}
	t.Iters = append(t.Iters, rec)
	if t.OnIteration != nil {
		t.OnIteration(rec, labels)
	}
}

// Enabled reports whether t collects records.
func (t *Trace) Enabled() bool { return t != nil }
