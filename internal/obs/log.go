package obs

import (
	"context"
	"io"
	"log/slog"

	"thriftylp/cc"
	"thriftylp/internal/counters"
)

// NewLogger builds the CLIs' structured logger: text or JSON handler on w at
// the given level. Pass slog.LevelDebug to see per-iteration events;
// slog.LevelInfo shows run lifecycle and phase switches only.
func NewLogger(w io.Writer, level slog.Level, json bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if json {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// NopLogger returns a logger that discards everything, so call sites can log
// unconditionally instead of nil-checking.
func NopLogger() *slog.Logger {
	return slog.New(slog.DiscardHandler)
}

// RunLogger narrates one run's lifecycle on a slog.Logger: a start event,
// per-iteration debug events, phase-switch info events (the moment the
// direction decision flips, with the frontier density that drove it), and a
// done/canceled event. It consumes the iteration stream after the run — it
// adds nothing to the traversal itself.
type RunLogger struct {
	Log *slog.Logger
}

// Start logs the run-start event.
func (l RunLogger) Start(algo cc.Algorithm, vertices int, edges int64, threads int) {
	l.Log.Info("run start",
		"algo", string(algo), "vertices", vertices, "edges", edges, "threads", threads)
}

// Iterations logs the run's iteration stream: every iteration at debug level
// and an info event at each phase switch explaining the direction decision.
func (l RunLogger) Iterations(algo cc.Algorithm, iters []cc.IterationStats) {
	var prev counters.IterKind
	for _, it := range iters {
		if it.Kind != prev {
			l.Log.Info("phase switch",
				"algo", string(algo), "iter", it.Index, "from", string(prev), "to", string(it.Kind),
				"active", it.Active, "active_edges", it.ActiveEdges,
				"density", it.Density, "threshold", it.Threshold)
			prev = it.Kind
		}
		if l.Log.Enabled(context.Background(), slog.LevelDebug) {
			l.Log.Debug("iteration",
				"algo", string(algo), "iter", it.Index, "kind", string(it.Kind),
				"active", it.Active, "active_edges", it.ActiveEdges,
				"changed", it.Changed, "edges", it.Edges,
				"density", it.Density, "threshold", it.Threshold,
				"duration", it.Duration)
		}
	}
}

// Done logs the run-complete event with its headline telemetry.
func (l RunLogger) Done(res *cc.Result) {
	attrs := []any{"iterations", res.Iterations, "components", res.NumComponents()}
	if st := res.Stats; st != nil {
		attrs = append(attrs,
			"algo", string(st.Algorithm),
			"duration", st.Duration,
			"partitions_owned", st.Sched.PartitionsOwned,
			"partitions_stolen", st.Sched.PartitionsStolen)
	}
	l.Log.Info("run done", attrs...)
}

// Canceled logs a cooperative-cancellation event.
func (l RunLogger) Canceled(err *cc.CanceledError) {
	l.Log.Warn("run canceled",
		"algo", string(err.Algorithm), "iterations", err.Iterations,
		"phase", err.Phase, "cause", err.Err)
}
