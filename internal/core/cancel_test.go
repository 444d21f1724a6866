package core

import (
	"testing"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/parallel"
)

// TestCancelPreRequestedStopsEveryAlgorithm: a Stop requested before the run
// starts must make every algorithm return promptly with Canceled set and a
// named phase, instead of running to convergence.
func TestCancelPreRequestedStopsEveryAlgorithm(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(12, 8, 3)))
	for _, a := range algorithmsUnderTest {
		t.Run(a.name, func(t *testing.T) {
			stop := &Stop{}
			stop.Request()
			res := a.run(g, Config{Stop: stop})
			if !res.Canceled {
				t.Fatalf("%s: Canceled = false after pre-requested stop", a.name)
			}
			if res.Phase == "" {
				t.Fatalf("%s: cancelled run reports empty Phase", a.name)
			}
			if len(res.Labels) != g.NumVertices() {
				t.Fatalf("%s: cancelled run returned %d labels, want %d",
					a.name, len(res.Labels), g.NumVertices())
			}
			// A pre-requested stop must be honoured within the first
			// iteration boundary (Thrifty additionally counts the initial
			// push as iteration 0).
			if res.Iterations > 2 {
				t.Fatalf("%s: cancelled run executed %d iterations", a.name, res.Iterations)
			}
		})
	}
}

// TestThriftyCancelAtInitialPushKeepsTelemetry: a run cancelled at the
// initial-push boundary leaves through the same exit as any other, so the
// initial push it did run stays in PhaseDurations.
func TestThriftyCancelAtInitialPushKeepsTelemetry(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(10, 8, 3)))
	stop := &Stop{}
	stop.Request()
	res := Thrifty(g, Config{Stop: stop})
	if !res.Canceled || res.Phase != "initial-push" {
		t.Fatalf("Canceled = %v, Phase = %q; want true, initial-push", res.Canceled, res.Phase)
	}
	if _, ok := res.PhaseDurations["initial-push"]; !ok {
		t.Fatalf("PhaseDurations = %v, want an initial-push entry", res.PhaseDurations)
	}
}

// TestThriftyNoInitialPushCancelNamesPull: under the NoInitialPush ablation
// no initial push runs, so a stop requested before the run cancels the
// first pull, and the run must say so rather than name the push it skipped.
func TestThriftyNoInitialPushCancelNamesPull(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(10, 8, 3)))
	stop := &Stop{}
	stop.Request()
	res := Thrifty(g, Config{Stop: stop, NoInitialPush: true})
	if !res.Canceled || res.Phase != "pull" || res.Iterations != 0 {
		t.Fatalf("Canceled = %v, Phase = %q, Iterations = %d; want true, pull, 0", res.Canceled, res.Phase, res.Iterations)
	}
	if _, ok := res.PhaseDurations["initial-push"]; ok {
		t.Fatalf("PhaseDurations = %v: no initial push ran", res.PhaseDurations)
	}
}

// TestCancelUnrequestedStopIsInert: passing a Stop that is never requested
// must not change the outcome — every algorithm still converges to the
// oracle partition and reports Canceled = false.
func TestCancelUnrequestedStopIsInert(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(10, 8, 3)))
	oracle := SeqCC(g)
	for _, a := range algorithmsUnderTest {
		t.Run(a.name, func(t *testing.T) {
			res := a.run(g, Config{Stop: &Stop{}})
			if res.Canceled {
				t.Fatalf("%s: Canceled = true without a stop request", a.name)
			}
			if res.Phase != "" {
				t.Fatalf("%s: completed run reports Phase %q", a.name, res.Phase)
			}
			if !Equivalent(res.Labels, oracle) {
				t.Fatalf("%s: labels diverge from oracle with inert Stop", a.name)
			}
		})
	}
}

// TestCancelConcurrentStopReturns: a stop requested from another goroutine
// mid-run must not hang, panic, or corrupt the result, whether it lands
// before, during, or after the run's own lifetime. Canceled may be either
// value depending on the race; the labels slice must always be complete.
func TestCancelConcurrentStopReturns(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(12, 8, 3)))
	for _, a := range algorithmsUnderTest {
		t.Run(a.name, func(t *testing.T) {
			stop := &Stop{}
			done := make(chan struct{})
			go func() {
				stop.Request()
				close(done)
			}()
			res := a.run(g, Config{Stop: stop})
			<-done
			if len(res.Labels) != g.NumVertices() {
				t.Fatalf("%s: %d labels, want %d", a.name, len(res.Labels), g.NumVertices())
			}
		})
	}
}

// TestCancelPoolRemainsUsable: cancelling a run must leave a shared pool fit
// for the next run — the cancelled run's skipped partitions must not leave
// workers wedged or counters skewed.
func TestCancelPoolRemainsUsable(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(10, 8, 3)))
	oracle := SeqCC(g)
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, a := range algorithmsUnderTest {
		t.Run(a.name, func(t *testing.T) {
			stop := &Stop{}
			stop.Request()
			if res := a.run(g, Config{Stop: stop, Pool: pool}); !res.Canceled {
				t.Fatalf("%s: cancelled run not marked Canceled", a.name)
			}
			res := a.run(g, Config{Pool: pool})
			if res.Canceled || !Equivalent(res.Labels, oracle) {
				t.Fatalf("%s: pool unusable after cancelled run", a.name)
			}
		})
	}
}

// TestStopNilSafety: the nil receiver convention lets kernels poll
// cfg.Stop.Requested() without guarding for the common no-cancellation case.
func TestStopNilSafety(t *testing.T) {
	var s *Stop
	if s.Requested() {
		t.Fatal("nil Stop reports requested")
	}
	s = &Stop{}
	if s.Requested() {
		t.Fatal("fresh Stop reports requested")
	}
	s.Request()
	if !s.Requested() {
		t.Fatal("requested Stop reports not requested")
	}
}

// TestCancelledLabelsAreRefinement: for the LP family, a cancelled run's
// labels must be an intermediate state of the monotone label-lowering
// process — every label no larger than the vertex's initial label and no
// smaller than the component minimum it is converging towards.
func TestCancelledLabelsAreRefinement(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(11, 8, 3)))
	oracle := SeqCC(g)
	lpFamily := []struct {
		name string
		run  func(*graph.Graph, Config) Result
		// offset converts a vertex id to its initial label (Thrifty plants
		// v+1, the rest use v).
		offset uint32
	}{
		{"dolp", DOLP, 0},
		{"dolp-unified", DOLPUnified, 0},
		{"lp", LP, 0},
	}
	for _, a := range lpFamily {
		t.Run(a.name, func(t *testing.T) {
			stop := &Stop{}
			stop.Request()
			res := a.run(g, Config{Stop: stop, MaxIterations: 1})
			for v, l := range res.Labels {
				if l > uint32(v)+a.offset {
					t.Fatalf("%s: label[%d] = %d above initial %d", a.name, v, l, uint32(v)+a.offset)
				}
				if l < oracle[v] {
					t.Fatalf("%s: label[%d] = %d below component minimum %d", a.name, v, l, oracle[v])
				}
			}
		})
	}
}
