package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/parallel"
)

// The chaos suite runs the kernels under scheduling fault injection. The
// tests are named TestChaos* so CI can select exactly this suite with
// -run Chaos -race: descheduling workers mid-traversal widens the benign
// race windows the paper's design tolerates (the non-atomic worklist dedup
// marks and the unified labels array, §IV-A/§V-A) far beyond what natural
// scheduling reaches, and injected panics drive the pool's recovery paths
// from arbitrary depths inside a parallel region.

// chaosGraph is a moderately sized skewed graph so the injected
// perturbations land inside real multi-iteration runs.
func chaosGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(11, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestChaosGoschedPreservesCorrectness: with a Gosched injected at every
// 101st hook event, every algorithm must still agree with the sequential
// oracle — the paper's benign races must stay benign under hostile
// scheduling.
func TestChaosGoschedPreservesCorrectness(t *testing.T) {
	g := chaosGraph(t)
	oracle := SeqCC(g)
	for _, a := range algorithmsUnderTest {
		t.Run(a.name, func(t *testing.T) {
			res := a.run(g, Config{Faults: &FaultPlan{GoschedEvery: 101}})
			if res.Canceled {
				t.Fatalf("%s: chaos run spuriously cancelled", a.name)
			}
			if !Equivalent(res.Labels, oracle) {
				t.Fatalf("%s: labels diverge from oracle under Gosched injection", a.name)
			}
		})
	}
}

// TestChaosDelayPreservesCorrectness: sparse microsecond sleeps stretch the
// windows between a label load and its dependent store — the exact interval
// in which another worker's write can be lost benignly (labels only
// decrease) but never incorrectly.
func TestChaosDelayPreservesCorrectness(t *testing.T) {
	g := chaosGraph(t)
	oracle := SeqCC(g)
	plan := &FaultPlan{DelayEvery: 7919, Delay: 50 * time.Microsecond}
	for _, a := range algorithmsUnderTest {
		t.Run(a.name, func(t *testing.T) {
			res := a.run(g, Config{Faults: plan})
			if !Equivalent(res.Labels, oracle) {
				t.Fatalf("%s: labels diverge from oracle under delay injection", a.name)
			}
		})
	}
	// The other one-array program on the same sweeps: its fixed point is
	// the BFS distance from the hub.
	t.Run("hop-distance-unified", func(t *testing.T) {
		root := g.MaxDegreeVertex()
		res := HopDistanceUnified(g, root, Config{Faults: plan})
		if !slices.Equal(res.Labels, bfsOracle(g, root)) {
			t.Fatal("hop distances diverge from BFS under delay injection")
		}
	})
}

// TestChaosInjectedPanicIsRecovered: a panic injected mid-traversal must
// surface as a *parallel.PanicError from the pool (not a deadlock, not a
// crash), and the same pool must complete a clean run immediately after.
func TestChaosInjectedPanicIsRecovered(t *testing.T) {
	g := chaosGraph(t)
	oracle := SeqCC(g)
	pool := parallel.NewPool(4)
	defer pool.Close()

	// Calibrate: count one clean chaos run's hook events, then schedule the
	// panic somewhere in the middle of a second run.
	calibrate := &FaultPlan{}
	Thrifty(g, Config{Faults: calibrate, Pool: pool})
	if calibrate.Events() == 0 {
		t.Fatal("calibration run observed no hook events")
	}

	plan := &FaultPlan{PanicAt: calibrate.Events() / 2}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("injected panic did not propagate")
			}
			pe, ok := r.(*parallel.PanicError)
			if !ok {
				// The panic landed on the calling goroutine (sequential
				// push path) rather than a worker; the raw value is fine.
				if !strings.Contains(toString(r), "injected fault") {
					t.Fatalf("unexpected panic value %v", r)
				}
				return
			}
			if !strings.Contains(pe.Error(), "injected fault") {
				t.Fatalf("unexpected worker panic %v", pe)
			}
			if len(pe.Stack) == 0 {
				t.Fatal("worker panic lost its stack")
			}
		}()
		Thrifty(g, Config{Faults: plan, Pool: pool})
	}()

	// The pool must have drained cleanly: a follow-up run on the same pool
	// must converge to the oracle.
	res := Thrifty(g, Config{Pool: pool})
	if !Equivalent(res.Labels, oracle) {
		t.Fatal("pool produced wrong labels after recovered injected panic")
	}
}

// TestChaosCancellationUnderInjection: cancellation and fault injection
// compose — a stop requested mid-chaos-run is honoured at the next
// boundary even while the scheduler is being perturbed.
func TestChaosCancellationUnderInjection(t *testing.T) {
	g := chaosGraph(t)
	stop := &Stop{}
	stop.Request()
	res := Thrifty(g, Config{
		Faults: &FaultPlan{GoschedEvery: 101},
		Stop:   stop,
	})
	if !res.Canceled {
		t.Fatal("pre-requested stop ignored under fault injection")
	}
	if res.Iterations > 2 {
		t.Fatalf("cancelled chaos run executed %d iterations", res.Iterations)
	}
}

// TestChaosEventsObserved: sanity-check that the counting policy actually
// ticks the fault plan — every kernel counts through the policy, so a run
// of any of them under a plan must tick hook events.
func TestChaosEventsObserved(t *testing.T) {
	g := chaosGraph(t)
	for _, a := range algorithmsUnderTest {
		plan := &FaultPlan{}
		a.run(g, Config{Faults: plan})
		if plan.Events() == 0 {
			t.Errorf("%s: no hook events ticked under a fault plan", a.name)
		}
	}
}

func toString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	if e, ok := v.(error); ok {
		return e.Error()
	}
	return ""
}
