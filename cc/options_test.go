package cc_test

import (
	"testing"

	"thriftylp/cc"
	"thriftylp/graph/gen"
)

func TestRunUnknownAlgorithm(t *testing.T) {
	g, err := gen.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Run(cc.Algorithm("nope"), g); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestWithThreadsMatchesDefault(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(11, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	def := cc.Thrifty(g)
	for _, threads := range []int{1, 2, 4} {
		res, err := cc.Run(cc.AlgoThrifty, g, cc.WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		if !cc.Equivalent(def.Labels, res.Labels) {
			t.Fatalf("threads=%d produced a different partition", threads)
		}
	}
}

func TestWithThresholdChangesSchedule(t *testing.T) {
	g, err := gen.Web(gen.WebConfig{CoreScale: 10, CoreEdgeFactor: 8, NumChains: 16, ChainLength: 64, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	oracle := cc.Sequential(g)
	// Extreme thresholds force all-pull vs nearly-all-push schedules; both
	// must still be correct.
	for _, th := range []float64{1e-9, 0.5, 10} {
		res, err := cc.Run(cc.AlgoThrifty, g, cc.WithThreshold(th))
		if err != nil {
			t.Fatal(err)
		}
		if !cc.Equivalent(res.Labels, oracle) {
			t.Fatalf("threshold=%v broke correctness", th)
		}
	}
	// threshold=10 (always below density) keeps Thrifty pulling: no pushes
	// beyond the mandatory initial push.
	res, err := cc.Run(cc.AlgoThrifty, g, cc.WithThreshold(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	if res.PushIterations != 1 {
		t.Fatalf("threshold ~0 should allow only the initial push, got %d push iterations", res.PushIterations)
	}
}

func TestInstrumentationPopulated(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	inst := &cc.Instrumentation{}
	res, err := cc.Run(cc.AlgoThrifty, g, cc.WithInstrumentation(inst))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Events["edges"] <= 0 {
		t.Fatalf("edges event missing: %v", inst.Events)
	}
	if len(inst.Iterations) != res.Iterations {
		t.Fatalf("%d iteration records for %d iterations", len(inst.Iterations), res.Iterations)
	}
	if inst.Iterations[0].Kind != "initial-push" {
		t.Fatalf("iteration 0 kind %q", inst.Iterations[0].Kind)
	}
	var sum int64
	for _, it := range inst.Iterations {
		sum += it.Edges
	}
	if sum != inst.Events["edges"] {
		t.Fatalf("per-iteration edges %d != total %d", sum, inst.Events["edges"])
	}
	// Zero-convergence telemetry: final iteration's zero count equals the
	// giant component size.
	_, giant := res.LargestComponent()
	last := inst.Iterations[len(inst.Iterations)-1]
	if last.Zero != giant {
		t.Fatalf("final zero count %d != giant size %d", last.Zero, giant)
	}
}

func TestInstrumentationCallback(t *testing.T) {
	g, err := gen.Star(1000)
	if err != nil {
		t.Fatal(err)
	}
	inst := &cc.Instrumentation{}
	calls := 0
	inst.OnIteration = func(it cc.IterationStats, labels []uint32) {
		calls++
		if len(labels) != 1000 {
			t.Fatalf("callback labels len %d", len(labels))
		}
	}
	res, err := cc.Run(cc.AlgoThrifty, g, cc.WithInstrumentation(inst))
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Iterations {
		t.Fatalf("callback fired %d times for %d iterations", calls, res.Iterations)
	}
}

func TestWithMaxIterations(t *testing.T) {
	g, err := gen.Path(10000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cc.Run(cc.AlgoDOLP, g, cc.WithMaxIterations(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 2 {
		t.Fatalf("cap ignored: %d iterations", res.Iterations)
	}
}

func TestResultHelpers(t *testing.T) {
	g, err := gen.Components(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := cc.Afforest(g)
	if res.NumComponents() != 3 {
		t.Fatalf("NumComponents = %d", res.NumComponents())
	}
	sizes := res.ComponentSizes()
	if len(sizes) != 3 {
		t.Fatalf("ComponentSizes = %v", sizes)
	}
	for _, s := range sizes {
		if s != 5 {
			t.Fatalf("component size %d, want 5", s)
		}
	}
	_, largest := res.LargestComponent()
	if largest != 5 {
		t.Fatalf("LargestComponent size = %d", largest)
	}
	if !res.SameComponent(0, 4) || res.SameComponent(0, 5) {
		t.Fatal("SameComponent wrong")
	}
	if res.ComponentOf(6) != res.Labels[6] {
		t.Fatal("ComponentOf wrong")
	}
}

func TestAlgorithmsListStable(t *testing.T) {
	algos := cc.Algorithms()
	if len(algos) != 13 {
		t.Fatalf("Algorithms() has %d entries", len(algos))
	}
	if algos[0] != cc.AlgoThrifty {
		t.Fatal("Thrifty not first")
	}
	if algos[len(algos)-1] != cc.AlgoAuto {
		t.Fatal("auto selector not last")
	}
	seen := map[cc.Algorithm]bool{}
	for _, a := range algos {
		if seen[a] {
			t.Fatalf("duplicate %s", a)
		}
		seen[a] = true
	}
}

func TestEmptyGraphAllAlgorithms(t *testing.T) {
	g, err := gen.Empty(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range cc.Algorithms() {
		res, err := cc.Run(a, g)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if len(res.Labels) != 0 {
			t.Fatalf("%s returned labels for empty graph", a)
		}
		if res.NumComponents() != 0 {
			t.Fatalf("%s: %d components on empty graph", a, res.NumComponents())
		}
	}
}
