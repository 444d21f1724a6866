package cc_test

import (
	"testing"

	"thriftylp/cc"
	"thriftylp/graph/gen"
)

// TestAutoSelectorGoldenDecisions pins the decision policy: for each
// generator family the probe vector must steer AlgoAuto to the expected
// concrete algorithm, with the expected rule firing. These are goldens, not
// tautologies — a change to the probe or the policy that flips a family
// shows up here and must be justified by re-measurement (see DESIGN.md
// "Algorithm auto-selection").
func TestAutoSelectorGoldenDecisions(t *testing.T) {
	cases := []struct {
		name   string
		want   cc.Algorithm
		reason string
	}{
		{"empty", cc.AlgoThrifty, "trivial"},
		{"one-vertex", cc.AlgoThrifty, "trivial"},
		{"isolated-100", cc.AlgoThrifty, "trivial"},
		{"path-1000", cc.AlgoThrifty, "chain-like"},
		{"cycle-257", cc.AlgoThrifty, "chain-like"},
		{"star-5000", cc.AlgoBFSCC, "hub-dominated"},
		{"complete-40", cc.AlgoBFSCC, "uniform-degree"},
		{"cliques-7x13", cc.AlgoAfforest, "fragmented"},
		{"rmat-12", cc.AlgoThrifty, "skewed"},
		{"ba-3000", cc.AlgoThrifty, "skewed"},
		{"web-10", cc.AlgoThrifty, "skewed"},
		{"grid-64", cc.AlgoBFSCC, "uniform-degree"},
		{"er-4096", cc.AlgoBFSCC, "uniform-degree"},
	}
	fs := fixtures(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, ok := fs[tc.name]
			if !ok {
				t.Fatalf("no fixture %q", tc.name)
			}
			res, err := cc.Run(cc.AlgoAuto, g)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Algorithm != cc.AlgoAuto {
				t.Fatalf("Stats.Algorithm = %s, want auto", res.Stats.Algorithm)
			}
			if res.Stats.Selected != tc.want {
				t.Fatalf("selected %s (reason %q), want %s",
					res.Stats.Selected, probeReason(res), tc.want)
			}
			if got := probeReason(res); got != tc.reason {
				t.Fatalf("decision reason = %q, want %q", got, tc.reason)
			}
			if !cc.Equivalent(res.Labels, cc.Sequential(g)) {
				t.Fatal("auto-selected run disagrees with oracle")
			}
		})
	}
}

func probeReason(r cc.Result) string {
	if r.Stats == nil || r.Stats.Probe == nil {
		return "<nil probe>"
	}
	return r.Stats.Probe.Reason
}

// TestAutoIsDeterministic: the probe samples with a fixed seed, so the same
// graph must always resolve to the same algorithm.
func TestAutoIsDeterministic(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(13, 8, 9))
	if err != nil {
		t.Fatal(err)
	}
	first := cc.Auto(g)
	for i := 0; i < 5; i++ {
		if got := cc.Auto(g).Stats.Selected; got != first.Stats.Selected {
			t.Fatalf("run %d selected %s, first run selected %s", i, got, first.Stats.Selected)
		}
	}
}

// TestAutoReportsProbe: an auto run must surface the probe values and its
// cost; a direct run must not.
func TestAutoReportsProbe(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(12, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	res := cc.Auto(g)
	p := res.Stats.Probe
	if p == nil {
		t.Fatal("auto run has nil Probe")
	}
	if p.Vertices != g.NumVertices() || p.DirectedEdges != g.NumDirectedEdges() {
		t.Fatalf("probe counts %d/%d disagree with graph %d/%d",
			p.Vertices, p.DirectedEdges, g.NumVertices(), g.NumDirectedEdges())
	}
	if p.SkewRatio <= 0 || p.SampleSize <= 0 || p.Reason == "" {
		t.Fatalf("probe not populated: %+v", p)
	}
	if p.Cost <= 0 {
		t.Fatal("probe cost not measured")
	}
	if res.Stats.Duration < p.Cost {
		t.Fatal("run duration excludes probe cost")
	}

	direct := cc.Thrifty(g)
	if direct.Stats.Selected != "" || direct.Stats.Probe != nil {
		t.Fatal("direct run carries selector fields")
	}
}
