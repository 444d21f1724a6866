package harness

import (
	"fmt"
	"strings"

	"thriftylp/cc"
	"thriftylp/graph"
	"thriftylp/graph/gen"
)

// Fig1 reproduces Figure 1: the geometric-mean speedup of Thrifty over each
// competing algorithm across the skewed-degree suite. The paper reports
// 51.2x (SV), 14.7x (BFS-CC), 25.2x (DO-LP), 7.3x (JT), 1.4x (Afforest);
// absolute factors here differ with machine and scale, the ordering should
// not.
func Fig1(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "fig1",
		Title:   "Geomean speedup of Thrifty vs prior CC algorithms (skewed datasets)",
		Columns: []string{"Baseline", "Geomean speedup", "Min", "Max"},
		Notes: []string{
			"Paper Fig 1: SV 51.2x, DO-LP 25.2x, BFS-CC 14.7x, JT 7.3x, Afforest 1.4x. Expect the same ordering.",
		},
	}
	baselines := []cc.Algorithm{cc.AlgoSV, cc.AlgoDOLP, cc.AlgoBFSCC, cc.AlgoJayantiT, cc.AlgoAfforest}
	speedups := make(map[cc.Algorithm][]float64)
	for _, d := range SkewedSuite(cfg.scale()) {
		g, err := BuildCached(cfg.scale(), d)
		if err != nil {
			return nil, err
		}
		thr, _, err := TimeAlgorithm(cc.AlgoThrifty, g, cfg)
		if err != nil {
			return nil, err
		}
		for _, a := range baselines {
			dur, _, err := TimeAlgorithm(a, g, cfg)
			if err != nil {
				return nil, err
			}
			speedups[a] = append(speedups[a], float64(dur)/float64(thr))
		}
	}
	for _, a := range baselines {
		vs := speedups[a]
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		t.AddRow(string(a), fmt.Sprintf("%.1fx", Geomean(vs)), fmt.Sprintf("%.1fx", lo), fmt.Sprintf("%.1fx", hi))
	}
	return t, nil
}

// Fig2 reproduces Figure 2's walkthrough: the per-iteration label arrays of
// DO-LP vs Thrifty on the fringe-feeds-core example graph, showing the
// repeated wavefronts of DO-LP and their elimination by Thrifty.
func Fig2(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "fig2",
		Title:   "Label propagation walkthrough on the Figure-2 example graph (vertices A..G)",
		Columns: []string{"Algorithm", "Iteration", "Kind", "Labels[A B C D E F G]"},
		Notes: []string{
			"DO-LP ripples A's small label into the core one hop per iteration; Thrifty plants 0 on hub E and converges in far fewer steps.",
		},
	}
	g, err := gen.PaperFigure2()
	if err != nil {
		return nil, err
	}
	for _, a := range []cc.Algorithm{cc.AlgoDOLP, cc.AlgoThrifty} {
		inst := &cc.Instrumentation{}
		inst.OnIteration = func(it cc.IterationStats, labels []uint32) {
			cells := make([]string, len(labels))
			for i, l := range labels {
				cells[i] = fmt.Sprintf("%d", l)
			}
			t.AddRow(string(a), it.Index, it.Kind, strings.Join(cells, " "))
		}
		if _, err := cc.Run(a, g, cfg.opts(cc.WithInstrumentation(inst))...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// convergenceRow is one iteration of a convergence profile.
type convergenceRow struct {
	Index        int
	Kind         string
	ActivePct    float64
	ConvergedPct float64
}

// convergenceProfile measures, per iteration, the fraction of active
// vertices and the fraction already holding their final label. The run is
// executed twice: once to learn the final labels (deterministic for these
// algorithms), once instrumented with a per-iteration comparison.
func convergenceProfile(a cc.Algorithm, g *graph.Graph, cfg RunConfig) ([]convergenceRow, error) {
	final, err := cc.Run(a, g, cfg.opts()...)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	var rows []convergenceRow
	inst := &cc.Instrumentation{}
	inst.OnIteration = func(it cc.IterationStats, labels []uint32) {
		conv := 0
		for i, l := range labels {
			if l == final.Labels[i] {
				conv++
			}
		}
		rows = append(rows, convergenceRow{
			Index:        it.Index,
			Kind:         string(it.Kind),
			ActivePct:    100 * float64(it.Active) / float64(n),
			ConvergedPct: 100 * float64(conv) / float64(n),
		})
	}
	if _, err := cc.Run(a, g, cfg.opts(cc.WithInstrumentation(inst))...); err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig3 reproduces Figure 3: DO-LP's per-iteration active% and converged%
// on a Twitter-like graph — slow convergence in the first iterations, a
// burst in the middle, and redundant activity (high active% while high
// converged%) thereafter.
func Fig3(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "DO-LP per-iteration activity vs convergence (social-twitter analog)",
		Columns: []string{"Iteration", "Kind", "Active %", "Converged-to-final %"},
		Notes: []string{
			"Paper Fig 3: convergence is slow initially, 30-60% of vertices converge in one middle iteration, and later iterations preach to the converged.",
		},
	}
	d, err := FindDataset(cfg.scale(), "social-twitter")
	if err != nil {
		return nil, err
	}
	g, err := BuildCached(cfg.scale(), d)
	if err != nil {
		return nil, err
	}
	rows, err := convergenceProfile(cc.AlgoDOLP, g, cfg)
	if err != nil {
		return nil, err
	}
	active := Series{Name: "active %"}
	conv := Series{Name: "converged %"}
	for _, r := range rows {
		t.AddRow(r.Index, r.Kind, fmt.Sprintf("%.1f", r.ActivePct), fmt.Sprintf("%.1f", r.ConvergedPct))
		active.Values = append(active.Values, r.ActivePct)
		conv.Values = append(conv.Values, r.ConvergedPct)
	}
	t.Chart = AsciiChart("DO-LP activity vs convergence", "it", active, conv)
	return t, nil
}

// Fig5 reproduces Figure 5: Thrifty's speedup over DO-LP together with the
// percentage of edge traversals each performs relative to |E| (directed
// slots). The paper: DO-LP processes each edge 7.7x on average; Thrifty
// touches only ~1.4% of the edges.
func Fig5(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "Thrifty vs DO-LP: speedup and processed edges",
		Columns: []string{"Dataset", "Speedup", "DO-LP edges (x|E|)", "Thrifty edges (% of |E|)"},
		Notes: []string{
			"Paper Fig 5: Thrifty processes <= 4.4% of edges (avg 1.4%); DO-LP processes each edge ~7.7x.",
		},
	}
	var thrPct, dolpX []float64
	for _, d := range SkewedSuite(cfg.scale()) {
		g, err := BuildCached(cfg.scale(), d)
		if err != nil {
			return nil, err
		}
		durD, _, err := TimeAlgorithm(cc.AlgoDOLP, g, cfg)
		if err != nil {
			return nil, err
		}
		durT, _, err := TimeAlgorithm(cc.AlgoThrifty, g, cfg)
		if err != nil {
			return nil, err
		}
		instD, instT := &cc.Instrumentation{}, &cc.Instrumentation{}
		if _, err := cc.Run(cc.AlgoDOLP, g, cfg.opts(cc.WithInstrumentation(instD))...); err != nil {
			return nil, err
		}
		if _, err := cc.Run(cc.AlgoThrifty, g, cfg.opts(cc.WithInstrumentation(instT))...); err != nil {
			return nil, err
		}
		m := float64(g.NumDirectedEdges())
		dX := float64(instD.Events["edges"]) / m
		tP := 100 * float64(instT.Events["edges"]) / m
		dolpX = append(dolpX, dX)
		thrPct = append(thrPct, tP)
		t.AddRow(d.Name, fmt.Sprintf("%.1fx", float64(durD)/float64(durT)),
			fmt.Sprintf("%.1fx", dX), fmt.Sprintf("%.2f%%", tP))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("Measured averages: DO-LP %.1fx|E|, Thrifty %.2f%% of |E|.",
		Geomean(dolpX), Geomean(thrPct)))
	return t, nil
}

// fig6Metrics maps the paper's four hardware counters to our software
// proxies (DESIGN.md §5).
var fig6Metrics = []struct {
	Name string
	Eval func(ev map[string]int64) float64
}{
	{"LLC misses (cache-line proxy)", func(ev map[string]int64) float64 { return float64(ev["cache-lines"]) }},
	{"Memory accesses (label loads+stores)", func(ev map[string]int64) float64 {
		return float64(ev["label-loads"] + ev["label-stores"])
	}},
	{"Branch work (branch-checks)", func(ev map[string]int64) float64 { return float64(ev["branch-checks"]) }},
	{"Instructions (edges+visits)", func(ev map[string]int64) float64 {
		return float64(ev["edges"] + ev["vertex-visits"])
	}},
}

// Fig6 reproduces Figure 6: the reduction of Thrifty vs DO-LP in the four
// counter classes, as geomean across the skewed suite. The paper reports a
// >= 80% cut in every class.
func Fig6(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "fig6",
		Title:   "Work reduction of Thrifty vs DO-LP (software counter proxies)",
		Columns: []string{"Metric", "Geomean reduction %", "Min %", "Max %"},
		Notes: []string{
			"Paper Fig 6: Thrifty cuts >= 80% of LLC misses, memory accesses, branch mispredictions and instructions.",
		},
	}
	reductions := make([][]float64, len(fig6Metrics))
	for _, d := range SkewedSuite(cfg.scale()) {
		g, err := BuildCached(cfg.scale(), d)
		if err != nil {
			return nil, err
		}
		instD, instT := &cc.Instrumentation{}, &cc.Instrumentation{}
		if _, err := cc.Run(cc.AlgoDOLP, g, cfg.opts(cc.WithInstrumentation(instD))...); err != nil {
			return nil, err
		}
		if _, err := cc.Run(cc.AlgoThrifty, g, cfg.opts(cc.WithInstrumentation(instT))...); err != nil {
			return nil, err
		}
		for i, m := range fig6Metrics {
			dv, tv := m.Eval(instD.Events), m.Eval(instT.Events)
			if dv > 0 {
				reductions[i] = append(reductions[i], 100*(1-tv/dv))
			}
		}
	}
	for i, m := range fig6Metrics {
		vs := reductions[i]
		if len(vs) == 0 {
			continue
		}
		lo, hi := vs[0], vs[0]
		var sum float64
		for _, v := range vs {
			sum += v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		t.AddRow(m.Name, fmt.Sprintf("%.1f", sum/float64(len(vs))), fmt.Sprintf("%.1f", lo), fmt.Sprintf("%.1f", hi))
	}
	return t, nil
}

// Fig7 reproduces Figures 7/8: converged-to-final percentage per iteration
// for DO-LP vs Thrifty. The paper: DO-LP reaches only 34.8% convergence
// after four pull iterations; Thrifty reaches 88.3% after its first pull.
func Fig7(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "Converged vertices per iteration: DO-LP vs Thrifty (social-twitter analog)",
		Columns: []string{"Iteration", "DO-LP converged %", "Thrifty converged %", "Thrifty kind"},
		Notes: []string{
			"Paper Fig 7/8: Thrifty converges ~88% of vertices in its first pull iteration; DO-LP needs many iterations to pass 35%.",
		},
	}
	d, err := FindDataset(cfg.scale(), "social-twitter")
	if err != nil {
		return nil, err
	}
	g, err := BuildCached(cfg.scale(), d)
	if err != nil {
		return nil, err
	}
	rd, err := convergenceProfile(cc.AlgoDOLP, g, cfg)
	if err != nil {
		return nil, err
	}
	rt, err := convergenceProfile(cc.AlgoThrifty, g, cfg)
	if err != nil {
		return nil, err
	}
	rows := len(rd)
	if len(rt) > rows {
		rows = len(rt)
	}
	sd := Series{Name: "DO-LP converged %"}
	st := Series{Name: "Thrifty converged %"}
	for i := 0; i < rows; i++ {
		dc, tc, kind := "-", "-", "-"
		if i < len(rd) {
			dc = fmt.Sprintf("%.1f", rd[i].ConvergedPct)
			sd.Values = append(sd.Values, rd[i].ConvergedPct)
		}
		if i < len(rt) {
			tc = fmt.Sprintf("%.1f", rt[i].ConvergedPct)
			kind = rt[i].Kind
			st.Values = append(st.Values, rt[i].ConvergedPct)
		}
		t.AddRow(i, dc, tc, kind)
	}
	t.Chart = AsciiChart("Converged-to-final per iteration", "it", sd, st)
	return t, nil
}

// Fig9 reproduces Figures 9/10: the ablation splitting Thrifty's total
// improvement over DO-LP into the Unified Labels Array share vs the
// combined Zero Convergence + Zero Planting + Initial Push share, via the
// intermediate DO-LP+Unified variant.
func Fig9(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "Ablation: contribution of Unified Labels vs the zero-label techniques",
		Columns: []string{"Dataset", "DO-LP (ms)", "+Unified (ms)", "Thrifty (ms)", "Unified share %", "Zero-techniques share %"},
		Notes: []string{
			"Paper Fig 9/10: on average ~65% of the improvement comes from Unified Labels, ~35% from the zero-label techniques.",
		},
	}
	var shares []float64
	for _, d := range SkewedSuite(cfg.scale()) {
		g, err := BuildCached(cfg.scale(), d)
		if err != nil {
			return nil, err
		}
		durD, _, err := TimeAlgorithm(cc.AlgoDOLP, g, cfg)
		if err != nil {
			return nil, err
		}
		durU, _, err := TimeAlgorithm(cc.AlgoDOLPUnified, g, cfg)
		if err != nil {
			return nil, err
		}
		durT, _, err := TimeAlgorithm(cc.AlgoThrifty, g, cfg)
		if err != nil {
			return nil, err
		}
		total := float64(durD - durT)
		share := 0.0
		if total > 0 {
			share = 100 * float64(durD-durU) / total
			if share < 0 {
				share = 0
			}
			if share > 100 {
				share = 100
			}
			shares = append(shares, share)
		}
		t.AddRow(d.Name, Millis(durD), Millis(durU), Millis(durT),
			fmt.Sprintf("%.0f", share), fmt.Sprintf("%.0f", 100-share))
	}
	if len(shares) > 0 {
		var sum float64
		for _, s := range shares {
			sum += s
		}
		t.Notes = append(t.Notes, fmt.Sprintf("Measured average Unified Labels share: %.0f%%.", sum/float64(len(shares))))
	}
	return t, nil
}
