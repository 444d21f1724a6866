package harness

import (
	"fmt"

	"thriftylp/cc"
	"thriftylp/internal/core"
)

// The experiments in this file go beyond the paper's evaluation section:
// finer-grained ablations of Thrifty's design choices (DESIGN.md §4 calls
// these out), the §VII future-work direction (distributed processing), and
// a thread-scaling sweep replacing the paper's two-architecture comparison.

// ExpAblations decomposes Thrifty's techniques one switch at a time, an
// extension of Fig 9/10's two-way split: full Thrifty vs no-initial-push vs
// structure-oblivious planting (vertex 0) vs eager frontier bookkeeping vs
// the DO-LP endpoints.
func ExpAblations(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "ablations",
		Title:   "Per-technique ablation of Thrifty (ms; extension experiment)",
		Columns: []string{"Dataset", "Thrifty", "no-initial-push", "plant-at-v0", "eager-frontier", "dynamic-sched", "DO-LP+Unified", "DO-LP"},
		Notes: []string{
			"Each column disables exactly one design choice; DO-LP+Unified and DO-LP are the Fig 9/10 endpoints.",
		},
	}
	type variant struct {
		algo cc.Algorithm
		opts []cc.Option
	}
	variants := []variant{
		{cc.AlgoThrifty, nil},
		{cc.AlgoThrifty, []cc.Option{cc.WithoutInitialPush()}},
		{cc.AlgoThrifty, []cc.Option{cc.WithPlantVertex(0)}},
		{cc.AlgoThrifty, []cc.Option{cc.WithEagerPullFrontier()}},
		{cc.AlgoThrifty, []cc.Option{cc.WithDynamicScheduling()}},
		{cc.AlgoDOLPUnified, nil},
		{cc.AlgoDOLP, nil},
	}
	for _, d := range SkewedSuite(cfg.scale()) {
		g, err := BuildCached(cfg.scale(), d)
		if err != nil {
			return nil, err
		}
		row := []interface{}{d.Name}
		for _, v := range variants {
			dur, _, err := TimeAlgorithm(v.algo, g, cfg, v.opts...)
			if err != nil {
				return nil, err
			}
			row = append(row, Millis(dur))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ExpDistributed measures the sharded out-of-core pipeline (internal/dist
// driving internal/shard): exchange rounds and compacted vs naive boundary
// traffic across shard counts, on a hub-heavy and a high-diameter dataset.
func ExpDistributed(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "dist",
		Title:   "Sharded out-of-core CC: compacted boundary exchange vs naive (extension experiment)",
		Columns: []string{"Dataset", "Shards", "Rounds", "Boundary", "Exchanged B", "Naive B", "Suppressed"},
		Notes: []string{
			"Per-shard union-find collapse of the interior, then compacted boundary-label exchange (delta-only emission, zero-convergence suppression, varint deltas); Naive is the same boundary at 8 flat bytes per entry every round.",
		},
	}
	for _, name := range []string{"social-twitter", "web-uk"} {
		d, err := FindDataset(cfg.scale(), name)
		if err != nil {
			return nil, err
		}
		g, err := BuildCached(cfg.scale(), d)
		if err != nil {
			return nil, err
		}
		oracle := cc.Sequential(g)
		for _, shards := range []int{2, 4, 8, 16} {
			res, err := cc.Run(cc.AlgoShard, g, cc.WithShards(shards))
			if err != nil {
				return nil, err
			}
			if !cc.Equivalent(res.Labels, oracle) {
				return nil, fmt.Errorf("dist run shards=%d wrong partition", shards)
			}
			st := res.Stats.Shard
			t.AddRow(d.Name, shards, st.Rounds, st.BoundaryEntries,
				st.ExchangedBytes, st.NaiveBytes, st.SuppressedVertices)
		}
	}
	return t, nil
}

// ExpConnectIt fills the comparison the paper could not run (§VI: "We
// attempted to evaluate ConnectIt but its code repository ... could not be
// compiled"): Afforest vs two ConnectIt framework points vs Thrifty.
func ExpConnectIt(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "connectit",
		Title:   "ConnectIt-style sampling variants vs Afforest vs Thrifty (ms; extension)",
		Columns: []string{"Dataset", "Afforest", "ConnectIt-kout", "ConnectIt-BFS", "Thrifty"},
		Notes: []string{
			"k-out and BFS sampling are two points of the ConnectIt framework; all union-find columns share the Afforest-style skip-the-giant finish.",
		},
	}
	algos := []cc.Algorithm{cc.AlgoAfforest, cc.AlgoConnectItKOut, cc.AlgoConnectItBFS, cc.AlgoThrifty}
	for _, d := range SkewedSuite(cfg.scale()) {
		g, err := BuildCached(cfg.scale(), d)
		if err != nil {
			return nil, err
		}
		row := []interface{}{d.Name}
		for _, a := range algos {
			dur, _, err := TimeAlgorithm(a, g, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, Millis(dur))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ExpAsync measures the §VII correspondence between the Unified Labels
// Array and asynchronous execution: iterations of the DO-LP loop with two
// labels arrays (synchronous) vs one (asynchronous), for connected
// components (DOLP vs DOLPUnified) and for BFS hop distance (HopDistance vs
// HopDistanceUnified). All four run at Thrifty's 1% threshold, so sparse
// frontiers still pull: a push cannot chain hops within a sweep.
func ExpAsync(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "async",
		Title:   "Sync vs async min-propagation on the DO-LP sweeps (iterations; extension)",
		Columns: []string{"Dataset", "CC sync", "CC async", "BFS sync", "BFS async"},
		Notes: []string{
			"Async (unified array) lets values travel multiple hops per sweep; the iteration gap is the paper's unified-arrays ⇔ asynchronous-execution link (§VII).",
		},
	}
	kc := core.Config{Threshold: core.DefaultThriftyThreshold}
	for _, d := range Suite(cfg.scale()) {
		g, err := BuildCached(cfg.scale(), d)
		if err != nil {
			return nil, err
		}
		ccSync := core.DOLP(g, kc)
		ccAsync := core.DOLPUnified(g, kc)
		root := g.MaxDegreeVertex()
		bfsSync := core.HopDistance(g, root, kc)
		bfsAsync := core.HopDistanceUnified(g, root, kc)
		t.AddRow(d.Name, ccSync.Iterations, ccAsync.Iterations, bfsSync.Iterations, bfsAsync.Iterations)
	}
	return t, nil
}

// ExpScaling sweeps worker-pool sizes, the stand-in for the paper's
// SkylakeX-vs-Epyc dimension: on a multicore host it shows each algorithm's
// scalability; on a single-core host it shows the (small) overhead of
// spawning idle workers.
func ExpScaling(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "scaling",
		Title:   "Thread scaling (ms; extension experiment replacing the 2-architecture comparison)",
		Columns: []string{"Dataset", "Algorithm", "1 thread", "2", "4", "8"},
		Notes: []string{
			"The paper's cross-architecture claim is ranking stability; rankings here are work-driven and thread-count independent.",
		},
	}
	threadCounts := []int{1, 2, 4, 8}
	for _, name := range []string{"social-twitter", "road-gb"} {
		d, err := FindDataset(cfg.scale(), name)
		if err != nil {
			return nil, err
		}
		g, err := BuildCached(cfg.scale(), d)
		if err != nil {
			return nil, err
		}
		for _, a := range []cc.Algorithm{cc.AlgoThrifty, cc.AlgoAfforest, cc.AlgoDOLP} {
			row := []interface{}{name, string(a)}
			for _, tc := range threadCounts {
				c2 := cfg
				c2.Threads = tc
				dur, _, err := TimeAlgorithm(a, g, c2)
				if err != nil {
					return nil, err
				}
				row = append(row, Millis(dur))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}
