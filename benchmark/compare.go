package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// benchSpec is the part of BENCHMARK.json that -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of -out files, each given as a
// comma-separated list with one file per run. For each workload and
// end-to-end metric it prints both sides' median and quartiles, the delta
// and the bound, and flags the metric "regressed" when the new median is
// worse than the old by more than the bound, or "unresolved" when either
// side's run-to-run spread (quartile distance over median) is wider than
// the bound and not every new run beats every old one. Exit codes: 0 no
// regression, 1 a regression, 2 unusable input, or runs from different
// hosts or with different -scale or -seconds.
func compareMain(args []string, specPath string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: -compare old.json[,old2.json...] new.json[,new2.json...]")
		return 2
	}
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var sides [2][]resultsFile
	for i, list := range args {
		for _, path := range strings.Split(list, ",") {
			var f resultsFile
			if err := readJSON(path, &f); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			if f.Schema != resultsSchema {
				fmt.Fprintf(stderr, "%s: schema %q, want %q\n", path, f.Schema, resultsSchema)
				return 2
			}
			sides[i] = append(sides[i], f)
		}
	}
	first := sides[0][0]
	host := first.Host
	for _, side := range sides {
		for _, f := range side {
			if f.Host != host {
				fmt.Fprintf(stderr, "host mismatch: %+v vs %+v\n", host, f.Host)
				return 2
			}
			if f.Scale != first.Scale || f.Seconds != first.Seconds {
				fmt.Fprintf(stderr, "settings mismatch: -scale %s -seconds %g vs -scale %s -seconds %g\n",
					first.Scale, first.Seconds, f.Scale, f.Seconds)
				return 2
			}
		}
	}

	fmt.Fprintf(stdout, "%d old run(s) vs %d new run(s) on %s, %d CPUs, GOMAXPROCS %d, %s\n",
		len(sides[0]), len(sides[1]), host.CPU, host.NumCPU, host.GoMaxProcs, host.GoVersion)
	fmt.Fprintf(stdout, "%-13s %-12s %28s %28s %8s %6s  %s\n",
		"workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "delta", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			ov, nv := values(sides[0], w.name, m.Name), values(sides[1], w.name, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			o1, om, o3 := quartiles(ov)
			n1, nm, n3 := quartiles(nv)
			delta := (nm - om) / om
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			switch {
			case max((o3-o1)/om, (n3-n1)/nm) > m.Bound && !allBetter(ov, nv, m.Better):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(stdout, "%-13s %-12s %28s %28s %+7.1f%% %5.0f%%  %s\n", w.name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", om, o1, o3), fmt.Sprintf("%.4g [%.4g, %.4g]", nm, n1, n3),
				100*delta, 100*m.Bound, verdict)
		}
	}
	return code
}

// values collects one metric of one workload across runs.
func values(runs []resultsFile, workload, name string) []float64 {
	var out []float64
	for _, f := range runs {
		for _, r := range f.Workloads {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// allBetter reports whether every new value beats every old one.
func allBetter(old, new []float64, better string) bool {
	if better == "higher" {
		return slices.Min(new) > slices.Max(old)
	}
	return slices.Max(new) < slices.Min(old)
}
