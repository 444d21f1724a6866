// Command thriftybench is the repository's benchmark. It generates every
// input from -seed with graph/gen, hands the code under test only the
// files it wrote, and measures four workloads, from the paper's two solve
// regimes to the sharded path and the query server, in one process at
// GOMAXPROCS = nproc. It checks every op's output and prints each metric
// by name and unit.
//
// Run it through run.sh from the repository root; see README.md for the
// workloads, the metrics and the compare mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// resultsSchema identifies the -out file layout.
const resultsSchema = "thriftylp/benchmark/v1"

// resultsFile is one run of one or more workloads, as written by -out and
// read by -compare.
type resultsFile struct {
	Schema    string    `json:"schema"`
	Host      hostStamp `json:"host"`
	Seed      uint64    `json:"seed"`
	Scale     string    `json:"scale"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Workloads []*result `json:"workloads"`
}

// run is main with its outputs and test seams injected. Exit codes: 0 all
// checks passed, 1 a check failed, 2 the run could not be made.
func run(args []string, stdout, stderr io.Writer, seam func(*config)) int {
	fs := flag.NewFlagSet("thriftybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 42, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "measured window of each workload, in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced phase and reports the per-layer metrics")
	scale := fs.String("scale", "full", "input sizes: full or tiny")
	workdir := fs.String("workdir", ".bench_build/work", "directory the generated inputs are written to")
	out := fs.String("out", "", "write the results as JSON to this file")
	spans := fs.String("spans", "", "with -trace 1, write the traced spans as JSON lines to this file")
	compare := fs.Bool("compare", false, "compare two sets of -out files: -compare old[,old...] new[,new...]")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark description holding the regression bounds, for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), *spec, stdout, stderr)
	}
	sz, ok := scales[*scale]
	if *trace != 0 && *trace != 1 || !ok || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: -trace takes 0 or 1, -scale full or tiny, -seconds a positive number, and no arguments")
		return 2
	}
	cfg := &config{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		scale:  sz,
		trace:  *trace == 1,
		conns:  runtime.GOMAXPROCS(0),
	}
	if seam != nil {
		seam(cfg)
	}
	if err := checkHost(cfg.conns); err != nil {
		fmt.Fprintln(stderr, "refusing to run:", err)
		return 2
	}
	// A directory of this process's own, so concurrent runs sharing a
	// -workdir do not remove each other's inputs.
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var err error
	if cfg.workdir, err = os.MkdirTemp(*workdir, "run-"); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer os.RemoveAll(cfg.workdir)
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	file := resultsFile{Schema: resultsSchema, Host: currentHost(), Seed: *seed, Scale: *scale, Seconds: *seconds, Trace: cfg.trace}
	begin := time.Now()
	code := 0
	for _, w := range selected {
		r := newResult(w.name)
		if err := w.run(cfg, r); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 2
		}
		r.finish()
		report(stdout, cfg, r)
		file.Workloads = append(file.Workloads, r)
		if !r.Correct {
			code = 1
		}
	}
	fmt.Fprintf(stdout, "total: %.1f s for %d workload(s)\n", time.Since(begin).Seconds(), len(selected))

	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fmt.Fprintln(stderr, "writing results:", err)
			return 2
		}
	}
	if *spans != "" && cfg.trace {
		var trs []*tracer
		for _, r := range file.Workloads {
			trs = append(trs, r.tracer)
		}
		if err := writeSpans(*spans, trs); err != nil {
			fmt.Fprintln(stderr, "writing spans:", err)
			return 2
		}
	}
	if len(selected) == 1 {
		// The one-line result a harness reads: the end-to-end metrics, or
		// the per-layer ones of a traced run.
		r := file.Workloads[0]
		line := struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics}
		if cfg.trace {
			line.Metrics = r.Layers
		}
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintln(stdout, string(data))
	}
	return code
}

// report prints one workload's outcome for a reader.
func report(w io.Writer, cfg *config, r *result) {
	fmt.Fprintf(w, "== %s  correct=%v attempted=%d failed=%d", r.Workload, r.Correct, r.Attempted, r.Failed)
	if len(r.Selected) > 0 {
		fmt.Fprintf(w, " selected=%v", r.Selected)
	}
	fmt.Fprintln(w)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  FAIL:", p)
	}
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Fprintf(w, "  %-24s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	if !cfg.trace {
		return
	}
	for _, k := range sortedKeys(r.Layers) {
		if v := r.Layers[k]; v.Value != 0 {
			fmt.Fprintf(w, "  %-24s %14.4f %s\n", k, v.Value, v.Unit)
		}
	}
	if r.tracer != nil {
		r.tracer.printSelf(w)
	}
	if l := r.Layers; l["serve.server_p50_us"].Value > 0 {
		fmt.Fprintf(w, "  query p50: server %.1f us (median queue %.1f, acquire %.1f, handler %.1f, encode %.1f) + transport %.1f us\n",
			l["serve.server_p50_us"].Value, l["serve.queue_us"].Value, l["serve.acquire_us"].Value,
			l["serve.handler_us"].Value, l["serve.encode_us"].Value, l["transport.p50_us"].Value)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}
