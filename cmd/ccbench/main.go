// Command ccbench regenerates the tables and figures of the Thrifty Label
// Propagation paper's evaluation section on the synthetic analog suite.
//
// Usage:
//
//	ccbench -exp table4                 # one experiment
//	ccbench -exp all -scale small       # everything, quickly
//	ccbench -exp fig5 -scale large -reps 5 -csv out.csv
//
// Experiment ids follow the paper's numbering: table1, table2, table4,
// table5, table6, table7, fig1, fig2, fig3, fig5, fig6, fig7, fig9; -list
// prints every id, the extension experiments (dist, async, scaling,
// connectit, ablations) included. Commit-against-commit performance
// tracking lives in the repository benchmark (benchmark/README.md), not here.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"thriftylp/internal/harness"
	"thriftylp/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see package doc) or 'all'")
		scale   = flag.String("scale", "medium", "dataset scale: small, medium, large")
		reps    = flag.Int("reps", 3, "timed repetitions per measurement (min is reported)")
		threads = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		csvPath = flag.String("csv", "", "also append results as CSV to this file")
		list    = flag.Bool("list", false, "list available experiments and exit")
		timeout = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
		httpAd  = flag.String("http", "", "serve /metrics, expvar and /debug/pprof on this address while the suite runs")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(harness.Experiments(), "\n"))
		return
	}

	// SIGINT or -timeout cancels cooperatively: the in-flight algorithm
	// stops at its next iteration boundary and ccbench exits non-zero,
	// instead of leaving a multi-hour benchmark unkillable except by
	// SIGKILL. A second SIGINT kills immediately.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}

	cfg := harness.RunConfig{
		Scale:   harness.Scale(*scale),
		Reps:    *reps,
		Threads: *threads,
		Ctx:     ctx,
	}

	if *httpAd != "" {
		srv, err := obs.Serve(*httpAd, obs.NewRegistry(), nil)
		if err != nil {
			fatalf("%v", err)
		}
		defer srv.Close()
		fmt.Printf("debug server listening on %s\n", srv.URL())
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = harness.Experiments()
	}

	var csv *os.File
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatalf("opening %s: %v", *csvPath, err)
		}
		defer f.Close()
		csv = f
	}

	for _, id := range ids {
		start := time.Now()
		t, err := harness.RunExperiment(id, cfg)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fatalf("experiment %s: timeout after %v", id, *timeout)
			}
			if errors.Is(err, context.Canceled) {
				fatalf("experiment %s: interrupted", id)
			}
			fatalf("experiment %s: %v", id, err)
		}
		fmt.Println(t.Render())
		fmt.Printf("(%s completed in %v at scale %s)\n\n", id, time.Since(start).Round(time.Millisecond), cfg.Scale)
		if csv != nil {
			fmt.Fprintf(csv, "# %s\n%s\n", id, t.CSV())
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ccbench: "+format+"\n", args...)
	os.Exit(1)
}
