package clitest

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"thriftylp/internal/obs"
)

// TestThriftyccTrace checks the -trace JSONL artifact: one record per
// iteration with monotone iteration ids, matching the iteration count the
// run reported on stdout.
func TestThriftyccTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	out, err := run(t, "thriftycc", "-gen", "rmat:12:8", "-algo", "thrifty", "-trace", tracePath)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}

	m := regexp.MustCompile(`(\d+) iterations`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no iteration count on stdout:\n%s", out)
	}
	iterations, _ := strconv.Atoi(m[1])

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != iterations {
		t.Fatalf("trace has %d records, stdout reported %d iterations", len(recs), iterations)
	}
	for i, rec := range recs {
		if rec.Index != i {
			t.Errorf("record %d has iter %d, want monotone ids", i, rec.Index)
		}
		if rec.Schema != obs.TraceSchema {
			t.Errorf("record %d schema = %q", i, rec.Schema)
		}
		if rec.Algo != "thrifty" || rec.Dataset != "rmat:12:8" || rec.Run != 0 {
			t.Errorf("record %d identity = %q/%q/%d", i, rec.Algo, rec.Dataset, rec.Run)
		}
		if rec.Kind == "" || rec.Duration <= 0 {
			t.Errorf("record %d missing kind/duration: %+v", i, rec)
		}
	}
	// The first iteration is Thrifty's initial push from the max-degree hub.
	if recs[0].Kind != "initial-push" || recs[0].Active != 1 {
		t.Errorf("first record = %+v, want initial-push from one vertex", recs[0])
	}
}

// TestThriftyccTraceMultiRep: every repetition is traced, stamped with its
// run index. One thread: iteration counts are only deterministic there, as
// concurrent pushes on the unified labels array race benignly.
func TestThriftyccTraceMultiRep(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	out, err := run(t, "thriftycc", "-gen", "er:400:800", "-algo", "thrifty", "-threads", "1", "-reps", "3", "-trace", tracePath)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[int]int{}
	for _, rec := range recs {
		runs[rec.Run]++
	}
	if len(runs) != 3 {
		t.Fatalf("trace covers runs %v, want 3 distinct run ids", runs)
	}
	if runs[0] != runs[1] || runs[1] != runs[2] {
		t.Errorf("deterministic reruns should trace identical iteration counts, got %v", runs)
	}
}

// TestThriftyccHTTPMetrics runs thriftycc with -http and -hold, scrapes
// /metrics while the process holds, and checks the exported event counter
// matches the instrumented event total printed on stdout.
func TestThriftyccHTTPMetrics(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "thriftycc"),
		"-gen", "rmat:12:8", "-algo", "thrifty", "-instrument",
		"-http", "127.0.0.1:0", "-hold")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout // interleave; we only parse known stdout lines
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGINT)
		cmd.Wait()
	}()

	// Parse stdout until the run has finished (the "holding" line) — by then
	// the URL and the instrumented event totals have been printed.
	var url string
	var wantEdges int64 = -1
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if m := regexp.MustCompile(`debug server listening on (\S+)`).FindStringSubmatch(line); m != nil {
			url = m[1]
		}
		if m := regexp.MustCompile(`events: edges=(\d+)`).FindStringSubmatch(line); m != nil {
			wantEdges, _ = strconv.ParseInt(m[1], 10, 64)
		}
		if strings.Contains(line, "holding for debug server") {
			break
		}
	}
	if url == "" || wantEdges < 0 {
		t.Fatalf("stdout missing listen URL (%q) or events line (edges=%d)", url, wantEdges)
	}

	body := curl(t, url+"/metrics")
	gotEdges, ok := scrapeMetric(body, "thriftylp_events_edges_total")
	if !ok {
		t.Fatalf("thriftylp_events_edges_total missing from /metrics:\n%s", body)
	}
	if gotEdges != wantEdges {
		t.Errorf("/metrics edges = %d, stdout events line says %d", gotEdges, wantEdges)
	}
	if runs, ok := scrapeMetric(body, "thriftylp_runs_total"); !ok || runs != 1 {
		t.Errorf("thriftylp_runs_total = %d (present=%v), want 1", runs, ok)
	}
	if owned, ok := scrapeMetric(body, "thriftylp_sched_partitions_owned_total"); !ok || owned <= 0 {
		t.Errorf("thriftylp_sched_partitions_owned_total = %d (present=%v), want > 0", owned, ok)
	}

	// pprof must be live on the same mux.
	resp, err := http.Get(url + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}

	// SIGINT must release the hold and exit zero.
	cmd.Process.Signal(syscall.SIGINT)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("exit after SIGINT: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Errorf("process did not exit after SIGINT")
	}
}

func curl(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// scrapeMetric pulls one un-labelled counter value out of Prometheus text.
func scrapeMetric(body, name string) (int64, bool) {
	for _, line := range strings.Split(body, "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 && strings.HasPrefix(line, name+" ") {
			return v, true
		}
	}
	return 0, false
}

// TestGraphgenSummary: generation prints the degree-skew summary.
func TestGraphgenSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.bin")
	out, err := run(t, "graphgen", "-gen", "ba:2000:4", "-o", path)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"vertices", "edges", "max degree", "skew", "power-law"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
