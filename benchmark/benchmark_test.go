package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// testSpec is the part of BENCHMARK.json the tests check against.
type testSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) testSpec {
	t.Helper()
	var s testSpec
	if err := readJSON("../BENCHMARK.json", &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// lastLine decodes the one-line result a single-workload run prints last.
func lastLine(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout)
	}
	return r
}

// TestSmoke runs every workload at tiny scale, traced, and checks that
// every metric BENCHMARK.json names is reported, finite and in its unit.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	dir := t.TempDir()
	out, spans := filepath.Join(dir, "results.json"), filepath.Join(dir, "spans.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{"-scale", "tiny", "-seconds", "1", "-trace", "1",
		"-workdir", filepath.Join(dir, "work"), "-out", out, "-spans", spans}
	if code := run(args, &stdout, &stderr, nil); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	var f resultsFile
	if err := readJSON(out, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(spec.Workloads) {
		t.Fatalf("%d workloads reported, BENCHMARK.json names %d", len(f.Workloads), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		r := f.Workloads[i]
		if r.Workload != w.Name {
			t.Fatalf("workload %d is %q, BENCHMARK.json says %q", i, r.Workload, w.Name)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.Name, r.Correct, r.Attempted, r.Failed, r.Problems)
		}
		for _, m := range spec.EndToEnd {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a finite positive value in %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
		for _, m := range spec.PerLayer {
			got, ok := r.Layers[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v), want a finite value in %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
	}
	if len(e2eUnits) != len(spec.EndToEnd) || len(layerUnits) != len(spec.PerLayer) {
		t.Errorf("the command reports %d end-to-end and %d per-layer metrics, BENCHMARK.json lists %d and %d",
			len(e2eUnits), len(layerUnits), len(spec.EndToEnd), len(spec.PerLayer))
	}

	sf, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(sf)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		seen[s.Workload] = true
	}
	if len(seen) != len(spec.Workloads) {
		t.Errorf("spans cover workloads %v, want all %d", seen, len(spec.Workloads))
	}
}

// TestFlippedLabel proves the batch check is live: one corrupted label
// per op fails every op and the run.
func TestFlippedLabel(t *testing.T) {
	var stdout bytes.Buffer
	args := []string{"-scale", "tiny", "-seconds", "0.2", "-workload", "solve-web", "-workdir", t.TempDir()}
	code := run(args, &stdout, io.Discard, func(c *config) {
		c.mutateLabels = func(l []uint32) { l[0] ^= 1 }
	})
	r := lastLine(t, stdout.String())
	if code == 0 || r.Correct || r.Failed == 0 || r.Failed != r.Attempted {
		t.Fatalf("exit %d, correct=%v, failed %d of %d; want every op failed and a non-zero exit", code, r.Correct, r.Failed, r.Attempted)
	}
}

// wrongComponent answers every /component query with a component label
// one too high.
func wrongComponent(path string, body []byte) []byte {
	if !strings.HasPrefix(path, "/component?") {
		return body
	}
	var b map[string]int64
	if err := json.Unmarshal(body, &b); err != nil {
		return body
	}
	b["component"]++
	data, _ := json.Marshal(b)
	return data
}

// TestWrongBody proves the serve check is live: a wrong /component answer
// is a failed op and fails the run.
func TestWrongBody(t *testing.T) {
	var stdout bytes.Buffer
	args := []string{"-scale", "tiny", "-seconds", "0.5", "-workload", "serve-read", "-workdir", t.TempDir()}
	code := run(args, &stdout, io.Discard, func(c *config) {
		c.mutateBody = wrongComponent
	})
	r := lastLine(t, stdout.String())
	if code == 0 || r.Correct || r.Failed == 0 {
		t.Fatalf("exit %d, correct=%v, failed %d of %d; want failed ops and a non-zero exit", code, r.Correct, r.Failed, r.Attempted)
	}
}

func TestHostGuard(t *testing.T) {
	code := run([]string{"-workload", "solve-web"}, io.Discard, io.Discard, func(c *config) {
		c.conns = runtime.NumCPU() + 1
	})
	if code != 2 {
		t.Fatalf("exit %d with more connections than CPUs, want 2", code)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, host hostStamp, mean, qps float64) string {
		r := newResult("solve-web")
		r.setE2E("op_mean_ms", mean)
		r.setE2E("ops_per_s", qps)
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultsFile{Schema: resultsSchema, Host: host, Workloads: []*result{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	h := currentHost()
	old := strings.Join([]string{write("o1", h, 10, 100), write("o2", h, 10.1, 101), write("o3", h, 9.9, 99)}, ",")
	slower := strings.Join([]string{write("n1", h, 14, 100), write("n2", h, 14.1, 101), write("n3", h, 13.9, 99)}, ",")
	noisy := strings.Join([]string{write("q1", h, 5, 100), write("q2", h, 10, 101), write("q3", h, 15, 99)}, ",")

	var stdout bytes.Buffer
	if code := compareMain([]string{old, slower}, "../BENCHMARK.json", &stdout, io.Discard); code != 1 {
		t.Errorf("40%% slower op_mean_ms: exit %d, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "regressed") {
		t.Errorf("40%% slower op_mean_ms not flagged regressed:\n%s", stdout.String())
	}
	stdout.Reset()
	if code := compareMain([]string{old, noisy}, "../BENCHMARK.json", &stdout, io.Discard); code != 0 ||
		!strings.Contains(stdout.String(), "unresolved") {
		t.Errorf("wide new spread: exit %d, want 0 and unresolved\n%s", code, stdout.String())
	}
	other := h
	other.NumCPU++
	if code := compareMain([]string{old, write("x", other, 10, 100)}, "../BENCHMARK.json", io.Discard, io.Discard); code != 2 {
		t.Errorf("host mismatch: exit %d, want 2", code)
	}
}
