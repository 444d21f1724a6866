// Package clitest builds the repository's command-line binaries and
// exercises them end-to-end: flag parsing, file round trips, experiment
// execution, and failure modes.
package clitest

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "thriftylp-cli")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"thriftycc", "graphgen", "ccbench", "ccverify", "thriftyd"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "thriftylp/cmd/"+tool)
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			panic("building " + tool + ": " + err.Error() + "\n" + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/clitest → repo root
}

func run(t *testing.T, tool string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestThriftyccGeneratedGraph(t *testing.T) {
	out, err := run(t, "thriftycc", "-gen", "rmat:10:8", "-algo", "thrifty", "-verify")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "verify: OK") {
		t.Fatalf("no verification line:\n%s", out)
	}
	if !strings.Contains(out, "components") {
		t.Fatalf("no summary line:\n%s", out)
	}
}

func TestThriftyccAllAlgorithms(t *testing.T) {
	out, err := run(t, "thriftycc", "-gen", "er:500:1000", "-algo", "all")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, a := range []string{"thrifty", "dolp", "afforest", "jt", "bfs", "fastsv", "connectit-kout"} {
		if !strings.Contains(out, a) {
			t.Fatalf("algorithm %s missing from output:\n%s", a, out)
		}
	}
}

func TestThriftyccInstrumented(t *testing.T) {
	out, err := run(t, "thriftycc", "-gen", "star:100", "-algo", "thrifty", "-instrument", "-stats")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "initial-push") {
		t.Fatalf("trace missing:\n%s", out)
	}
	if !strings.Contains(out, "degrees:") {
		t.Fatalf("stats missing:\n%s", out)
	}
}

func TestThriftyccBadFlags(t *testing.T) {
	if out, err := run(t, "thriftycc"); err == nil {
		t.Fatalf("no -in/-gen accepted:\n%s", out)
	}
	if out, err := run(t, "thriftycc", "-gen", "nope:1"); err == nil {
		t.Fatalf("unknown generator accepted:\n%s", out)
	}
	if out, err := run(t, "thriftycc", "-gen", "rmat:10", "-algo", "bogus"); err == nil {
		t.Fatalf("unknown algorithm accepted:\n%s", out)
	}
}

// TestGraphgenBadSpec: a malformed generator argument is an error, whether
// the graph is written whole or streamed into shards, never a silent default.
func TestGraphgenBadSpec(t *testing.T) {
	dir := t.TempDir()
	for _, spec := range []string{"rmat:abc", "rmat:12x"} {
		if out, err := run(t, "graphgen", "-gen", spec, "-o", filepath.Join(dir, "g.bin")); err == nil {
			t.Fatalf("graphgen -gen %s accepted:\n%s", spec, out)
		}
		if out, err := run(t, "graphgen", "-gen", spec, "-shards", "2", "-o", filepath.Join(dir, "set")); err == nil {
			t.Fatalf("graphgen -gen %s -shards 2 accepted:\n%s", spec, out)
		}
		if out, err := run(t, "thriftycc", "-gen", spec); err == nil {
			t.Fatalf("thriftycc -gen %s accepted:\n%s", spec, out)
		}
	}
}

func TestGraphgenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.bin")
	out, err := run(t, "graphgen", "-gen", "rmat:10:4", "-o", bin)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if _, err := os.Stat(bin); err != nil {
		t.Fatal(err)
	}
	// thriftycc must be able to load and verify it.
	out, err = run(t, "thriftycc", "-in", bin, "-algo", "afforest", "-verify")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "verify: OK") {
		t.Fatalf("loaded graph failed verification:\n%s", out)
	}
	// Edge-list output too.
	el := filepath.Join(dir, "g.el")
	if out, err := run(t, "graphgen", "-gen", "er:200:400", "-o", el); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if out, err := run(t, "thriftycc", "-in", el, "-algo", "thrifty", "-verify"); err != nil {
		t.Fatalf("edge list reload: %v\n%s", err, out)
	}
}

func TestCcbenchListAndSingleExperiment(t *testing.T) {
	out, err := run(t, "ccbench", "-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, id := range []string{"table4", "fig5", "ablations", "dist"} {
		if !strings.Contains(out, id) {
			t.Fatalf("experiment %s missing from -list:\n%s", id, out)
		}
	}
	out, err = run(t, "ccbench", "-exp", "table5", "-scale", "small", "-reps", "1")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "TABLE5") || !strings.Contains(out, "Ratio") {
		t.Fatalf("table5 output malformed:\n%s", out)
	}
	if out, err := run(t, "ccbench", "-exp", "table99"); err == nil {
		t.Fatalf("unknown experiment accepted:\n%s", out)
	}
}

func TestCcbenchCSVOutput(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	if out, err := run(t, "ccbench", "-exp", "table1", "-scale", "small", "-csv", csv); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Dataset,") {
		t.Fatalf("CSV header missing:\n%s", data)
	}
}

// TestQuickstartExample runs the quickstart example end-to-end and checks
// its deterministic output lines.
func TestQuickstartExample(t *testing.T) {
	cmd := exec.Command("go", "run", "thriftylp/examples/quickstart")
	cmd.Dir = repoRoot()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{
		"found 3 components",
		"0 and 3 connected: true",
		"0 and 4 connected: false",
		"verified: true",
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("quickstart output missing %q:\n%s", want, out)
		}
	}
}

func TestCcverifySmallBattery(t *testing.T) {
	out, err := run(t, "ccverify", "-seeds", "1", "-q")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "0 failures") {
		t.Fatalf("ccverify reported failures:\n%s", out)
	}
}
