package dist_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"thriftylp/internal/dist"
	"thriftylp/internal/harness"
	"thriftylp/internal/parallel"
	"thriftylp/internal/shard"
)

var updateTraffic = flag.Bool("update-traffic", false, "rewrite testdata/traffic.golden from the current exchange")

const trafficGolden = "testdata/traffic.golden"

// exchangeTraffic renders dist.RunSource's full cost model on every selector
// fixture at 1, 2, 3, 4 and 8 shards, on a pool of the given size: the
// totals, one line per round, and an FNV-1a hash of the labels. The whole
// rendering is deterministic at any thread count: each shard's collapse is
// sequential, each node's emission depends on its inbox alone, and the
// round barrier fixes every inbox.
func exchangeTraffic(t *testing.T, threads int) []byte {
	pool := parallel.NewPool(threads)
	defer pool.Close()
	var b bytes.Buffer
	b.WriteString("# fixture shards rounds bytes naive pairs suppressed entries local-iters labels-fnv64a\n")
	b.WriteString("#   round bytes naive pairs suppressed\n")
	for _, f := range harness.SelectorFixtures() {
		g, err := f.Build()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, k := range []int{1, 2, 3, 4, 8} {
			res, err := dist.RunSource(shard.NewGraphSource(g, k), dist.Config{Pool: pool})
			if err != nil {
				t.Fatalf("%s/%d: %v", f.Name, k, err)
			}
			h := fnv.New64a()
			binary.Write(h, binary.LittleEndian, res.Labels)
			fmt.Fprintf(&b, "%s %d %d %d %d %d %d %d %d %016x\n", f.Name, k, res.Rounds, res.ExchangedBytes,
				res.NaiveBytes, res.Pairs, res.SuppressedVertices, res.BoundaryEntries, res.LocalIterations, h.Sum64())
			for i, r := range res.PerRound {
				fmt.Fprintf(&b, "  %d %d %d %d %d\n", i+1, r.Bytes, r.NaiveBytes, r.Pairs, r.Suppressed)
			}
		}
	}
	return b.Bytes()
}

// TestExchangeTrafficMatchesGolden pins the sharded exchange byte for byte:
// rounds, traffic, pairs, suppression counts and labels must not move when
// the node's boundary state or emission is restructured, and a 4-thread
// pool must render exactly what a 1-thread pool does. Regenerate with
// `go test ./internal/dist -run TestExchangeTrafficMatchesGolden
// -update-traffic` only for a deliberate change of exchange behaviour.
func TestExchangeTrafficMatchesGolden(t *testing.T) {
	got := exchangeTraffic(t, 1)
	if par := exchangeTraffic(t, 4); !bytes.Equal(got, par) {
		t.Fatal("traffic rendered on a 4-thread pool differs from the 1-thread rendering")
	}
	if *updateTraffic {
		if err := os.MkdirAll(filepath.Dir(trafficGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trafficGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(trafficGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("traffic diverges at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("traffic length differs: got %d lines, want %d", len(gl), len(wl))
}
