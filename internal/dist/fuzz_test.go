package dist

import (
	"os"
	"path/filepath"
	"testing"

	"thriftylp/graph/gen"
	"thriftylp/internal/core"
	"thriftylp/internal/shard"
)

// FuzzShardSet mutates the manifest and the three slice files of a small
// written set (RMAT-5, 3 shards). Open, Slice and RunSource must each
// return an error or a result, and never panic. When every slice loads,
// RunSource runs; its labels must cover the manifest's vertices, and it
// must stop before the round cap. Under
// plain `go test` it runs the written set and testdata/fuzz/FuzzShardSet.
func FuzzShardSet(f *testing.F) {
	g, err := gen.RMATCompact(gen.DefaultRMAT(5, 8, 3))
	if err != nil {
		f.Fatal(err)
	}
	src := f.TempDir()
	if _, err := shard.Write(g, src, 3); err != nil {
		f.Fatal(err)
	}
	files := []string{shard.ManifestName, shard.ShardFileName(0), shard.ShardFileName(1), shard.ShardFileName(2)}
	seed := make([][]byte, len(files))
	for i, name := range files {
		if seed[i], err = os.ReadFile(filepath.Join(src, name)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed[0], seed[1], seed[2], seed[3])
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, manifest, s0, s1, s2 []byte) {
		for i, data := range [][]byte{manifest, s0, s1, s2} {
			if err := os.WriteFile(filepath.Join(dir, files[i]), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		set, err := shard.Open(dir)
		if err != nil {
			return
		}
		// RunSource sizes its labels from the manifest before it loads a
		// slice, so it runs only on a set whose slices all load: their
		// headers then bound the vertex count by the bytes on disk.
		for i := 0; i < set.Shards(); i++ {
			sl, err := set.Slice(i)
			if err != nil {
				return
			}
			if err := set.Release(sl); err != nil {
				t.Fatalf("Release(%d): %v", i, err)
			}
		}
		res, err := RunSource(set, Config{})
		if err != nil {
			return
		}
		if len(res.Labels) != set.Vertices() {
			t.Fatalf("RunSource returned %d labels for %d vertices", len(res.Labels), set.Vertices())
		}
		// Labels only fall, so even a set whose cut is not mirrored across
		// shards settles well before the round cap.
		if limit := core.IterationCap(0, set.Vertices()); res.Rounds >= limit {
			t.Fatalf("RunSource ran %d rounds, the cap is %d", res.Rounds, limit)
		}
	})
}
