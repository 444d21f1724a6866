package errfreeze_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thriftylp/internal/lint/errfreeze"
	"thriftylp/internal/lint/linttest"
)

func TestErrfreeze(t *testing.T) {
	linttest.Run(t, linttest.TestData(), errfreeze.Analyzer, "graph", "serve", "shard")
}

// TestFrozenRoundTrip is the reverse direction of the analyzer: every entry
// in each package's frozen list must still exist as a literal error string
// in that live package, so deleted or reworded call sites cannot leave
// stale entries behind. Together the two checks force frozen == live.
func TestFrozenRoundTrip(t *testing.T) {
	moduleRoot := filepath.Join("..", "..", "..")
	for importPath, frozen := range errfreeze.Packages {
		importPath, frozen := importPath, frozen
		rel := strings.TrimPrefix(importPath, "thriftylp/")
		t.Run(strings.ReplaceAll(rel, "/", "_"), func(t *testing.T) {
			dir := filepath.Join(moduleRoot, filepath.FromSlash(rel))
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatalf("reading %s package dir: %v", importPath, err)
			}
			live := map[string]bool{}
			fset := token.NewFileSet()
			for _, e := range entries {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
				if err != nil {
					t.Fatalf("parsing %s: %v", name, err)
				}
				for _, site := range errfreeze.ErrorStrings(f) {
					live[site.Text] = true
				}
			}
			if len(live) == 0 {
				t.Fatalf("found no error strings in live package %s; is the path right?", importPath)
			}
			for s := range frozen {
				if !live[s] {
					t.Errorf("frozen error string %q no longer exists in %s: remove it from frozen.go in the commit that changed the call site", s, importPath)
				}
			}
		})
	}
}
