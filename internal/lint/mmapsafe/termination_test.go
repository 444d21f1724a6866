package mmapsafe_test

import (
	"fmt"
	"math/rand"
	"testing"

	"thriftylp/internal/lint/linttest"
	"thriftylp/internal/lint/mmapsafe"
)

// mmapsafePreamble declares a mapped-shaped type with a constructor that
// reaches mmapFile, so g and its derived slice a are tracked.
const mmapsafePreamble = `package gen

type G struct {
	Adj    []uint32
	mapped []byte
}

func (g *G) Close() error             { return nil }
func (g *G) Mapped() bool             { return g.mapped != nil }
func (g *G) Neighbors(v int) []uint32 { return g.Adj }

func mmapFile() []byte { return nil }

func Load() *G { return &G{mapped: mmapFile()} }

func f(g *G, a []uint32, c bool, n int) {
`

// mmapsafeAtoms close, reopen, alias and use the tracked value.
var mmapsafeAtoms = []string{
	"g.Close()",
	"defer g.Close()",
	"g = Load()",
	"a = g.Neighbors(n)",
	"a = g.Adj",
	"n += len(a)",
	"n += len(g.Adj)",
	"if g == nil { return }",
	"if g.Mapped() { n++ }",
	"a = nil",
}

// TestFixpointTerminates runs the analyzer over random bodies with nested
// loops, labeled jumps, redundant conditions and early returns.
// cfg.Forward panics when the per-variable fixpoint exceeds its 2·|blocks|
// block visits, so a run that returns on every body is the fixpoint
// terminating within its bound.
func TestFixpointTerminates(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		src := mmapsafePreamble + linttest.RandomBody(r, mmapsafeAtoms, 3) + "}\n"
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%v\n%s", p, src)
				}
			}()
			linttest.RunSource(t, mmapsafe.Analyzer, src)
		})
	}
}
