package reflease_test

import (
	"fmt"
	"math/rand"
	"testing"

	"thriftylp/internal/lint/linttest"
	"thriftylp/internal/lint/reflease"
)

// refleasePreamble declares a same-package Acquire/Release/tryRef protocol,
// so every generated body has acquire and tryRef sites to track.
const refleasePreamble = `package gen

type Snap struct{ n int }

func (s *Snap) Release()     {}
func (s *Snap) tryRef() bool { return s != nil }

type Src struct{}

func (*Src) Acquire() *Snap { return nil }

func keep(*Snap) {}

func f(src *Src, s, t *Snap, c bool, n int) {
`

// refleaseAtoms move each tracked reference through every lattice
// dimension: acquire, release, deferred release, nil refinement, tryRef,
// escape, reassignment.
var refleaseAtoms = []string{
	"s = src.Acquire()",
	"t = src.Acquire()",
	"s.Release()",
	"t.Release()",
	"defer s.Release()",
	"defer t.Release()",
	"if s == nil { return }",
	"if s != nil { s.Release() }",
	"if t != nil { defer t.Release() }",
	"if s.tryRef() { defer s.Release() }",
	"if !t.tryRef() { return }",
	"s.n++",
	"keep(s)",
	"t = s",
	"s = nil",
	"n++",
}

// TestFixpointStaysWithinBudget runs the analyzer over random bodies with
// nested loops, labeled jumps, redundant conditions and early returns.
// cfg.Forward panics when the per-site fixpoint exceeds its
// (maxTuples+1)·|blocks| block visits, so a run that returns on every body
// is the budget holding.
func TestFixpointStaysWithinBudget(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		src := refleasePreamble + linttest.RandomBody(r, refleaseAtoms, 3) + "}\n"
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%v\n%s", p, src)
				}
			}()
			linttest.RunSource(t, reflease.Analyzer, src)
		})
	}
}
