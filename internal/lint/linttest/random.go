package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"strings"
	"testing"

	"thriftylp/internal/lint/analysis"
	"thriftylp/internal/lint/driver"
)

// RandomBody returns a random, type-correct Go function body built from
// atoms, the single statements an analyzer tracks. The atoms are nested up to
// depth levels deep in the control flow that stresses a worklist fixpoint:
// counted, conditional and infinite loops (the latter left only by break),
// labeled loops with continue and break to the label, if/else chains whose
// conditions repeat or contradict each other, switches with fallthrough, and
// early returns. Conditions use the bool c and the int n, which the
// enclosing function must declare; atoms may use them too.
func RandomBody(r *rand.Rand, atoms []string, depth int) string {
	g := &bodyGen{r: r, atoms: atoms}
	g.block(depth, 1)
	return g.b.String()
}

type bodyGen struct {
	r      *rand.Rand
	atoms  []string
	b      strings.Builder
	labels int      // labels declared so far, for unique names
	loops  []string // enclosing loops' labels, "" when unlabeled
}

func (g *bodyGen) line(indent int, format string, args ...any) {
	g.b.WriteString(strings.Repeat("\t", indent))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// block emits one to three statements at the given nesting budget.
func (g *bodyGen) block(depth, indent int) {
	for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
		g.stmt(depth, indent)
	}
}

func (g *bodyGen) stmt(depth, indent int) {
	choice := g.r.Intn(10)
	if depth == 0 {
		choice = g.r.Intn(3) // leaves only: atom, jump, return
	}
	switch choice {
	case 0, 1:
		g.line(indent, "%s", g.atoms[g.r.Intn(len(g.atoms))])
	case 2:
		g.jump(indent)
	case 3:
		g.line(indent, "for i := 0; i < n; i++ {")
		g.loop("", depth, indent)
	case 4:
		g.line(indent, "for c {")
		g.loop("", depth, indent)
	case 5:
		// Infinite loop: the only exit is the break, so the CFG has a back
		// edge and an exit edge out of the middle of the body.
		g.line(indent, "for {")
		g.loops = append(g.loops, "")
		g.block(depth-1, indent+1)
		g.line(indent+1, "if !c {")
		g.line(indent+2, "break")
		g.line(indent+1, "}")
		g.block(depth-1, indent+1)
		g.loops = g.loops[:len(g.loops)-1]
		g.line(indent, "}")
	case 6:
		g.labels++
		label := fmt.Sprintf("L%d", g.labels)
		g.line(indent, "%s:", label)
		g.line(indent, "for j := 0; j < n; j++ {")
		// Use the label at once: an unused label does not compile.
		g.line(indent+1, "if c {")
		g.line(indent+2, "continue %s", label)
		g.line(indent+1, "}")
		g.loop(label, depth, indent)
	case 7:
		// Redundant and contradictory conditions: the second branch repeats
		// the first test, the third is unreachable by value but not by CFG.
		g.line(indent, "if c {")
		g.block(depth-1, indent+1)
		g.line(indent, "} else if c {")
		g.block(depth-1, indent+1)
		g.line(indent, "} else if !c && c {")
		g.block(depth-1, indent+1)
		g.line(indent, "} else {")
		g.block(depth-1, indent+1)
		g.line(indent, "}")
	case 8:
		g.line(indent, "if c && c {")
		g.block(depth-1, indent+1)
		g.line(indent, "}")
	default:
		g.line(indent, "switch n {")
		g.line(indent, "case 0:")
		g.block(depth-1, indent+1)
		g.line(indent+1, "fallthrough")
		g.line(indent, "case 1:")
		g.block(depth-1, indent+1)
		g.line(indent, "default:")
		g.block(depth-1, indent+1)
		g.line(indent, "}")
	}
}

// loop emits the body and closing brace of a loop whose header is already
// written.
func (g *bodyGen) loop(label string, depth, indent int) {
	g.loops = append(g.loops, label)
	g.block(depth-1, indent+1)
	g.loops = g.loops[:len(g.loops)-1]
	g.line(indent, "}")
}

// jump emits an early exit guarded by c: a return, or — inside a loop — a
// break or continue, to the innermost loop or to an enclosing label.
func (g *bodyGen) jump(indent int) {
	g.line(indent, "if c {")
	if len(g.loops) == 0 || g.r.Intn(3) == 0 {
		g.line(indent+1, "return")
	} else {
		kw := "break"
		if g.r.Intn(2) == 0 {
			kw = "continue"
		}
		target := g.loops[g.r.Intn(len(g.loops))]
		if target == "" {
			// An unlabeled jump binds to the innermost loop, or to an
			// enclosing switch for break; both are valid control flow.
			g.line(indent+1, "%s", kw)
		} else {
			g.line(indent+1, "%s %s", kw, target)
		}
	}
	g.line(indent, "}")
}

// RunSource type-checks src as a single-file package with no imports and
// applies the analyzer without a fact store, returning its diagnostics. A
// src that does not compile fails the test.
func RunSource(t *testing.T, a *analysis.Analyzer, src string) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "gen.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing generated source: %v\n%s", err, src)
	}
	files := []*ast.File{f}
	pkg, info, err := driver.Check(fset, "gen", nil, files, "")
	if err != nil {
		t.Fatalf("type-checking generated source: %v\n%s", err, src)
	}
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		TypesSizes: driver.Sizes(),
		Report:     func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer error: %v\n%s", a.Name, err, src)
	}
	return diags
}
