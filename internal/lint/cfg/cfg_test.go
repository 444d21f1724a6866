package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"strings"
	"testing"
)

// build parses src as the body of a function declaration and returns its
// CFG plus the fileset. mayReturn rejects calls to functions whose name
// starts with "noreturn" (standing in for os.Exit etc).
func build(t *testing.T, body string) (*CFG, *token.FileSet) {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	mayReturn := func(call *ast.CallExpr) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return !ok || !strings.HasPrefix(id.Name, "noreturn")
	}
	return New(fd.Body, mayReturn), fset
}

// reach returns the set of blocks reachable from the entry.
func reach(c *CFG) map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(c.Entry)
	return seen
}

func TestStraightLine(t *testing.T) {
	c, _ := build(t, "x := 1\ny := x\n_ = y")
	if len(c.Entry.Nodes) != 3 {
		t.Fatalf("entry has %d nodes, want 3", len(c.Entry.Nodes))
	}
	if len(c.Entry.Succs) != 1 || c.Entry.Succs[0] != c.Exit {
		t.Fatalf("entry should fall through to exit; succs %v", c.Entry.Succs)
	}
}

func TestIfElse(t *testing.T) {
	c, fset := build(t, "x := 1\nif x > 0 {\n\tx = 2\n} else {\n\tx = 3\n}\n_ = x")
	got := c.Format(fset)
	want := `.0: # entry
	x := 1
	x > 0
	succs: .2 .4
.1: # exit
.2: # if.then
	x = 2
	succs: .3
.3: # if.done
	_ = x
	succs: .1
.4: # if.else
	x = 3
	succs: .3
`
	if got != want {
		t.Errorf("if/else CFG:\n%s\nwant:\n%s", got, want)
	}
}

func TestIfReturnReachesExit(t *testing.T) {
	c, _ := build(t, "if cond() {\n\treturn\n}\nwork()")
	r := reach(c)
	if !r[c.Exit] {
		t.Fatal("exit unreachable")
	}
	// The then-block must end in a return edging straight to Exit.
	var then *Block
	for b := range r {
		if b.Return() != nil {
			then = b
		}
	}
	if then == nil {
		t.Fatal("no block ends in a return")
	}
	if len(then.Succs) != 1 || then.Succs[0] != c.Exit {
		t.Fatalf("return block succs = %v, want [exit]", then.Succs)
	}
}

func TestPanicTerminates(t *testing.T) {
	c, _ := build(t, "if bad() {\n\tpanic(\"boom\")\n}\nwork()")
	// The panic block is reachable but must not reach Exit.
	r := reach(c)
	var panicBlock *Block
	for b := range r {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						panicBlock = b
					}
				}
			}
		}
	}
	if panicBlock == nil {
		t.Fatal("panic block unreachable")
	}
	if len(panicBlock.Succs) != 0 {
		t.Fatalf("panic block has succs %v, want none", panicBlock.Succs)
	}
}

func TestNoReturnCall(t *testing.T) {
	c, _ := build(t, "if bad() {\n\tnoreturnExit(1)\n}\nwork()")
	r := reach(c)
	for b := range r {
		for _, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "noreturnExit" {
				if len(b.Succs) != 0 {
					t.Fatalf("noreturn call block has succs %v, want none", b.Succs)
				}
				return
			}
		}
	}
	t.Fatal("noreturn call block not found")
}

func TestForLoop(t *testing.T) {
	c, fset := build(t, "for i := 0; i < 10; i++ {\n\tuse(i)\n}\ndone()")
	got := c.Format(fset)
	want := `.0: # entry
	i := 0
	succs: .2
.1: # exit
.2: # for.loop
	i < 10
	succs: .3 .4
.3: # for.body
	use(i)
	succs: .5
.4: # for.done
	done()
	succs: .1
.5: # for.post
	i++
	succs: .2
`
	if got != want {
		t.Errorf("for CFG:\n%s\nwant:\n%s", got, want)
	}
}

func TestForBreakContinue(t *testing.T) {
	c, _ := build(t, "for {\n\tif a() {\n\t\tbreak\n\t}\n\tif b() {\n\t\tcontinue\n\t}\n\twork()\n}\ndone()")
	if !reach(c)[c.Exit] {
		t.Fatal("exit unreachable despite break")
	}
}

func TestLabeledBreak(t *testing.T) {
	c, _ := build(t, "outer:\nfor {\n\tfor {\n\t\tif a() {\n\t\t\tbreak outer\n\t\t}\n\t}\n}\ndone()")
	if !reach(c)[c.Exit] {
		t.Fatal("exit unreachable despite labeled break")
	}
}

func TestInfiniteLoopNoExit(t *testing.T) {
	c, _ := build(t, "for {\n\twork()\n}")
	if reach(c)[c.Exit] {
		t.Fatal("exit reachable through an infinite loop")
	}
}

func TestRange(t *testing.T) {
	c, fset := build(t, "for _, v := range xs {\n\tuse(v)\n}\ndone()")
	got := c.Format(fset)
	want := `.0: # entry
	xs
	succs: .2
.1: # exit
.2: # range.loop
	for _, v := range xs { use(v) }
	succs: .3 .4
.3: # range.body
	use(v)
	succs: .2
.4: # range.done
	done()
	succs: .1
`
	if got != want {
		t.Errorf("range CFG:\n%s\nwant:\n%s", got, want)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	c, _ := build(t, "switch x() {\ncase 1:\n\ta()\n\tfallthrough\ncase 2:\n\tb()\ndefault:\n\tc()\n}\ndone()")
	r := reach(c)
	// Find the case-1 body and check it edges to the case-2 body.
	var b1, b2 *Block
	for b := range r {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						switch id.Name {
						case "a":
							b1 = b
						case "b":
							b2 = b
						}
					}
				}
			}
		}
	}
	if b1 == nil || b2 == nil {
		t.Fatal("case bodies not found")
	}
	found := false
	for _, s := range b1.Succs {
		if s == b2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallthrough edge missing: case-1 succs %v", b1.Succs)
	}
	if !r[c.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestSwitchNoDefaultEdgesToDone(t *testing.T) {
	c, _ := build(t, "switch x() {\ncase 1:\n\tnoreturnExit(0)\n}\ndone()")
	// Without a default, the head must edge past the cases to done.
	if !reach(c)[c.Exit] {
		t.Fatal("exit unreachable: missing no-default edge")
	}
}

func TestTypeSwitch(t *testing.T) {
	c, _ := build(t, "switch v := x.(type) {\ncase int:\n\tuse(v)\ncase string:\n\tuse(v)\n}\ndone()")
	if !reach(c)[c.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestSelect(t *testing.T) {
	c, _ := build(t, "select {\ncase <-ch:\n\ta()\ncase v := <-ch2:\n\tuse(v)\n}\ndone()")
	if !reach(c)[c.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestEmptySelectBlocksForever(t *testing.T) {
	c, _ := build(t, "work()\nselect {}\ndone()")
	if reach(c)[c.Exit] {
		t.Fatal("exit reachable through select{}")
	}
}

func TestGoto(t *testing.T) {
	c, _ := build(t, "i := 0\nloop:\nif i < 10 {\n\ti++\n\tgoto loop\n}\ndone()")
	if !reach(c)[c.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestDeferIsOrdinaryNode(t *testing.T) {
	c, _ := build(t, "defer release()\nwork()")
	var found bool
	for _, n := range c.Entry.Nodes {
		if _, ok := n.(*ast.DeferStmt); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("defer statement not recorded in entry block")
	}
}

// TestConditionIsLastNode checks the contract branch-refining analyzers
// rely on: a two-successor block's condition is its final node.
func TestConditionIsLastNode(t *testing.T) {
	c, _ := build(t, "v := get()\nif v == nil {\n\treturn\n}\nuse(v)")
	for b := range reach(c) {
		if len(b.Succs) == 2 {
			last := b.Nodes[len(b.Nodes)-1]
			if _, ok := last.(ast.Expr); !ok {
				t.Fatalf("two-successor block's last node is %T, want expression", last)
			}
			return
		}
	}
	t.Fatal("no conditional block found")
}

// defs is the state of a reaching-definitions problem: the assignments,
// rendered as source, that may reach a point.
type defs map[string]bool

// unionDefs is the reaching-definitions join.
func unionDefs(dst, src defs) (defs, bool) {
	out := defs{}
	for d := range dst {
		out[d] = true
	}
	for d := range src {
		out[d] = true
	}
	return out, len(out) > len(dst)
}

// reachingDefs returns the reaching-definitions transfer: an assignment
// kills every earlier one (the test bodies assign one variable).
func reachingDefs(fset *token.FileSet) func(*Block, defs) []defs {
	return func(b *Block, in defs) []defs {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				in = defs{formatNode(fset, as): true}
			}
		}
		outs := make([]defs, len(b.Succs))
		for i := range outs {
			outs[i] = in
		}
		return outs
	}
}

// blockOfKind returns the graph's first block of the given kind.
func blockOfKind(t *testing.T, c *CFG, kind string) *Block {
	t.Helper()
	for _, b := range c.Blocks {
		if b.Kind == kind {
			return b
		}
	}
	t.Fatalf("no %s block", kind)
	return nil
}

// TestForwardPanicsPastBudget checks that a join that never stops growing
// trips the (height+1)·|blocks| visit cap instead of spinning, and that the
// panic names the problem and the budget.
func TestForwardPanicsPastBudget(t *testing.T) {
	c, _ := build(t, "for {\n\twork()\n}")
	budget := 3 * len(c.Blocks)
	defer func() {
		p := recover()
		want := fmt.Sprintf("spin test exceeded %d block visits", budget)
		if p != want {
			t.Fatalf("panic %v, want %q", p, want)
		}
	}()
	Forward(c, "spin test", 2, 0,
		func(dst, src int) (int, bool) { return dst + 1, true },
		func(b *Block, in int) []int { return make([]int, len(b.Succs)) })
	t.Fatal("Forward returned from a join that always grows")
}

// TestForwardVisitsInfeasibleEdgeOnce checks the first-reach rule: a block
// reached only along an edge whose out-state is empty is still visited,
// exactly once, and recorded with the empty state.
func TestForwardVisitsInfeasibleEdgeOnce(t *testing.T) {
	c, fset := build(t, "if c() {\n\tx = 1\n}\nuse()")
	visits := map[*Block]int{}
	transfer := reachingDefs(fset)
	in := Forward(c, "infeasible", 1, defs{"param": true}, unionDefs,
		func(b *Block, state defs) []defs {
			visits[b]++
			outs := transfer(b, state)
			if len(outs) == 2 {
				outs[0] = defs{} // the true edge is infeasible
			}
			return outs
		})
	then := blockOfKind(t, c, "if.then")
	if visits[then] != 1 {
		t.Errorf("if.then visited %d times, want 1", visits[then])
	}
	if got, ok := in[then]; !ok || len(got) != 0 {
		t.Errorf("if.then in-state %v (recorded %v), want recorded and empty", got, ok)
	}
	want := defs{"param": true, "x = 1": true}
	if got := in[c.Exit]; !maps.Equal(got, want) {
		t.Errorf("exit in-state %v, want %v", got, want)
	}
}

// TestForwardLoopConverges checks that a loop reaches its fixpoint and that
// the loop exit holds the join of the path that skips the body and the path
// through it.
func TestForwardLoopConverges(t *testing.T) {
	c, fset := build(t, "x := 0\nfor c() {\n\tx = 1\n}\nuse(x)")
	in := Forward(c, "loop", 1, defs{}, unionDefs, reachingDefs(fset))
	want := defs{"x := 0": true, "x = 1": true}
	for _, kind := range []string{"for.loop", "for.body", "for.done"} {
		if got := in[blockOfKind(t, c, kind)]; !maps.Equal(got, want) {
			t.Errorf("%s in-state %v, want %v", kind, got, want)
		}
	}
}
