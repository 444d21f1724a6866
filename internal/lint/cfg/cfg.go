// Package cfg builds an intraprocedural control-flow graph over a function
// body's syntax tree, mirroring the semantics of golang.org/x/tools/go/cfg
// (which the dependency-free go.mod cannot import).
//
// The graph is a set of basic blocks holding the body's statements (and, for
// branch blocks, the condition expression as the block's last node). Edges
// follow the evaluation order the spec defines:
//
//   - An if/for condition is the last node of its block; Succs[0] is the
//     true edge and Succs[1] the false edge.
//   - Every return statement edges to the distinguished Exit block, as does
//     falling off the end of the body — so dataflow analyzers can read off
//     "state at normal function exit" at one place.
//   - A call statement that cannot return (panic, or any call the caller's
//     mayReturn callback rejects, e.g. os.Exit or log.Fatalf) terminates its
//     block with no successors: paths through it never reach Exit, which is
//     exactly the panic/return distinction resource-lifetime checks need.
//   - Defer statements are ordinary nodes; analyzers interested in deferred
//     release semantics interpret them in their own transfer functions.
//
// The builder is purely syntactic: it needs no type information, so it also
// works on fixtures and on files that fail to type-check.
//
// Forward solves a forward dataflow problem over the graph. An analyzer
// supplies the lattice (entry state, join, height) and a per-block
// transfer; Forward owns the worklist and the visit cap that makes every
// fixpoint terminate.
package cfg

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks holds every block, indexed by Block.Index. Blocks[0] is the
	// entry block and Blocks[1] the exit block; blocks made unreachable by
	// jumps are retained (harmlessly — analyzers walk from Entry).
	Blocks []*Block
	// Entry is where control enters the body.
	Entry *Block
	// Exit is where every return statement and the fall-off-the-end path
	// lead. It has no nodes and no successors.
	Exit *Block
}

// A Block is one basic block: a maximal straight-line node sequence.
type Block struct {
	// Index is the position in CFG.Blocks.
	Index int32
	// Kind labels the block's role ("entry", "if.then", "for.body", ...)
	// for debugging and golden tests; analyzers should not switch on it.
	Kind string
	// Nodes are the block's statements and condition expressions, in
	// evaluation order. For two-successor blocks the condition is last.
	Nodes []ast.Node
	// Succs are the successor blocks. Conditional blocks order them
	// [true, false].
	Succs []*Block
}

// Return returns the return statement terminating the block, if any.
func (b *Block) Return() *ast.ReturnStmt {
	if len(b.Nodes) == 0 {
		return nil
	}
	r, _ := b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt)
	return r
}

// New builds the CFG of body. mayReturn, when non-nil, reports whether a
// call expression can return to its caller; calls it rejects terminate
// their block (panic is always treated as non-returning, even with a nil
// callback).
func New(body *ast.BlockStmt, mayReturn func(*ast.CallExpr) bool) *CFG {
	b := &builder{
		cfg:       &CFG{},
		mayReturn: mayReturn,
		lblocks:   map[string]*lblock{},
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.current = b.cfg.Entry
	b.stmtList(body.List)
	// Falling off the end of the body is an implicit return.
	b.edge(b.cfg.Exit)
	return b.cfg
}

// builder holds the in-progress graph and the break/continue/fallthrough
// target stack.
type builder struct {
	cfg       *CFG
	mayReturn func(*ast.CallExpr) bool
	current   *Block
	targets   *targets
	lblocks   map[string]*lblock
	// pending is the label metadata of an enclosing labeled statement,
	// consumed by the next loop/switch/select the builder enters.
	pending *lblock
}

// targets is one frame of the jump-target stack.
type targets struct {
	tail         *targets
	_break       *Block
	_continue    *Block
	_fallthrough *Block
}

// lblock records the jump targets a label resolves to.
type lblock struct {
	_goto     *Block
	_break    *Block
	_continue *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: int32(len(b.cfg.Blocks)), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// edge adds current → target.
func (b *builder) edge(target *Block) {
	b.current.Succs = append(b.current.Succs, target)
}

// jump adds current → target and starts a fresh (unreachable) block, for
// statements that unconditionally transfer control.
func (b *builder) jump(target *Block) {
	if target != nil {
		b.edge(target)
	}
	b.current = b.newBlock("unreachable")
}

func (b *builder) add(n ast.Node) {
	b.current.Nodes = append(b.current.Nodes, n)
}

// labeledBlock returns (creating on demand) the lblock for the named label;
// on-demand creation serves goto statements that precede their label.
func (b *builder) labeledBlock(name string) *lblock {
	lb := b.lblocks[name]
	if lb == nil {
		lb = &lblock{_goto: b.newBlock("label." + name)}
		b.lblocks[name] = lb
	}
	return lb
}

// takePending consumes the pending label of a labeled loop/switch/select,
// wiring its break (and, for loops, continue) targets.
func (b *builder) takePending(_break, _continue *Block) {
	if b.pending == nil {
		return
	}
	b.pending._break = _break
	b.pending._continue = _continue
	b.pending = nil
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.BadStmt, *ast.EmptyStmt:
		// no-op

	case *ast.DeclStmt, *ast.SendStmt, *ast.IncDecStmt, *ast.AssignStmt,
		*ast.GoStmt, *ast.DeferStmt:
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && !b.callMayReturn(call) {
			// The call never returns: the block dead-ends here, off the
			// path to Exit.
			b.current = b.newBlock("unreachable.call")
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.LabeledStmt:
		lb := b.labeledBlock(s.Label.Name)
		b.jump(lb._goto)
		b.current = lb._goto
		b.pending = lb
		b.stmt(s.Stmt)
		b.pending = nil

	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s)

	case *ast.RangeStmt:
		b.rangeStmt(s)

	case *ast.SwitchStmt:
		b.switchStmt(s)

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)

	case *ast.SelectStmt:
		b.selectStmt(s)

	default:
		panic(fmt.Sprintf("cfg: unexpected statement %T", s))
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	var target *Block
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if lb := b.lblocks[s.Label.Name]; lb != nil {
				target = lb._break
			}
		} else {
			for t := b.targets; t != nil; t = t.tail {
				if t._break != nil {
					target = t._break
					break
				}
			}
		}
	case token.CONTINUE:
		if s.Label != nil {
			if lb := b.lblocks[s.Label.Name]; lb != nil {
				target = lb._continue
			}
		} else {
			for t := b.targets; t != nil; t = t.tail {
				if t._continue != nil {
					target = t._continue
					break
				}
			}
		}
	case token.FALLTHROUGH:
		for t := b.targets; t != nil; t = t.tail {
			if t._fallthrough != nil {
				target = t._fallthrough
				break
			}
		}
	case token.GOTO:
		if s.Label != nil {
			target = b.labeledBlock(s.Label.Name)._goto
		}
	}
	// A nil target means ill-formed input; terminating the block keeps the
	// builder total.
	b.jump(target)
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	then := b.newBlock("if.then")
	done := b.newBlock("if.done")
	els := done
	if s.Else != nil {
		els = b.newBlock("if.else")
	}
	b.add(s.Cond)
	b.edge(then)
	b.edge(els)

	b.current = then
	b.stmt(s.Body)
	b.edge(done)

	if s.Else != nil {
		b.current = els
		b.stmt(s.Else)
		b.edge(done)
	}
	b.current = done
}

func (b *builder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	loop := b.newBlock("for.loop")
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	post := loop
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	b.edge(loop)

	b.current = loop
	if s.Cond != nil {
		b.add(s.Cond)
		b.edge(body)
		b.edge(done)
	} else {
		b.edge(body)
	}

	b.takePending(done, post)
	b.targets = &targets{tail: b.targets, _break: done, _continue: post}
	b.current = body
	b.stmt(s.Body)
	b.targets = b.targets.tail
	b.edge(post)

	if s.Post != nil {
		b.current = post
		b.stmt(s.Post)
		b.edge(loop)
	}
	b.current = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	// The range operand is evaluated once, before the loop; the RangeStmt
	// itself is the loop-header "condition" node (per-iteration key/value
	// binding lives there).
	b.add(s.X)
	loop := b.newBlock("range.loop")
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.edge(loop)

	b.current = loop
	b.add(s)
	b.edge(body)
	b.edge(done)

	b.takePending(done, loop)
	b.targets = &targets{tail: b.targets, _break: done, _continue: loop}
	b.current = body
	b.stmt(s.Body)
	b.targets = b.targets.tail
	b.edge(loop)

	b.current = done
}

func (b *builder) switchStmt(s *ast.SwitchStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.caseClauses(s.Body.List, "switch")
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Assign)
	b.caseClauses(s.Body.List, "typeswitch")
}

// caseClauses wires a (type) switch: the head block branches to every case
// body (case-expression order is irrelevant to a may-analysis), falls
// through to done when no default exists, and each body's fallthrough
// target is the next body.
func (b *builder) caseClauses(clauses []ast.Stmt, kind string) {
	head := b.current
	done := b.newBlock(kind + ".done")
	b.takePending(done, nil)

	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i := range clauses {
		bodies[i] = b.newBlock(kind + ".body")
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		head.Succs = append(head.Succs, bodies[i])
		b.current = bodies[i]
		for _, e := range cc.List {
			b.add(e)
		}
		var ft *Block
		if i+1 < len(clauses) {
			ft = bodies[i+1]
		}
		b.targets = &targets{tail: b.targets, _break: done, _fallthrough: ft}
		b.stmtList(cc.Body)
		b.targets = b.targets.tail
		b.edge(done)
	}
	if !hasDefault {
		head.Succs = append(head.Succs, done)
	}
	b.current = done
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	head := b.current
	done := b.newBlock("select.done")
	b.takePending(done, nil)

	if len(s.Body.List) == 0 {
		// select{} blocks forever: the head dead-ends.
		b.current = done
		return
	}
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		body := b.newBlock("select.body")
		head.Succs = append(head.Succs, body)
		b.current = body
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.targets = &targets{tail: b.targets, _break: done}
		b.stmtList(cc.Body)
		b.targets = b.targets.tail
		b.edge(done)
	}
	b.current = done
}

// callMayReturn reports whether a statement-level call can return. The
// builtin panic never does; everything else defers to the caller's callback.
func (b *builder) callMayReturn(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return false
	}
	if b.mayReturn != nil {
		return b.mayReturn(call)
	}
	return true
}

// Format renders the graph for debugging and golden tests: one paragraph
// per block with its kind, nodes (single-line source), and successor
// indices. Unreachable empty blocks (jump residue) are elided.
func (c *CFG) Format(fset *token.FileSet) string {
	preds := map[int32]bool{}
	for _, blk := range c.Blocks {
		for _, s := range blk.Succs {
			preds[s.Index] = true
		}
	}
	var buf bytes.Buffer
	for _, blk := range c.Blocks {
		if len(blk.Nodes) == 0 && len(blk.Succs) == 0 &&
			!preds[blk.Index] && blk != c.Entry && blk != c.Exit {
			continue
		}
		fmt.Fprintf(&buf, ".%d: # %s\n", blk.Index, blk.Kind)
		for _, n := range blk.Nodes {
			fmt.Fprintf(&buf, "\t%s\n", formatNode(fset, n))
		}
		if len(blk.Succs) > 0 {
			var ids []string
			for _, s := range blk.Succs {
				ids = append(ids, fmt.Sprintf(".%d", s.Index))
			}
			fmt.Fprintf(&buf, "\tsuccs: %s\n", strings.Join(ids, " "))
		}
	}
	return buf.String()
}

// formatNode renders one node as collapsed single-line source.
func formatNode(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, n)
	return strings.Join(strings.Fields(buf.String()), " ")
}
