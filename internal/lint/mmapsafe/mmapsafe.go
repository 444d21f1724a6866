// Package mmapsafe defines a thriftyvet analyzer enforcing the zero-copy
// ownership contract of graph/zerocopy.go: once Close unmaps an
// mmap-backed value's pages, neither the value nor any slice aliasing its
// arrays may be touched again — the memory is gone, and the fault is a
// SIGSEGV or silent garbage, not a tidy error.
//
// Mapped types are recognized by shape: a named struct with an unexported
// `mapped []byte` field and a Close method (graph.Graph, graph.CSRSlice).
// The defining package exports a MappedTypeFact on the type and a
// MappedCtorFact on every function that reaches the package's mmapFile
// primitive and returns a mapped pointer (LoadBinary, LoadCSRSlice,
// Ingest, ...). Ctor facts propagate through wrappers: a function in
// another package returning a mapped pointer it obtained from a
// fact-carrying constructor is itself marked, so `shard.Set.Slice` is as
// much a constructor as `graph.LoadCSRSlice`.
//
// The check is a forward may-closed dataflow over the internal/lint/cfg
// block graph, run per function body and per mapped variable and solved by
// cfg.Forward, whose cap for this two-bit state is 2·|blocks| block visits:
//
//   - after a path through `v.Close()`, any use of v — a method call, a
//     field read, passing v along — is reported. Mapped, MappedBytes and
//     a repeated Close stay allowed: they read only the struct header,
//     never the mapped pages, and Close is idempotent.
//   - slice-typed variables derived from v (`adj := v.Adj`,
//     `row := v.Neighbors(u)`) alias the mapped region; using one after
//     v's Close is reported the same way.
//   - `defer v.Close()` closes at function exit and constrains nothing
//     inside the body; reassigning v makes it a fresh, open value.
package mmapsafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"thriftylp/internal/lint/analysis"
	"thriftylp/internal/lint/cfg"
	"thriftylp/internal/lint/lintutil"
)

// MappedTypeFact marks a named type whose values may alias an mmap region.
type MappedTypeFact struct{}

func (*MappedTypeFact) AFact()         {}
func (*MappedTypeFact) String() string { return "mmap-backed" }

// MappedCtorFact marks a function returning a freshly mapped value.
type MappedCtorFact struct{}

func (*MappedCtorFact) AFact()         {}
func (*MappedCtorFact) String() string { return "maps memory" }

// Analyzer is the mmapsafe analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "mmapsafe",
	Doc: "check that mmap-backed values and their aliases are not used after Close\n\n" +
		"Close unmaps the pages backing graph.Graph / graph.CSRSlice arrays;\n" +
		"any later use of the value or of a slice derived from it faults or\n" +
		"reads garbage. See graph/zerocopy.go and DESIGN.md §17.",
	Run:       run,
	FactTypes: []analysis.Fact{new(MappedTypeFact), new(MappedCtorFact)},
}

// headerMethods never touch the mapped pages: they read the struct header
// only, and Close is idempotent by contract.
var headerMethods = map[string]bool{
	"Close":       true,
	"Mapped":      true,
	"MappedBytes": true,
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{pass: pass, mapped: map[*types.TypeName]bool{}}
	c.seedTypes()
	c.seedCtors()

	lintutil.ForEachBody(pass, func(_ *types.Func, body *ast.BlockStmt) { c.checkBody(body) })
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
	// mapped memoizes isMappedName for this package's run.
	mapped map[*types.TypeName]bool
}

// seedTypes exports MappedTypeFact on this package's mapped-shaped types.
func (c *checker) seedTypes() {
	scope := c.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if mappedShape(tn) {
			c.mapped[tn] = true
			c.pass.ExportObjectFact(tn, &MappedTypeFact{})
		}
	}
}

// mappedShape reports the structural signature of an mmap-backed type: a
// named struct with an unexported `mapped []byte` field and a niladic
// Close method.
func mappedShape(tn *types.TypeName) bool {
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	found := false
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != "mapped" {
			continue
		}
		sl, ok := f.Type().(*types.Slice)
		if ok {
			if b, ok := sl.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
				found = true
			}
		}
	}
	if !found {
		return false
	}
	cl, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, tn.Pkg(), "Close")
	fn, ok := cl.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Params().Len() == 0
}

// isMappedName reports whether the named type is mmap-backed, consulting
// the fact store for imported types and shape for local ones.
func (c *checker) isMappedName(named *types.Named) bool {
	tn := named.Obj()
	if v, ok := c.mapped[tn]; ok {
		return v
	}
	v := c.pass.ImportObjectFact(tn, &MappedTypeFact{}) || mappedShape(tn)
	c.mapped[tn] = v
	return v
}

// mappedPtrType returns the mapped named type when t is *T for such a T.
func (c *checker) mappedPtrType(t types.Type) *types.Named {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || !c.isMappedName(named) {
		return nil
	}
	return named
}

// seedCtors exports MappedCtorFact on this package's functions that return
// a mapped pointer and reach mapped memory: a call to a package-local
// mmapFile, or to any fact-carrying constructor (local or imported). The
// local fixpoint makes the reachability transitive regardless of
// declaration order.
func (c *checker) seedCtors() {
	type cand struct {
		fn   *types.Func
		body *ast.BlockStmt
	}
	var cands []cand
	for _, f := range c.pass.Files {
		if lintutil.InGOROOT(c.pass.Fset, f) || lintutil.IsTestFile(c.pass.Fset, f.Package) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			returnsMapped := false
			for i := 0; i < sig.Results().Len(); i++ {
				if c.mappedPtrType(sig.Results().At(i).Type()) != nil {
					returnsMapped = true
				}
			}
			if returnsMapped {
				cands = append(cands, cand{fn, fd.Body})
			}
		}
	}

	marked := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for _, cd := range cands {
			if marked[cd.fn] {
				continue
			}
			reaches := false
			ast.Inspect(cd.body, func(n ast.Node) bool {
				if reaches {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := lintutil.CalleeFunc(c.pass.TypesInfo, call)
				if callee == nil {
					return true
				}
				if callee.Name() == "mmapFile" && callee.Pkg() == c.pass.Pkg {
					reaches = true
				} else if marked[callee.Origin()] || c.pass.ImportObjectFact(callee.Origin(), &MappedCtorFact{}) {
					reaches = true
				}
				return !reaches
			})
			if reaches {
				marked[cd.fn] = true
				c.pass.ExportObjectFact(cd.fn, &MappedCtorFact{})
				changed = true
			}
		}
	}
}

// tracked is one mapped variable in one body, with the slice variables
// known to alias its arrays.
type tracked struct {
	obj     types.Object
	name    string
	typ     string // named type, for diagnostics
	derived map[types.Object]bool
}

// checkBody runs the may-closed dataflow for every mapped variable.
func (c *checker) checkBody(body *ast.BlockStmt) {
	vars := c.collectVars(body)
	if len(vars) == 0 {
		return
	}
	graph := cfg.New(body, lintutil.MayReturn(c.pass.TypesInfo))
	for _, tv := range vars {
		c.analyzeVar(graph, tv)
	}
}

// collectVars finds the body's mapped-pointer variables and their derived
// slice aliases. A variable qualifies by definition inside the body or by
// use (parameters, outer locals); field expressions are out of scope —
// the refcount layer (internal/serve.Snapshot, checked by reflease) owns
// those.
func (c *checker) collectVars(body *ast.BlockStmt) []*tracked {
	byObj := map[types.Object]*tracked{}
	add := func(id *ast.Ident, obj types.Object) {
		if obj == nil || byObj[obj] != nil {
			return
		}
		named := c.mappedPtrType(obj.Type())
		if named == nil {
			return
		}
		byObj[obj] = &tracked{
			obj:     obj,
			name:    id.Name,
			typ:     named.Obj().Name(),
			derived: map[types.Object]bool{},
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			add(id, c.pass.TypesInfo.ObjectOf(id))
		}
		return true
	})
	if len(byObj) == 0 {
		return nil
	}

	// Derived aliases: d := v.Field or d := v.Method(...) with a
	// slice-typed result, v tracked.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok || lhs.Name == "_" {
			return true
		}
		lobj := c.pass.TypesInfo.ObjectOf(lhs)
		if lobj == nil {
			return true
		}
		if _, ok := lobj.Type().Underlying().(*types.Slice); !ok {
			return true
		}
		base := c.baseOf(as.Rhs[0], byObj)
		if base != nil {
			base.derived[lobj] = true
		}
		return true
	})

	out := make([]*tracked, 0, len(byObj))
	for _, tv := range byObj {
		out = append(out, tv)
	}
	return out
}

// baseOf resolves v from `v.F`, `v.M(...)`, or slicings thereof.
func (c *checker) baseOf(e ast.Expr, byObj map[types.Object]*tracked) *tracked {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
				return byObj[obj]
			}
		}
	case *ast.CallExpr:
		return c.baseOf(e.Fun, byObj)
	case *ast.SliceExpr:
		return c.baseOf(e.X, byObj)
	case *ast.IndexExpr:
		return c.baseOf(e.X, byObj)
	}
	return nil
}

// The per-variable state is the set of ways the variable can be reached:
// open, closed, or both.
const (
	open   uint8 = 1 << 0
	closed uint8 = 1 << 1
)

// analyzeVar runs the two-bit (open-reachable, closed-reachable) forward
// fixpoint for one variable and reports uses on closed-reachable nodes.
func (c *checker) analyzeVar(graph *cfg.CFG, tv *tracked) {
	reported := map[token.Pos]bool{}
	what := fmt.Sprintf("mmapsafe: fixpoint for %s at %s", tv.name, c.pass.Fset.Position(tv.obj.Pos()))

	// Every reached block's state is non-empty, so it can grow at most
	// once after its first record.
	cfg.Forward(graph, what, 1, open,
		func(dst, src uint8) (uint8, bool) { return dst | src, dst|src != dst },
		func(blk *cfg.Block, state uint8) []uint8 {
			for _, n := range blk.Nodes {
				state = c.applyNode(n, state, tv, reported)
			}
			outs := make([]uint8, len(blk.Succs))
			for i := range outs {
				outs[i] = state
			}
			return outs
		})
}

// applyNode reports closed-state uses inside n and returns the out-state.
func (c *checker) applyNode(n ast.Node, state uint8, tv *tracked, reported map[token.Pos]bool) uint8 {
	closes := false
	lhsWrite := map[*ast.Ident]bool{}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			// A closure capturing the variable runs later under its own
			// CFG; ordering against this body's Close is not decidable
			// here, so captures stay unchecked (the closure body is).
			return false
		}
		switch m := m.(type) {
		case *ast.DeferStmt:
			// defer v.Close() acts at exit; skip the call so it neither
			// closes mid-body nor counts as a use.
			if c.isCloseCall(m.Call, tv) {
				return false
			}
		case *ast.CallExpr:
			if c.isCloseCall(m, tv) {
				closes = true
				return false // receiver inside is not a use
			}
			if c.isHeaderCall(m, tv) {
				return false
			}
		case *ast.AssignStmt:
			// Reassignment: v on an LHS makes it a fresh open value on
			// this path. (Close-then-reassign is the reload pattern.)
			for _, l := range m.Lhs {
				id, ok := ast.Unparen(l).(*ast.Ident)
				if !ok {
					continue
				}
				lhsWrite[id] = true
				if c.pass.TypesInfo.ObjectOf(id) == tv.obj {
					state = open
				}
			}
		case *ast.BinaryExpr:
			// nil comparisons read only the pointer.
			if m.Op == token.EQL || m.Op == token.NEQ {
				if c.isVarVsNil(m, tv) {
					return false
				}
			}
		case *ast.Ident:
			obj := c.pass.TypesInfo.ObjectOf(m)
			if obj == nil {
				return true
			}
			if obj == tv.obj && state&closed != 0 && !reported[m.Pos()] {
				reported[m.Pos()] = true
				c.pass.Reportf(m.Pos(), "use of %s after Close: the mmap-backed %s memory may be unmapped", tv.name, tv.typ)
			}
			if tv.derived[obj] && !lhsWrite[m] && state&closed != 0 && !reported[m.Pos()] {
				// Writing the alias variable itself is fine (the bad read
				// is on the right-hand side and reported there).
				reported[m.Pos()] = true
				c.pass.Reportf(m.Pos(), "use of %s after Close of %s: it aliases the unmapped %s memory", m.Name, tv.name, tv.typ)
			}
		}
		return true
	})
	if closes {
		state |= closed
		state &^= open
	}
	return state
}

// isCloseCall reports whether call is v.Close(...) for the tracked v.
func (c *checker) isCloseCall(call *ast.CallExpr, tv *tracked) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && c.pass.TypesInfo.ObjectOf(id) == tv.obj
}

// isHeaderCall reports whether call is v.M() for a header-only method.
func (c *checker) isHeaderCall(call *ast.CallExpr, tv *tracked) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !headerMethods[sel.Sel.Name] {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && c.pass.TypesInfo.ObjectOf(id) == tv.obj
}

// isVarVsNil reports whether e compares the tracked variable against nil.
func (c *checker) isVarVsNil(e *ast.BinaryExpr, tv *tracked) bool {
	isV := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && c.pass.TypesInfo.ObjectOf(id) == tv.obj
	}
	isNil := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isV(e.X) && isNil(e.Y)) || (isNil(e.X) && isV(e.Y))
}
