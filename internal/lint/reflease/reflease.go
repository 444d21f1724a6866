// Package reflease defines a thriftyvet analyzer enforcing the snapshot
// reference-counting protocol of internal/serve: every reference acquired
// from a Source.Acquire-shaped call (or taken by a successful tryRef) must
// reach exactly one Release on every control-flow path.
//
// The check is a forward dataflow analysis over the internal/lint/cfg block
// graph, solved by cfg.Forward. Per acquire site it tracks a set of small
// abstract states — held, released, deferred-release count, nilness —
// through every path, refining nilness along `v == nil` branches and
// treating a `defer v.Release()` as a release on all exits (including
// panics). The set has at most maxTuples members, so cfg.Forward caps the
// fixpoint at (maxTuples+1)·|blocks| block visits. It reports:
//
//   - a leak: a path reaches function exit holding an unreleased,
//     non-deferred, possibly-valid reference;
//   - a double release: a path releases (or re-defers a release of) an
//     already-released reference — the refcount protocol panics there at
//     runtime;
//   - a nil release: Release is reachable while the Acquire result is
//     still possibly nil (Acquire returns nil after Retire; releasing nil
//     panics);
//   - a dropped acquire: the call's result is discarded outright, so the
//     reference can never be released.
//
// Ownership transfers end tracking: returning the reference, passing it to
// another function, storing it anywhere, or capturing it in a closure
// moves the release obligation elsewhere, which an intraprocedural check
// cannot follow — so those paths are never reported (no false positives by
// construction).
//
// Cross-package: the analyzer exports an AcquiresFact on functions that
// hand out references — Acquire-shaped signatures, plus any function whose
// body returns an acquired reference (ownership propagates to its
// callers). Callers in importing packages resolve callees through the fact
// store, so `serve`-style protocols are enforced wherever the module calls
// into them.
package reflease

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"math/bits"

	"thriftylp/internal/lint/analysis"
	"thriftylp/internal/lint/cfg"
	"thriftylp/internal/lint/lintutil"
)

// AcquiresFact marks a function whose (single, pointer) result carries a
// reference obligation: the caller must arrange a Release on every path.
type AcquiresFact struct{}

func (*AcquiresFact) AFact()         {}
func (*AcquiresFact) String() string { return "acquires" }

// Analyzer is the reflease analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "reflease",
	Doc: "check that every acquired snapshot reference is released on all paths\n\n" +
		"Results of Acquire-shaped calls (and receivers of successful tryRef\n" +
		"calls) must reach Release exactly once per control-flow path, with\n" +
		"defer-aware and nil-aware path tracking; see DESIGN.md §17.",
	Run:       run,
	FactTypes: []analysis.Fact{new(AcquiresFact)},
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{pass: pass, seeds: map[*types.Func]bool{}}

	// Seed facts from signatures first, so same-package call sites resolve
	// regardless of declaration order: a niladic Acquire method returning
	// a releasable pointer is the protocol's entry point by shape.
	for _, f := range pass.Files {
		if lintutil.InGOROOT(pass.Fset, f) || lintutil.IsTestFile(pass.Fset, f.Package) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if fd.Name.Name == "Acquire" && acquireShaped(fn) {
				c.seeds[fn] = true
				pass.ExportObjectFact(fn, &AcquiresFact{})
			}
		}
	}

	lintutil.ForEachBody(pass, c.checkBody)
	return nil, nil
}

// checker carries one package's analysis context.
type checker struct {
	pass *analysis.Pass
	// seeds are this package's signature-identified acquire functions.
	seeds map[*types.Func]bool
}

// acquireShaped reports whether fn is niladic with a single releasable
// pointer result.
func acquireShaped(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	return releasablePtr(sig.Results().At(0).Type()) != nil
}

// releasablePtr returns the named type T when t is *T and *T has a niladic
// Release method, else nil.
func releasablePtr(t types.Type) *types.Named {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil
	}
	rel, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), "Release")
	fn, ok := rel.(*types.Func)
	if !ok {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 0 || sig.Results().Len() != 0 {
		return nil
	}
	return named
}

// isTryRef reports whether fn is a tryRef-shaped conditional acquire: a
// niladic bool-returning method on a releasable pointer receiver.
func isTryRef(fn *types.Func) bool {
	if fn == nil || (fn.Name() != "tryRef" && fn.Name() != "TryRef") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	basic, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	if !ok || basic.Kind() != types.Bool {
		return false
	}
	return releasablePtr(sig.Recv().Type()) != nil
}

// isAcquireCall resolves call to an acquire function: a same-package seed,
// or any function carrying an AcquiresFact (same package or imported).
func (c *checker) isAcquireCall(call *ast.CallExpr) (*types.Func, bool) {
	fn := lintutil.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return nil, false
	}
	fn = fn.Origin()
	if c.seeds[fn] {
		return fn, true
	}
	if c.pass.ImportObjectFact(fn, &AcquiresFact{}) {
		return fn, true
	}
	return nil, false
}

// nilness lattice values of one tracked reference.
const (
	nilMaybe = iota // could be nil (Acquire's failure value)
	nilNot          // proven non-nil on this path
	nilIs           // proven nil on this path: nothing is held
)

// tuple is the abstract state of one acquire site along one path class.
// The zero tuple means "not (yet) acquired". Comparable by design: block
// states are sets of tuples.
type tuple struct {
	held     bool
	released bool
	dead     bool // ownership escaped; stop tracking, never report
	nilness  byte
	defers   byte // armed deferred releases, saturating at 2
}

// maxTuples is the lattice size: held × released × dead × nilness (3) ×
// defers (3).
const maxTuples = 2 * 2 * 2 * 3 * 3

// index numbers t within the lattice, in [0, maxTuples).
func (t tuple) index() int {
	i := int(t.nilness)*3 + int(t.defers)
	if t.held {
		i += 9
	}
	if t.released {
		i += 18
	}
	if t.dead {
		i += 36
	}
	return i
}

// tupleAt is the inverse of index.
func tupleAt(i int) tuple {
	return tuple{held: i/9%2 == 1, released: i/18%2 == 1, dead: i >= 36, nilness: byte(i / 3 % 3), defers: byte(i % 3)}
}

// tupleSet is a set of tuples, bit t.index() for tuple t. It is a value,
// so predecessor sets stay immutable without copying.
type tupleSet [2]uint64

// The lattice fits tupleSet's 128 bits; this fails to compile otherwise.
const _ = uint(128 - maxTuples)

func setOf(t tuple) tupleSet {
	var s tupleSet
	s.add(t)
	return s
}

func (s *tupleSet) add(t tuple) {
	i := t.index()
	s[i/64] |= 1 << (i % 64)
}

// tuples returns the members of s in index order.
func (s tupleSet) tuples() []tuple {
	out := make([]tuple, 0, bits.OnesCount64(s[0])+bits.OnesCount64(s[1]))
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			out = append(out, tupleAt(w*64+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// leaks reports whether some tuple of s holds an unreleased, undeferred,
// possibly non-nil reference this frame still owns.
func (s tupleSet) leaks() bool {
	for _, t := range s.tuples() {
		if t.held && !t.released && !t.dead && t.defers == 0 && t.nilness != nilIs {
			return true
		}
	}
	return false
}

func union(dst, src tupleSet) (tupleSet, bool) {
	out := tupleSet{dst[0] | src[0], dst[1] | src[1]}
	return out, out != dst
}

// siteKind distinguishes the two acquire forms.
type siteKind int

const (
	acquireSite siteKind = iota // v := x.Acquire()
	tryRefSite                  // if v.tryRef() { ... }
)

// site is one tracked acquisition.
type site struct {
	kind siteKind
	obj  types.Object // the variable holding the reference
	bind ast.Node     // the binding AssignStmt (acquire) or cond CallExpr (tryRef)
	name string       // callee name, for diagnostics
	pos  token.Pos
}

// checkBody analyzes one function (or function literal) body. enclosing is
// the declared function, nil for literals; it receives an AcquiresFact
// when the body returns an acquired reference.
func (c *checker) checkBody(enclosing *types.Func, body *ast.BlockStmt) {
	graph := cfg.New(body, lintutil.MayReturn(c.pass.TypesInfo))
	sites := c.findSites(graph)
	if len(sites) == 0 {
		return
	}
	parents := buildParents(body)
	for _, s := range sites {
		c.analyzeSite(enclosing, graph, parents, s)
	}
}

// buildParents maps every node in the body to its syntactic parent.
func buildParents(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// findSites scans the graph's nodes for acquisitions, reporting dropped
// results on the spot.
func (c *checker) findSites(graph *cfg.CFG) []*site {
	var sites []*site
	seen := map[ast.Node]bool{}
	for _, blk := range graph.Blocks {
		for i, n := range blk.Nodes {
			if seen[n] {
				continue
			}
			seen[n] = true
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
					continue
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok {
					continue
				}
				fn, ok := c.isAcquireCall(call)
				if !ok {
					continue
				}
				id, ok := n.Lhs[0].(*ast.Ident)
				if !ok {
					// Stored straight into a field/element: ownership
					// escapes immediately; nothing to track.
					continue
				}
				if id.Name == "_" {
					c.pass.Reportf(n.Pos(), "result of %s is dropped: the acquired reference can never be released", fn.Name())
					continue
				}
				obj := c.pass.TypesInfo.ObjectOf(id)
				if obj == nil {
					continue
				}
				sites = append(sites, &site{
					kind: acquireSite,
					obj:  obj,
					bind: n,
					name: fn.Name(),
					pos:  n.Pos(),
				})
			case *ast.ExprStmt:
				call, ok := ast.Unparen(n.X).(*ast.CallExpr)
				if !ok {
					continue
				}
				if fn, ok := c.isAcquireCall(call); ok {
					c.pass.Reportf(n.Pos(), "result of %s is dropped: the acquired reference can never be released", fn.Name())
				}
			case *ast.CallExpr:
				// A bare call node is a branch condition (conditions are
				// the last node of two-successor blocks).
				if i != len(blk.Nodes)-1 || len(blk.Succs) != 2 {
					continue
				}
				fn := lintutil.CalleeFunc(c.pass.TypesInfo, n)
				if !isTryRef(fn) {
					continue
				}
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				recv, ok := ast.Unparen(sel.X).(*ast.Ident)
				if !ok {
					continue
				}
				obj := c.pass.TypesInfo.Uses[recv]
				if obj == nil {
					continue
				}
				sites = append(sites, &site{
					kind: tryRefSite,
					obj:  obj,
					bind: n,
					name: fn.Name(),
					pos:  n.Pos(),
				})
			}
		}
	}
	return sites
}

// analyzeSite runs the per-site forward fixpoint and reports.
func (c *checker) analyzeSite(enclosing *types.Func, graph *cfg.CFG, parents map[ast.Node]ast.Node, s *site) {
	rep := &reporter{pass: c.pass, emitted: map[string]bool{}}
	returned := false
	fn := "function literal"
	if enclosing != nil {
		fn = enclosing.FullName()
	}
	what := fmt.Sprintf("reflease: fixpoint for %s (%s at %s)", fn, s.name, c.pass.Fset.Position(s.pos))

	// A tuple set can grow at most maxTuples times after its first record.
	in := cfg.Forward(graph, what, maxTuples, setOf(tuple{nilness: nilMaybe}), union,
		func(blk *cfg.Block, state tupleSet) []tupleSet {
			return c.transfer(blk, state, parents, s, rep, &returned)
		})

	// Leak check at the one place every return and fall-off path meets.
	if in[graph.Exit].leaks() {
		rep.reportf(s.pos, "result of %s is not released on every path (reference leak)", s.name)
	}

	// Ownership propagated to callers: the enclosing function hands out
	// the reference, so its own callers inherit the release obligation.
	if returned && enclosing != nil {
		if sig, ok := enclosing.Type().(*types.Signature); ok &&
			sig.Results().Len() == 1 && releasablePtr(sig.Results().At(0).Type()) != nil {
			c.pass.ExportObjectFact(enclosing, &AcquiresFact{})
		}
	}
}

// reporter deduplicates diagnostics across fixpoint iterations.
type reporter struct {
	pass    *analysis.Pass
	emitted map[string]bool
}

func (r *reporter) reportf(pos token.Pos, format string, args ...any) {
	key := r.pass.Fset.Position(pos).String() + format
	if r.emitted[key] {
		return
	}
	r.emitted[key] = true
	r.pass.Reportf(pos, format, args...)
}

// transfer pushes the in-state through one block, returning one out-state
// per successor (branch conditions on the tracked variable refine them).
func (c *checker) transfer(blk *cfg.Block, in tupleSet, parents map[ast.Node]ast.Node, s *site, rep *reporter, returned *bool) []tupleSet {
	cur := in
	for i, n := range blk.Nodes {
		if i == len(blk.Nodes)-1 && len(blk.Succs) == 2 {
			if outT, outF, ok := c.refine(n, cur, s); ok {
				return []tupleSet{outT, outF}
			}
		}
		cur = c.apply(n, cur, parents, s, rep, returned)
	}
	outs := make([]tupleSet, len(blk.Succs))
	for i := range outs {
		outs[i] = cur
	}
	return outs
}

// refine handles branch conditions mentioning the tracked variable:
// nil comparisons, and the site's own tryRef call. Negations swap edges.
func (c *checker) refine(cond ast.Node, cur tupleSet, s *site) (outT, outF tupleSet, ok bool) {
	e, isExpr := cond.(ast.Expr)
	if !isExpr {
		return tupleSet{}, tupleSet{}, false
	}
	e = ast.Unparen(e)
	neg := false
	for {
		u, isNot := e.(*ast.UnaryExpr)
		if !isNot || u.Op != token.NOT {
			break
		}
		neg = !neg
		e = ast.Unparen(u.X)
	}

	switch e := e.(type) {
	case *ast.BinaryExpr:
		if e.Op != token.EQL && e.Op != token.NEQ {
			return tupleSet{}, tupleSet{}, false
		}
		var idExpr ast.Expr
		if isNilIdent(e.Y) {
			idExpr = e.X
		} else if isNilIdent(e.X) {
			idExpr = e.Y
		} else {
			return tupleSet{}, tupleSet{}, false
		}
		id, isIdent := ast.Unparen(idExpr).(*ast.Ident)
		if !isIdent || c.pass.TypesInfo.ObjectOf(id) != s.obj {
			return tupleSet{}, tupleSet{}, false
		}
		eqNil := e.Op == token.EQL
		if neg {
			eqNil = !eqNil
		}
		// true edge: v == nil holds (or v != nil when eqNil is false).
		var nilEdge, notEdge tupleSet
		for _, t := range cur.tuples() {
			if t.nilness != nilNot {
				tn := t
				tn.nilness = nilIs
				nilEdge.add(tn)
			}
			if t.nilness != nilIs {
				tn := t
				tn.nilness = nilNot
				notEdge.add(tn)
			}
		}
		if eqNil {
			return nilEdge, notEdge, true
		}
		return notEdge, nilEdge, true

	case *ast.CallExpr:
		if s.kind != tryRefSite || ast.Node(e) != s.bind {
			return tupleSet{}, tupleSet{}, false
		}
		// Successful tryRef: a reference is held from here; failure holds
		// nothing. Any prior state of the variable is superseded.
		heldSet := setOf(tuple{held: true, nilness: nilNot})
		noneSet := setOf(tuple{nilness: nilNot})
		if neg {
			return noneSet, heldSet, true
		}
		return heldSet, noneSet, true
	}
	return tupleSet{}, tupleSet{}, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// apply is the per-node transfer function.
func (c *checker) apply(n ast.Node, in tupleSet, parents map[ast.Node]ast.Node, s *site, rep *reporter, returned *bool) tupleSet {
	// The site's own binding supersedes every prior state; a still-held
	// un-deferred reference flowing back into it (loop re-acquire) leaks.
	if n == s.bind && s.kind == acquireSite {
		if in.leaks() {
			rep.reportf(s.pos, "result of %s is not released on every path (reference leak)", s.name)
		}
		return setOf(tuple{held: true, nilness: nilMaybe})
	}

	if rel, deferred := c.releaseOf(n, s); rel {
		var out tupleSet
		for _, t := range in.tuples() {
			if t.dead {
				out.add(t)
				continue
			}
			if t.released || t.defers > 0 {
				rep.reportf(n.Pos(), "%s is released more than once on some path", s.obj.Name())
			}
			if t.held && t.nilness == nilMaybe {
				rep.reportf(n.Pos(), "%s may be nil here: %s can fail; check before releasing", s.obj.Name(), s.name)
			}
			if deferred {
				if t.defers < 2 {
					t.defers++
				}
			} else {
				t.released = true
			}
			out.add(t)
		}
		return out
	}

	switch c.scanUse(n, parents, s) {
	case useEscape:
		return killAll(in)
	case useReturn:
		*returned = true
		return killAll(in)
	case useReassign:
		if in.leaks() {
			rep.reportf(s.pos, "result of %s is not released on every path (reference leak)", s.name)
		}
		return killAll(in)
	}
	return in
}

func killAll(in tupleSet) tupleSet {
	var out tupleSet
	for _, t := range in.tuples() {
		t.dead = true
		out.add(t)
	}
	return out
}

// releaseOf recognizes `v.Release()` as a statement or deferred.
func (c *checker) releaseOf(n ast.Node, s *site) (isRelease, deferred bool) {
	var callExpr ast.Expr
	switch n := n.(type) {
	case *ast.ExprStmt:
		callExpr = n.X
	case *ast.DeferStmt:
		callExpr = n.Call
		deferred = true
	default:
		return false, false
	}
	ce, ok := ast.Unparen(callExpr).(*ast.CallExpr)
	if !ok || len(ce.Args) != 0 {
		return false, false
	}
	sel, ok := ast.Unparen(ce.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return false, false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || c.pass.TypesInfo.ObjectOf(id) != s.obj {
		return false, false
	}
	return true, deferred
}

// useClass classifies how a node touches the tracked variable.
type useClass int

const (
	useNone     useClass = iota // not mentioned, or only read through safely
	useEscape                   // aliased, stored, captured, or passed on
	useReturn                   // returned: ownership moves to the caller
	useReassign                 // overwritten: prior reference is gone
)

// scanUse finds the strongest use of the tracked variable inside n. Safe
// uses — receiver/field access (v.X), comparisons — keep tracking; anything
// that lets the reference outlive or leave this frame kills it.
func (c *checker) scanUse(n ast.Node, parents map[ast.Node]ast.Node, s *site) useClass {
	strongest := useNone
	inspectShallowWithFuncLit(n, func(m ast.Node, inLit bool) bool {
		id, ok := m.(*ast.Ident)
		if !ok || c.pass.TypesInfo.ObjectOf(id) != s.obj {
			return true
		}
		var cl useClass
		if inLit {
			cl = useEscape // closure capture
		} else {
			cl = c.classify(id, parents)
		}
		if cl > strongest {
			strongest = cl
		}
		return true
	})
	return strongest
}

// inspectShallowWithFuncLit walks n, flagging nodes inside nested function
// literals (captures) rather than skipping them.
func inspectShallowWithFuncLit(n ast.Node, fn func(ast.Node, bool) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if lit, ok := m.(*ast.FuncLit); ok {
			ast.Inspect(lit, func(inner ast.Node) bool {
				if inner == nil || inner == ast.Node(lit) {
					return true
				}
				return fn(inner, true)
			})
			return false
		}
		return fn(m, false)
	})
}

// classify decides what one identifier use does with the reference.
func (c *checker) classify(id *ast.Ident, parents map[ast.Node]ast.Node) useClass {
	p := parents[id]
	for {
		pe, ok := p.(*ast.ParenExpr)
		if !ok {
			break
		}
		p = parents[pe]
	}
	switch pp := p.(type) {
	case *ast.SelectorExpr:
		// v.Field, v.Method(...): reading through the reference is safe;
		// the release obligation stays here.
		return useNone
	case *ast.BinaryExpr:
		// Comparisons (v == nil, v == other) read the pointer only.
		return useNone
	case *ast.AssignStmt:
		for _, l := range pp.Lhs {
			if ast.Unparen(l) == ast.Expr(id) {
				return useReassign
			}
		}
		return useEscape // v on the right-hand side: aliased or stored
	case *ast.ReturnStmt:
		return useReturn
	case *ast.IfStmt, *ast.ForStmt, *ast.ExprStmt, *ast.BlockStmt:
		return useNone
	default:
		return useEscape
	}
}
