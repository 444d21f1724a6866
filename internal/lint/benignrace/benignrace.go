// Package benignrace implements the thriftyvet analyzer that keeps the
// "intentional race" / "bug" boundary machine-checked.
//
// The Thrifty paper deliberately shares non-atomic state between threads
// (the push-phase dedup discipline, §IV-E); this repository reproduces that
// with two rules the analyzer enforces:
//
//  1. Every plain (non-atomic) write to captured shared state inside a
//     parallel worker body must be annotated //thrifty:benign-race <reason>.
//     A worker body is a function literal handed to the internal/parallel
//     runtime (Pool.Run, Pool.MustRun, Stealer.Run, For, Fill, ...), where
//     concurrent execution is the contract. The annotation goes on the
//     statement's line, the line above it, or the enclosing function's doc
//     comment, and the reason is mandatory: the next reader must learn why
//     the write is safe (exclusive index partitioning, monotonic idempotent
//     update, ...). Writes to worker-local state (declared inside the
//     worker, or rooted at a worker parameter such as a partition range) are
//     not flagged.
//
//  2. Conversely, everything that *is* atomic must route through
//     internal/atomicx: importing sync/atomic anywhere else in the module
//     (tests excepted — they run under -race instead) is an error. With
//     both rules in force, "goes through atomicx" and "annotated
//     benign-race" partition every shared-memory access in the module.
package benignrace

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"thriftylp/internal/lint/analysis"
	"thriftylp/internal/lint/directive"
	"thriftylp/internal/lint/lintutil"
)

// Analyzer is the benignrace analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "benignrace",
	Doc:  "require //thrifty:benign-race on plain shared writes in parallel workers; route atomics through internal/atomicx",
	Run:  run,
}

// atomicxPath identifies the one package allowed to import sync/atomic.
const atomicxPath = "thriftylp/internal/atomicx"

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if lintutil.InGOROOT(pass.Fset, f) {
			continue
		}
		if !lintutil.IsTestFile(pass.Fset, f.Package) {
			checkAtomicImport(pass, f)
			checkWorkerWrites(pass, f)
		}
	}
	return nil, nil
}

// checkAtomicImport flags sync/atomic imports outside internal/atomicx.
func checkAtomicImport(pass *analysis.Pass, f *ast.File) {
	if lintutil.PkgPathMatches(pass.Pkg.Path(), atomicxPath) {
		return
	}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == "sync/atomic" {
			pass.Reportf(imp.Pos(), "import of sync/atomic outside internal/atomicx: route atomics through the atomicx wrappers")
		}
	}
}

// checkWorkerWrites finds worker function literals and audits their plain
// writes to captured state.
func checkWorkerWrites(pass *analysis.Pass, f *ast.File) {
	dirs := directive.FileLines(pass.Fset, f)

	// funcLitOf maps a local variable object to the function literal it was
	// bound to by a simple `name := func(...) {...}` assignment, so worker
	// bodies passed by name (body := func(tid int){...}; pool.MustRun(body))
	// are recognized too.
	funcLitOf := map[types.Object]*ast.FuncLit{}
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			fl, ok := as.Rhs[i].(*ast.FuncLit)
			if !ok {
				continue
			}
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				funcLitOf[obj] = fl
			}
		}
		return true
	})

	// Collect worker bodies: function-typed arguments of calls into the
	// parallel runtime.
	workers := map[*ast.FuncLit]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lintutil.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || !isParallelRuntime(fn) {
			return true
		}
		for _, arg := range call.Args {
			switch a := ast.Unparen(arg).(type) {
			case *ast.FuncLit:
				workers[a] = true
			case *ast.Ident:
				if obj := pass.TypesInfo.Uses[a]; obj != nil {
					if fl, ok := funcLitOf[obj]; ok {
						workers[fl] = true
					}
				}
			}
		}
		return true
	})

	for fl := range workers {
		w := &workerChecker{pass: pass, dirs: dirs, worker: fl, all: workers}
		w.check(fl)
	}
}

// isParallelRuntime reports whether fn belongs to the internal/parallel
// package (or an analysistest fixture stand-in named parallel). Any function
// there that accepts a func argument runs it on pool workers.
func isParallelRuntime(fn *types.Func) bool {
	path := lintutil.FuncPkgPath(fn)
	return path == "thriftylp/internal/parallel" || path == "parallel" ||
		strings.HasSuffix(path, "/parallel")
}

type workerChecker struct {
	pass   *analysis.Pass
	dirs   []directive.Line
	worker *ast.FuncLit
	all    map[*ast.FuncLit]bool
}

func (w *workerChecker) check(fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A nested literal that is itself a registered worker is audited
			// by its own checker; descending here would double-report.
			if w.all[n] {
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				w.checkWrite(n.Pos(), lhs)
			}
		case *ast.IncDecStmt:
			w.checkWrite(n.Pos(), n.X)
		}
		return true
	})
}

// checkWrite flags a plain write whose destination is captured shared
// memory: an element of a slice/array, a dereferenced pointer, or a field
// reached from a variable declared outside the worker literal.
func (w *workerChecker) checkWrite(pos token.Pos, lhs ast.Expr) {
	switch ast.Unparen(lhs).(type) {
	case *ast.IndexExpr, *ast.StarExpr, *ast.SelectorExpr:
	default:
		// Writes to plain identifiers: a captured scalar would be a real
		// (non-benign) race for results, but every occurrence in this
		// codebase is a worker-local accumulator; flagging `localV++` style
		// writes would drown the signal, so only writes through memory
		// shared by construction (slices, pointers, fields) are audited.
		return
	}
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	v, ok := w.pass.TypesInfo.ObjectOf(root).(*types.Var)
	if !ok {
		return
	}
	if w.declaredInside(v) {
		return
	}
	line := w.pass.Fset.Position(pos).Line
	if directive.Covers(w.dirs, directive.BenignRace, line, true) {
		return
	}
	if w.funcDocCovered() {
		return
	}
	w.pass.Reportf(pos, "plain write to captured %s inside a parallel worker: annotate //thrifty:benign-race <reason> or use internal/atomicx", root.Name)
}

// declaredInside reports whether v's declaration lies lexically within the
// worker literal (locals and the worker's own parameters are worker-owned).
func (w *workerChecker) declaredInside(v *types.Var) bool {
	return v.Pos() >= w.worker.Pos() && v.Pos() <= w.worker.End()
}

// funcDocCovered reports whether the function declaration enclosing the
// worker literal carries a blanket //thrifty:benign-race annotation with a
// reason.
func (w *workerChecker) funcDocCovered() bool {
	for _, f := range w.pass.Files {
		if w.worker.Pos() < f.Pos() || w.worker.Pos() > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if w.worker.Pos() >= fd.Pos() && w.worker.Pos() <= fd.End() {
				arg, ok := directive.FromDoc(fd.Doc, directive.BenignRace)
				return ok && arg != ""
			}
		}
	}
	return false
}

// rootIdent walks an lvalue expression to the identifier at its base:
// s.lists[tid] -> s, (*p).f -> p, labels[v] -> labels.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
