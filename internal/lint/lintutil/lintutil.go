// Package lintutil holds the small helpers shared by the thriftyvet
// analyzers: scope gating (skip GOROOT and test files), the walk over
// function bodies, and call-site resolution on top of go/types.
package lintutil

import (
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
	"strings"

	"thriftylp/internal/lint/analysis"
)

// InGOROOT reports whether the file's source lives under GOROOT. When the
// suite runs under `go vet -vettool`, the go command also invokes the tool
// on standard-library dependency packages; the module-invariant analyzers
// must not fire there.
func InGOROOT(fset *token.FileSet, f *ast.File) bool {
	name := fset.Position(f.Package).Filename
	root := build.Default.GOROOT
	return root != "" && strings.HasPrefix(name, root+"/")
}

// IsTestFile reports whether the node comes from a _test.go file. The
// annotation disciplines apply to production code; test code is exercised
// under the race detector instead.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// ForEachBody calls visit on every function body in the package's
// non-GOROOT, non-test files, in source order: each declared function's
// body with its *types.Func, then each function literal inside it with a
// nil one (a literal gets its own control-flow graph; the enclosing body
// sees it as an opaque value).
func ForEachBody(pass *analysis.Pass, visit func(fn *types.Func, body *ast.BlockStmt)) {
	for _, f := range pass.Files {
		if InGOROOT(pass.Fset, f) || IsTestFile(pass.Fset, f.Package) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			visit(fn, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					visit(nil, fl.Body)
				}
				return true
			})
		}
	}
}

// PkgPathMatches reports whether path is importPath itself or an
// analysistest-style fixture stand-in for it: equal to the full path, equal
// to its last element, or ending in "/"+lastElement. It also strips the
// " [pkg.test]" suffix the go command appends to test-variant package paths.
func PkgPathMatches(path, importPath string) bool {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	if path == importPath {
		return true
	}
	last := importPath
	if i := strings.LastIndexByte(importPath, '/'); i >= 0 {
		last = importPath[i+1:]
	}
	return path == last || strings.HasSuffix(path, "/"+last)
}

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions, and calls
// of function-typed values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call: pkg.F.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.IndexExpr:
		// Explicitly instantiated generic call: F[T](...).
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				return f
			}
		}
	case *ast.IndexListExpr:
		// Two or more explicit type arguments: F[T1, T2](...).
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				return f
			}
		}
	}
	return nil
}

// MayReturn returns the CFG builder's call-termination oracle: a call
// to os.Exit, runtime.Goexit or log.Fatal* never returns to its caller.
func MayReturn(info *types.Info) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		fn := CalleeFunc(info, call)
		if fn == nil {
			return true
		}
		switch FuncPkgPath(fn) + "." + fn.Name() {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return false
		}
		return true
	}
}

// FuncPkgPath returns the import path of the package a function belongs to,
// or "" for builtins.
func FuncPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}
