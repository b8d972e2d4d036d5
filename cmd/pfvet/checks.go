package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The five checks. Each guards an invariant the Go type system cannot
// express but the engine's correctness depends on:
//
//   - batmut: column vectors (the named slice types of internal/bat) are
//     shared between views, plan-cache hits, and scheduler workers; an
//     element write outside internal/bat mutates data some other
//     consumer is reading. Writes into locally built buffers are fine.
//   - determinism: kernel results must be reproducible byte for byte —
//     the differential harness and the plan cache both depend on it —
//     so kernel packages may not read the clock or a random source.
//   - ctxpoll: engine row loops can run for seconds on large inputs;
//     a nested loop in a context-taking function that never polls the
//     context turns cancellation and deadlines into dead letters.
//   - mutexval: a method with a value receiver on a type holding a sync
//     primitive locks a copy — the classic silent no-op lock.
//   - maporder: optimizer passes must not depend on map iteration order
//     — Go randomizes it per run, so a pass that visits operators (or
//     picks rewrites) by ranging over a map emits nondeterministic
//     plans. Passes walk the DAG in Topo order or sort map keys first.
//
// A site that violates a check deliberately carries a
// `//pfvet:allow <check>` directive on the same or the preceding line,
// stating the exception in the code where reviewers see it.

type finding struct {
	pos   token.Position
	check string
	msg   string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.pos.Filename, f.pos.Line, f.check, f.msg)
}

// checkSet is the per-package configuration of which checks run.
type checkSet struct {
	batmut      bool
	determinism bool
	ctxpoll     bool
	mutexval    bool
	maporder    bool
}

// checksFor scopes the checks by import path: batmut and mutexval are
// repo-wide, determinism is for the kernel packages whose output must be
// reproducible, ctxpoll for the engine's row loops, maporder for the
// optimizer's rewrite passes.
func checksFor(path string) checkSet {
	kernel := map[string]bool{
		"pathfinder/internal/bat":      true,
		"pathfinder/internal/engine":   true,
		"pathfinder/internal/physical": true,
		"pathfinder/internal/opt":      true,
	}
	return checkSet{
		batmut:      path != "pathfinder/internal/bat",
		determinism: kernel[path],
		ctxpoll:     path == "pathfinder/internal/engine",
		mutexval:    true,
		maporder:    path == "pathfinder/internal/opt",
	}
}

// runChecks analyzes one package and returns its findings, with
// allow-directive suppression already applied.
func runChecks(fset *token.FileSet, pi *pkgInfo, cs checkSet) []finding {
	var fs []finding
	if cs.batmut {
		fs = append(fs, checkBatMut(fset, pi)...)
	}
	if cs.determinism {
		fs = append(fs, checkDeterminism(fset, pi)...)
	}
	if cs.ctxpoll {
		fs = append(fs, checkCtxPoll(fset, pi)...)
	}
	if cs.mutexval {
		fs = append(fs, checkMutexVal(fset, pi)...)
	}
	if cs.maporder {
		fs = append(fs, checkMapOrder(fset, pi)...)
	}
	fs = suppressAllowed(fset, pi, fs)
	sort.Slice(fs, func(a, b int) bool {
		if fs[a].pos.Filename != fs[b].pos.Filename {
			return fs[a].pos.Filename < fs[b].pos.Filename
		}
		return fs[a].pos.Line < fs[b].pos.Line
	})
	return fs
}

// Allow directives ------------------------------------------------------------

// allowedLines maps file → line → the set of check names a
// `//pfvet:allow` comment on that line acknowledges. A directive
// suppresses findings on its own line and on the following line (the
// usual shape: directive comment above the offending statement).
func suppressAllowed(fset *token.FileSet, pi *pkgInfo, fs []finding) []finding {
	allowed := map[string]map[int]map[string]bool{}
	for _, f := range pi.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//pfvet:allow")
				if !ok {
					continue
				}
				rest, _, _ = strings.Cut(rest, "--") // everything after -- is rationale
				pos := fset.Position(c.Pos())
				m := allowed[pos.Filename]
				if m == nil {
					m = map[int]map[string]bool{}
					allowed[pos.Filename] = m
				}
				for _, name := range strings.FieldsFunc(rest, func(r rune) bool {
					return r == ' ' || r == ',' || r == '\t'
				}) {
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if m[line] == nil {
							m[line] = map[string]bool{}
						}
						m[line][name] = true
					}
				}
			}
		}
	}
	out := fs[:0]
	for _, f := range fs {
		if allowed[f.pos.Filename][f.pos.Line][f.check] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// batmut ----------------------------------------------------------------------

// isBatVec reports whether t is (a pointer to) a named slice type
// declared in internal/bat — the shared column-vector types.
func isBatVec(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "pathfinder/internal/bat" {
		return false
	}
	_, isSlice := named.Underlying().(*types.Slice)
	return isSlice
}

// freshLocals collects the objects in fn that are provably freshly
// allocated buffers: locals whose value comes from make, append, a
// composite literal, or a conversion of one. Writing into those is
// building a new vector, not mutating a shared one.
func freshLocals(pi *pkgInfo, fn ast.Node) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	var isFreshExpr func(e ast.Expr) bool
	isFreshExpr = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.CompositeLit:
			return true
		case *ast.ParenExpr:
			return isFreshExpr(e.X)
		case *ast.CallExpr:
			switch fun := e.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "make" || fun.Name == "append" {
					return true
				}
			case *ast.SelectorExpr:
				// bat.Ramp(...)-style constructors return fresh vectors;
				// treating every call as fresh would defeat the check, so
				// only conversions and builtins count.
			}
			// Conversion to a bat vector type of a fresh expression.
			if len(e.Args) == 1 && isFreshExpr(e.Args[0]) {
				if tv, ok := pi.info.Types[e.Fun]; ok && tv.IsType() {
					return true
				}
			}
		}
		return false
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || !isFreshExpr(as.Rhs[i]) {
				continue
			}
			if obj := pi.info.Defs[id]; obj != nil {
				fresh[obj] = true
			} else if obj := pi.info.Uses[id]; obj != nil {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

func checkBatMut(fset *token.FileSet, pi *pkgInfo) []finding {
	var fs []finding
	for _, file := range pi.files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fresh := freshLocals(pi, fn)
			flagWrite := func(target ast.Expr) {
				idx, ok := target.(*ast.IndexExpr)
				if !ok {
					return
				}
				tv, ok := pi.info.Types[idx.X]
				if !ok || !isBatVec(tv.Type) {
					return
				}
				if id, ok := idx.X.(*ast.Ident); ok {
					if obj := pi.info.Uses[id]; obj != nil && fresh[obj] {
						return
					}
				}
				fs = append(fs, finding{
					pos:   fset.Position(idx.Pos()),
					check: "batmut",
					msg: fmt.Sprintf("element write into shared column vector (%s) outside internal/bat",
						types.TypeString(tv.Type, nil)),
				})
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						flagWrite(lhs)
					}
				case *ast.IncDecStmt:
					flagWrite(n.X)
				}
				return true
			})
		}
	}
	return fs
}

// determinism -----------------------------------------------------------------

func checkDeterminism(fset *token.FileSet, pi *pkgInfo) []finding {
	var fs []finding
	for _, file := range pi.files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				fs = append(fs, finding{
					pos:   fset.Position(imp.Pos()),
					check: "determinism",
					msg:   fmt.Sprintf("kernel package imports %s; kernel output must be reproducible", path),
				})
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pi.info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if obj.Name() == "Now" || obj.Name() == "Since" {
				fs = append(fs, finding{
					pos:   fset.Position(sel.Pos()),
					check: "determinism",
					msg:   fmt.Sprintf("time.%s in kernel code; results must not depend on the clock", obj.Name()),
				})
			}
			return true
		})
	}
	return fs
}

// ctxpoll ---------------------------------------------------------------------

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func checkCtxPoll(fset *token.FileSet, pi *pkgInfo) []finding {
	var fs []finding
	for _, file := range pi.files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// The context parameters of this function, as objects.
			ctxObjs := map[types.Object]bool{}
			if fn.Type.Params != nil {
				for _, field := range fn.Type.Params.List {
					for _, name := range field.Names {
						if obj := pi.info.Defs[name]; obj != nil && isContextType(obj.Type()) {
							ctxObjs[obj] = true
						}
					}
				}
			}
			if len(ctxObjs) == 0 {
				continue
			}
			nested := false
			polled := false
			var walkLoops func(n ast.Node, depth int)
			walkLoops = func(n ast.Node, depth int) {
				ast.Inspect(n, func(m ast.Node) bool {
					var body *ast.BlockStmt
					switch m := m.(type) {
					case *ast.ForStmt:
						body = m.Body
					case *ast.RangeStmt:
						body = m.Body
					case *ast.FuncLit:
						return false // closures are their own cancellation story
					default:
						return true
					}
					if depth+1 >= 2 {
						nested = true
					}
					ast.Inspect(body, func(x ast.Node) bool {
						if id, ok := x.(*ast.Ident); ok && ctxObjs[pi.info.Uses[id]] {
							polled = true
						}
						return true
					})
					walkLoops(body, depth+1)
					return false
				})
			}
			walkLoops(fn.Body, 0)
			if nested && !polled {
				fs = append(fs, finding{
					pos:   fset.Position(fn.Pos()),
					check: "ctxpoll",
					msg: fmt.Sprintf("%s takes a context and runs nested row loops but never polls the context inside them",
						fn.Name.Name),
				})
			}
		}
	}
	return fs
}

// mutexval --------------------------------------------------------------------

// holdsSyncState reports whether t transitively contains a sync or
// sync/atomic type by value.
func holdsSyncState(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync", "sync/atomic":
				return true
			}
		}
		return holdsSyncState(t.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if holdsSyncState(t.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return holdsSyncState(t.Elem(), seen)
	}
	return false
}

func checkMutexVal(fset *token.FileSet, pi *pkgInfo) []finding {
	var fs []finding
	scope := pi.pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || !holdsSyncState(named, map[types.Type]bool{}) {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			recv := m.Type().(*types.Signature).Recv()
			if recv == nil {
				continue
			}
			if _, isPtr := recv.Type().(*types.Pointer); isPtr {
				continue
			}
			fs = append(fs, finding{
				pos:   fset.Position(m.Pos()),
				check: "mutexval",
				msg: fmt.Sprintf("method %s.%s has a value receiver but the type holds sync state (locks a copy)",
					name, m.Name()),
			})
		}
	}
	return fs
}

// maporder --------------------------------------------------------------------

// checkMapOrder flags `for ... range m` statements where m is map-typed.
// Go deliberately randomizes map iteration order, so an optimizer pass
// that ranges over a map to visit operators, pick rewrite sites, or emit
// trace output produces different plans on different runs — which the
// plan goldens and the differential tiers would only catch as flakes.
// Deliberately order-free iterations (e.g. collecting keys to sort)
// carry a //pfvet:allow maporder directive.
func checkMapOrder(fset *token.FileSet, pi *pkgInfo) []finding {
	var fs []finding
	for _, file := range pi.files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pi.info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				fs = append(fs, finding{
					pos:   fset.Position(rng.Pos()),
					check: "maporder",
					msg:   "rewrite pass ranges over a map (iteration order is nondeterministic); visit operators in Topo order or sort the keys",
				})
			}
			return true
		})
	}
	return fs
}
