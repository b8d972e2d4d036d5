package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// golifecycle pins the repo's goroutine discipline — every spawned
// goroutine must be joinable or cancelable, and shared WaitGroups must
// not reuse-race. Two rules:
//
//   - every `go` statement's body (or resolvable target, transitively
//     through the call graph) must show join or cancellation evidence: a
//     channel operation, a select, a WaitGroup Done/Wait, or the use of
//     a context value. A goroutine with none of those can neither be
//     waited for nor told to stop — it leaks past Drain and past test
//     teardown.
//   - an Add on a WaitGroup with a shared identity (a struct field or
//     package variable) whose Wait happens elsewhere must hold a mutex
//     at the Add: the WaitGroup reuse rule says Add must not race a Wait
//     that has observed zero, and an atomic-flag check alone cannot
//     order the two — the PR 6 drain race (begin() checked the draining
//     flag, then Add raced BeginDrain/Wait; the fix took drainMu around
//     both, reviewed in PR 6 and encoded here).
//
// Local WaitGroups (fork/join pools such as the clients of a load
// test) are exempt from the second rule: their Add and Wait sit in one
// stack frame and cannot interleave with a reuse.
func (s *suite) golifecycle(cfg suiteConfig) []finding {
	var fs []finding

	type addSite struct {
		id      string
		pos     token.Pos
		mutexed bool // some shared mutex is held at the Add
	}
	var adds []addSite
	waits := map[string]bool{} // WaitGroup ids with a Wait anywhere in scope

	for _, fi := range s.sortedFuncs(cfg.lifePkgs) {
		// Rule 1: every spawned goroutine joins or polls cancellation.
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !s.goroutineJoins(fi.pi, g) {
				fs = append(fs, finding{
					pos:   s.fset.Position(g.Pos()),
					check: "golifecycle",
					msg:   "goroutine has no join or cancellation path (no channel op, select, WaitGroup Done, or context use); it cannot be drained or stopped",
				})
			}
			return true
		})

		// Rule 2 data: Add sites with their lock context, Wait sites.
		// The lock walker skips goroutine bodies, so collect Wait sites
		// (and Adds inside goroutines, which run with no caller locks)
		// with a plain scan, and overlay the walker's held-set facts for
		// the synchronous Adds.
		heldAt := map[token.Pos]int{}
		s.walkLocks(fi, func(ev lockEvent) {
			if ev.kind == evCall {
				heldAt[ev.pos] = len(ev.held)
			}
		})
		collectWG(fi.pi, fi.decl.Body, func(id, method string, pos token.Pos) {
			if id == "" {
				return // local WaitGroup: fork/join in one frame
			}
			switch method {
			case "Add":
				adds = append(adds, addSite{id: id, pos: pos, mutexed: heldAt[pos] > 0})
			case "Wait":
				waits[id] = true
			}
		})
	}

	sort.Slice(adds, func(i, j int) bool { return adds[i].pos < adds[j].pos })
	for _, a := range adds {
		if waits[a.id] && !a.mutexed {
			fs = append(fs, finding{
				pos:   s.fset.Position(a.pos),
				check: "golifecycle",
				msg: fmt.Sprintf("%s.Add may race a Wait reuse (Add sites must hold the mutex that orders the drain flag; an atomic flag check alone cannot order Add against Wait-from-zero)",
					displayID(a.id)),
			})
		}
	}
	return fs
}

// goroutineJoins reports whether the spawned goroutine shows join or
// cancellation evidence, directly or through module-internal callees.
func (s *suite) goroutineJoins(pi *pkgInfo, g *ast.GoStmt) bool {
	var body ast.Node
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		body = lit.Body
	} else if f := calleeOf(pi, g.Call); f != nil {
		if fi, ok := s.funcs[f]; ok {
			return s.joins[fi.obj]
		}
		return true // unresolvable external target: stay quiet
	} else {
		return true
	}
	if joinEvidence(pi, body) {
		return true
	}
	// Transitive: the body may delegate (mil's accept loop spawns
	// ServeConn, whose channel discipline lives in the callee).
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := calleeOf(pi, call); f != nil {
			if fi, ok := s.funcs[f]; ok && s.joins[fi.obj] {
				joined = true
			}
		}
		return true
	})
	return joined
}

// collectWG visits every WaitGroup Add/Wait/Done call in n with the
// receiver's shared identity ("" for locals).
func collectWG(pi *pkgInfo, n ast.Node, f func(id, method string, pos token.Pos)) {
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pi.info.Uses[sel.Sel].(*types.Func)
		if !ok || !isSyncMethod(fn, "WaitGroup", "Add", "Wait", "Done") {
			return true
		}
		f(lockID(pi, sel.X), fn.Name(), call.Pos())
		return true
	})
}
