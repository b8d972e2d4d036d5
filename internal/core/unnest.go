package core

import (
	"pathfinder/internal/algebra"
	"pathfinder/internal/xqcore"
)

// tryUnnest implements the compiler's join recognition ([3], §1 "A join
// recognition logic in our compiler"). It fires on the Core pattern
//
//	for $v in E return if (A cmp B) then T else ()
//
// (the normalization of `for $v in E where A cmp B return T`) when
//
//   - E is loop-invariant (no free variables — e.g. a path rooted in
//     fn:doc), and
//   - one comparison side depends on $v only, the other not on $v at all.
//
// Instead of lifting E into the enclosing loop (materializing |loop|·|E|
// rows before filtering), the $v-dependent side is evaluated once in E's
// own iteration space, the other side in the enclosing scope, and the two
// are joined on the comparison: an equi-join (hash) when the comparison is
// `=` over hash-compatible types, a theta-join otherwise — the Q11/Q12
// case the paper calls quadratic in its result. The theta-join is emitted
// as σ over ⊛cmp over ×; internal/physical recognizes that shape for the
// four inequalities and the executor runs it as one sort-based inequality
// join, so the product is a logical notion only (DESIGN.md §15). The
// surviving (inner, outer) pairs become the restricted iteration space
// for T.
func (c *Compiler) tryUnnest(f *xqcore.For, s *scope) (*algebra.Op, bool) {
	if f.PosVar != "" || len(f.Order) > 0 {
		return nil, false
	}
	// Peel let bindings between the for and its where-condition; they can
	// commute past the condition when it does not reference them, turning
	// `for $v in E return let $w := X return if (C) then T else ()` into
	// the canonical unnesting shape with `let $w := X return T` as body.
	var lets []*xqcore.Let
	body := f.Body
	for {
		l, isLet := body.(*xqcore.Let)
		if !isLet {
			break
		}
		lets = append(lets, l)
		body = l.Body
	}
	iff, ok := body.(*xqcore.If)
	if !ok {
		return nil, false
	}
	if _, ok := iff.Else.(*xqcore.Empty); !ok {
		return nil, false
	}
	condFree := xqcore.FreeVars(iff.Cond)
	for _, l := range lets {
		if condFree[l.Var] {
			return nil, false
		}
	}
	if len(lets) > 0 {
		then := iff.Then
		for i := len(lets) - 1; i >= 0; i-- {
			then = xqcore.NewLet(lets[i].Var, lets[i].Bound, then)
		}
		iff = &xqcore.If{Cond: iff.Cond, Then: then, Else: iff.Else}
	}
	if len(xqcore.FreeVars(f.In)) != 0 {
		return nil, false
	}
	if xqcore.UsesPositionOrLast(f.In) || xqcore.UsesPositionOrLast(iff.Cond) ||
		xqcore.UsesPositionOrLast(iff.Then) {
		return nil, false
	}

	// The condition may be a conjunction; pick one separable comparison
	// as the join predicate and push the remaining conjuncts into the
	// then-branch as residual filters (evaluated in the restricted
	// post-join scope).
	conjuncts := flattenAnd(iff.Cond)
	var op string
	var vSide, oSide xqcore.Expr
	joinIdx := -1
	for i, cj := range conjuncts {
		cop, l, r, okCmp := comparisonParts(cj)
		if !okCmp {
			continue
		}
		lf, rf := xqcore.FreeVars(l), xqcore.FreeVars(r)
		switch {
		case onlyVar(lf, f.Var) && !rf[f.Var]:
			vSide, oSide, op, joinIdx = l, r, cop, i
		case onlyVar(rf, f.Var) && !lf[f.Var]:
			vSide, oSide, op, joinIdx = r, l, swapCmp(cop), i
		default:
			continue
		}
		// Prefer an equi-join conjunct over a theta one.
		if op == "=" {
			break
		}
	}
	if joinIdx < 0 {
		return nil, false
	}
	if usesImplicitContext(oSide) {
		return nil, false
	}
	// Residual conjuncts wrap the then-branch in nested conditionals.
	then := iff.Then
	for i := len(conjuncts) - 1; i >= 0; i-- {
		if i == joinIdx {
			continue
		}
		then = &xqcore.If{Cond: conjuncts[i], Then: then, Else: xqcore.NewEmpty()}
	}
	iff = &xqcore.If{Cond: iff.Cond, Then: then, Else: iff.Else}

	// Inner space: E compiled once in the top-level scope.
	sTop := &scope{loop: topLoop(), env: map[string]binding{}}
	q1 := c.comp(f.In, sTop)
	qv := c.must(algebra.RowNum(q1, "inner",
		[]algebra.OrderSpec{{Col: "iter"}, {Col: "pos"}}, ""))
	innerLoop := c.must(algebra.Project(qv, "iter:inner"))
	sInner := &scope{loop: innerLoop, env: map[string]binding{}}
	sInner.env[f.Var] = binding{plan: c.singletonFrom(qv, "inner", "item"), loop: innerLoop}

	qA := c.comp(vSide, sInner) // |E|-space
	qB := c.comp(oSide, s)      // enclosing-loop space

	a := c.must(algebra.Project(qA, "ai:iter", "aitem:item"))
	b := c.must(algebra.Project(qB, "bi:iter", "bitem:item"))
	var pairs *algebra.Op
	if op == "=" && hashCompatible(vSide.Ty(), oSide.Ty()) {
		pairs = c.must(algebra.Join(a, b, []string{"aitem"}, []string{"bitem"}))
		c.stats.EquiJoins++
	} else {
		crossed := c.must(algebra.Cross(a, b))
		cmp := c.must(algebra.Fun(crossed, "cres", genFun[op], "aitem", "bitem"))
		pairs = c.must(algebra.Select(cmp, "cres"))
		c.stats.ThetaJoins++
	}
	// The comparison is existential per (inner, outer) pair.
	dpairs := algebra.Distinct(c.must(algebra.Project(pairs, "ai", "bi")))

	// Restricted s2 space: one iteration per surviving pair, numbered in
	// (outer, binding) order.
	rn := c.must(algebra.RowNum(dpairs, "s2",
		[]algebra.OrderSpec{{Col: "bi"}, {Col: "ai"}}, ""))
	loop2 := c.must(algebra.Project(rn, "iter:s2"))

	s2 := &scope{loop: loop2, env: map[string]binding{}}
	// $v in s2: fetch the binding item through the inner space.
	vv := c.must(algebra.Project(qv, "vin:inner", "vitem:item"))
	vj := c.must(algebra.Join(rn, vv, []string{"ai"}, []string{"vin"}))
	s2.env[f.Var] = binding{plan: c.singletonFrom(vj, "s2", "vitem"), loop: loop2}

	// Outer variables lift through the pair relation on the outer side.
	for w := range xqcore.FreeVars(iff.Then) {
		if w == f.Var {
			continue
		}
		if _, ok := s.env[w]; !ok {
			continue
		}
		renamed := c.must(algebra.Project(c.lookup(s, w),
			"witer:iter", "wpos:pos", "witem:item"))
		j := c.must(algebra.Join(renamed, rn, []string{"witer"}, []string{"bi"}))
		lifted := c.must(algebra.Project(j, "iter:s2", "pos:wpos", "item:witem"))
		s2.env[w] = binding{plan: lifted, loop: loop2}
	}

	qT := c.comp(iff.Then, s2)
	backMap := c.must(algebra.Project(rn, "s2b:s2", "aio:ai", "bio:bi"))
	back := c.must(algebra.Join(qT, backMap, []string{"iter"}, []string{"s2b"}))
	rn2 := c.must(algebra.RowNum(back, "pos1",
		[]algebra.OrderSpec{{Col: "aio"}, {Col: "pos"}}, "bio"))
	return c.must(algebra.Project(rn2, "iter:bio", "pos:pos1", "item")), true
}

// flattenAnd splits a right/left-nested `and` chain into its conjuncts.
func flattenAnd(e xqcore.Expr) []xqcore.Expr {
	if b, ok := e.(*xqcore.BinOp); ok && b.Op == "and" {
		return append(flattenAnd(b.L), flattenAnd(b.R)...)
	}
	return []xqcore.Expr{e}
}

// comparisonParts extracts the operator and operands of a general or value
// comparison condition, mapping value comparisons onto their general
// counterparts (both compile to the same row functions).
func comparisonParts(cond xqcore.Expr) (op string, l, r xqcore.Expr, ok bool) {
	switch x := cond.(type) {
	case *xqcore.GenCmp:
		return x.Op, x.L, x.R, true
	case *xqcore.BinOp:
		m := map[string]string{"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
		if g, found := m[x.Op]; found {
			return g, x.L, x.R, true
		}
	}
	return "", nil, nil, false
}

func onlyVar(free map[string]bool, v string) bool {
	if !free[v] {
		return false
	}
	for w := range free {
		if w != v {
			return false
		}
	}
	return true
}

func swapCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and != are symmetric
}

// hashCompatible reports whether hash-key equality coincides with the
// XQuery general-= semantics for the two static types: both string-ish
// (untyped/untyped compares as strings) or both numeric. Mixed or unknown
// classes fall back to the theta path, which applies full comparison
// semantics row by row.
func hashCompatible(a, b xqcore.Type) bool {
	strish := func(c xqcore.ItemClass) bool {
		return c == xqcore.IStr || c == xqcore.IUntyped
	}
	numish := func(c xqcore.ItemClass) bool {
		return c == xqcore.IInt || c == xqcore.IDbl || c == xqcore.INum
	}
	return strish(a.Item) && strish(b.Item) || numish(a.Item) && numish(b.Item)
}

// usesImplicitContext reports whether e references the implicit for
// context (position()/last()), which the unnested form cannot supply.
func usesImplicitContext(e xqcore.Expr) bool {
	return xqcore.UsesPositionOrLast(e)
}
