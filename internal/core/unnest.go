package core

import (
	"pathfinder/internal/algebra"
	"pathfinder/internal/xqcore"
)

// Join recognition ([3], §1 "A join recognition logic in our compiler")
// fires on the Core pattern
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
// join, so the product is a logical notion only (DESIGN.md §15).
//
// What is built over the (inner, outer) pairs depends on the consumer:
// tryUnnest makes them the restricted iteration space for T, unnestCount
// only counts them.

// unnesting is what matchUnnest found in a for: the join predicate
// vSide op oSide, and T with the peeled lets and the residual conjuncts
// wrapped back around it.
type unnesting struct {
	op           string
	vSide, oSide xqcore.Expr // depends on $v only / not on $v at all
	then         xqcore.Expr
}

// matchUnnest decides whether f has the unnesting shape.
func matchUnnest(f *xqcore.For) (u unnesting, ok bool) {
	if f.PosVar != "" || len(f.Order) > 0 {
		return u, false
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
	iff, isIf := body.(*xqcore.If)
	if !isIf {
		return u, false
	}
	if _, isEmpty := iff.Else.(*xqcore.Empty); !isEmpty {
		return u, false
	}
	condFree := xqcore.FreeVars(iff.Cond)
	for _, l := range lets {
		if condFree[l.Var] {
			return u, false
		}
	}
	u.then = iff.Then
	for i := len(lets) - 1; i >= 0; i-- {
		u.then = xqcore.NewLet(lets[i].Var, lets[i].Bound, u.then)
	}
	if len(xqcore.FreeVars(f.In)) != 0 {
		return u, false
	}
	if xqcore.UsesPositionOrLast(f.In) || xqcore.UsesPositionOrLast(iff.Cond) ||
		xqcore.UsesPositionOrLast(u.then) {
		return u, false
	}

	// The condition may be a conjunction; pick one separable comparison
	// as the join predicate and push the remaining conjuncts into the
	// then-branch as residual filters (evaluated in the restricted
	// post-join scope).
	conjuncts := flattenAnd(iff.Cond)
	joinIdx := -1
	for i, cj := range conjuncts {
		cop, l, r, okCmp := comparisonParts(cj)
		if !okCmp {
			continue
		}
		lf, rf := xqcore.FreeVars(l), xqcore.FreeVars(r)
		switch {
		case onlyVar(lf, f.Var) && !rf[f.Var]:
			u.vSide, u.oSide, u.op, joinIdx = l, r, cop, i
		case onlyVar(rf, f.Var) && !lf[f.Var]:
			u.vSide, u.oSide, u.op, joinIdx = r, l, swapCmp(cop), i
		default:
			continue
		}
		// Prefer an equi-join conjunct over a theta one.
		if u.op == "=" {
			break
		}
	}
	if joinIdx < 0 {
		return u, false
	}
	// The unnested form cannot supply the implicit for context.
	if xqcore.UsesPositionOrLast(u.oSide) {
		return u, false
	}
	// Residual conjuncts wrap the then-branch in nested conditionals.
	for i := len(conjuncts) - 1; i >= 0; i-- {
		if i != joinIdx {
			u.then = &xqcore.If{Cond: conjuncts[i], Then: u.then, Else: xqcore.NewEmpty()}
		}
	}
	return u, true
}

// unnestSides compiles E once in the top-level scope (qv: E numbered by
// `inner`) and the two comparison operands in their own iteration spaces:
// a = ai|aitem over E's bindings, b = bi|bitem over the enclosing loop.
func (c *Compiler) unnestSides(f *xqcore.For, u unnesting, s *scope) (qv, a, b *algebra.Op) {
	sTop := &scope{loop: topLoop(), env: map[string]binding{}}
	q1 := c.comp(f.In, sTop)
	qv = c.must(algebra.RowNum(q1, "inner",
		[]algebra.OrderSpec{{Col: "iter"}, {Col: "pos"}}, ""))
	innerLoop := c.must(algebra.Project(qv, "iter:inner"))
	sInner := &scope{loop: innerLoop, env: map[string]binding{}}
	sInner.env[f.Var] = binding{plan: c.singletonFrom(qv, "inner", "item"), loop: innerLoop}

	qA := c.comp(u.vSide, sInner) // |E|-space
	qB := c.comp(u.oSide, s)      // enclosing-loop space
	a = c.must(algebra.Project(qA, "ai:iter", "aitem:item"))
	b = c.must(algebra.Project(qB, "bi:iter", "bitem:item"))
	return qv, a, b
}

// unnestPairs joins the two sides on the comparison. The enclosing-loop
// side b is the ⋈ / × left input when outerLeft is set, a otherwise: the
// rows of the result arrive in the left input's order first.
func (c *Compiler) unnestPairs(u unnesting, a, b *algebra.Op, outerLeft bool) *algebra.Op {
	l, r, lk, rk := a, b, "aitem", "bitem"
	if outerLeft {
		l, r, lk, rk = b, a, rk, lk
	}
	if u.op == "=" && hashCompatible(u.vSide.Ty(), u.oSide.Ty()) {
		c.stats.EquiJoins++
		return c.must(algebra.Join(l, r, []string{lk}, []string{rk}))
	}
	c.stats.ThetaJoins++
	cmp := c.must(algebra.Fun(c.must(algebra.Cross(l, r)), "cres", genFun[u.op], "aitem", "bitem"))
	return c.must(algebra.Select(cmp, "cres"))
}

// tryUnnest compiles an unnestable for into a join plan: the surviving
// (inner, outer) pairs become the restricted iteration space for T.
func (c *Compiler) tryUnnest(f *xqcore.For, s *scope) (*algebra.Op, bool) {
	u, ok := matchUnnest(f)
	if !ok {
		return nil, false
	}
	qv, a, b := c.unnestSides(f, u, s)
	// The comparison is existential per (inner, outer) pair.
	dpairs := algebra.Distinct(c.must(algebra.Project(c.unnestPairs(u, a, b, false), "ai", "bi")))

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
	for w := range xqcore.FreeVars(u.then) {
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
		s2.env[w] = s.env[w].moved(lifted, loop2)
	}

	qT := c.comp(u.then, s2)
	backMap := c.must(algebra.Project(rn, "s2b:s2", "aio:ai", "bio:bi"))
	back := c.must(algebra.Join(qT, backMap, []string{"iter"}, []string{"s2b"}))
	rn2 := c.must(algebra.RowNum(back, "pos1",
		[]algebra.OrderSpec{{Col: "aio"}, {Col: "pos"}}, "bio"))
	return c.must(algebra.Project(rn2, "iter:bio", "pos:pos1", "item")), true
}

// unnestCount compiles fn:count over an unnestable `for $v in E where
// A cmp B return $v` without an iteration space for the pairs: T yields
// exactly one item per surviving pair and cannot fail, so the count per
// enclosing iteration is the number of distinct pairs it takes part in —
//
//	count cnt:()/bi ( δ ( π bi,ai ( pairs ) ) )
//
// plus the 0 for iterations without a partner. Nothing above the join
// reads a column of the pairs, which is what lets the executor answer a
// theta-join of this shape from its search bounds (DESIGN.md §15). The
// enclosing-loop side is the join's left input, so the pairs — and the
// counts — arrive in bi order.
func (c *Compiler) unnestCount(f *xqcore.For, s *scope) (*algebra.Op, bool) {
	u, ok := matchUnnest(f)
	if !ok {
		return nil, false
	}
	if t, isVar := u.then.(*xqcore.Var); !isVar || t.Name != f.Var {
		return nil, false
	}
	_, a, b := c.unnestSides(f, u, s)
	c.stats.CountJoins++
	dpairs := algebra.Distinct(c.must(algebra.Project(c.unnestPairs(u, a, b, true), "bi", "ai")))
	cnt := c.must(algebra.Aggr(dpairs, "cnt", algebra.AggCount, "", "bi"))
	return c.countResult(c.must(algebra.Project(cnt, "iter:bi", "cnt")), s), true
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
