// Package core implements the paper's primary contribution: the
// loop-lifting compilation of XQuery Core into Pathfinder's relational
// algebra (§2, "Loop lifting" and Figure 3). Every expression compiles to
// a plan producing the sequence encoding iter|pos|item relative to the
// live loop relation of its scope; FLWOR iteration becomes bulk table
// manipulation through ϱ-generated iteration numbers and map relations
// connecting adjacent scopes.
//
// The compiler also houses Pathfinder's join recognition logic ([3]):
// nested FLWORs whose where-clause compares a quantity derived from the
// inner loop variable against one derived from the outer scopes compile
// into (equi- or theta-) join plans instead of naively lifted
// cross-products — the transformation that makes XMark Q8–Q12 feasible.
package core

import (
	"fmt"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xqcore"
	"pathfinder/internal/xquery"
)

// Stats reports what the join recognition logic did during compilation.
type Stats struct {
	EquiJoins  int // nested FLWORs unnested into hash equi-joins
	ThetaJoins int // nested FLWORs unnested into ×+σ theta-joins
	CountJoins int // of those, the ones only counted: no iteration space over the pairs
}

// Compile translates a Core expression into an algebra plan with schema
// iter|pos|item, evaluated in the top-level scope s0 (a single iteration
// with iter = 1).
func Compile(e xqcore.Expr) (*algebra.Op, error) {
	plan, _, err := CompileWithStats(e)
	return plan, err
}

// CompileWithStats is Compile plus join-recognition statistics.
func CompileWithStats(e xqcore.Expr) (plan *algebra.Op, stats Stats, err error) {
	c := &Compiler{}
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileErr); ok {
				plan, stats, err = nil, c.stats, ce.error
				return
			}
			panic(r)
		}
	}()
	s := &scope{loop: topLoop(), env: map[string]binding{}}
	return c.comp(e, s), c.stats, nil
}

// CompileQuery parses, normalizes, and compiles a query string.
func CompileQuery(src string, opt xqcore.Options) (*algebra.Op, xqcore.Expr, error) {
	q, err := xquery.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	coreExpr, err := xqcore.Normalize(q, opt)
	if err != nil {
		return nil, nil, err
	}
	plan, err := Compile(coreExpr)
	if err != nil {
		return nil, nil, err
	}
	return plan, coreExpr, nil
}

// Compiler carries a counter for fresh column names and the
// join-recognition statistics; a zero Compiler is ready to use.
type Compiler struct {
	fresh int
	stats Stats
}

type compileErr struct{ error }

func (c *Compiler) fail(format string, args ...any) *algebra.Op {
	panic(compileErr{fmt.Errorf("compile: %s", fmt.Sprintf(format, args...))})
}

// must unwraps algebra constructor results; a failure indicates a bug in a
// compilation rule, reported as a compile error with context.
func (c *Compiler) must(o *algebra.Op, err error) *algebra.Op {
	if err != nil {
		panic(compileErr{fmt.Errorf("compile: internal plan construction: %w", err)})
	}
	return o
}

func (c *Compiler) freshCol(hint string) string {
	c.fresh++
	return fmt.Sprintf("%s%d", hint, c.fresh)
}

// scope is a compilation context: the live loop relation (schema [iter])
// and the variable environment. Special entries fs:position and fs:last
// carry the implicit context of the innermost for.
type scope struct {
	loop *algebra.Op
	env  map[string]binding
}

// binding is a variable's iter|pos|item plan, tagged with the loop it is
// aligned to. A lookup under a narrower loop (an if/typeswitch branch)
// re-restricts the plan with a semijoin.
//
// counted marks a let variable whose every use is fn:count($v) and which
// join recognition bound to that count (unnestCount): plan is then the
// singleton encoding of the count, which lifts and restricts like any
// other, and count($v) reads it as it stands.
type binding struct {
	plan    *algebra.Op
	loop    *algebra.Op
	counted bool
}

// moved is b re-keyed for another loop.
func (b binding) moved(plan, loop *algebra.Op) binding {
	b.plan, b.loop = plan, loop
	return b
}

func (s *scope) child(loop *algebra.Op) *scope {
	env := make(map[string]binding, len(s.env))
	for k, v := range s.env {
		env[k] = v
	}
	return &scope{loop: loop, env: env}
}

func (c *Compiler) lookup(s *scope, name string) *algebra.Op {
	b, ok := s.env[name]
	if !ok {
		c.fail("unbound variable $%s (compiler)", name)
	}
	if b.loop == s.loop {
		return b.plan
	}
	// The plan was built for a wider loop (the scope has since been
	// restricted by a conditional); narrow it to the live iterations.
	return c.must(algebra.SemiJoin(b.plan, s.loop, []string{"iter"}, []string{"iter"}))
}

// topLoop is the paper's s0: a single iteration with iter = 1.
func topLoop() *algebra.Op {
	return algebra.Lit(bat.MustTable("iter", bat.IntVec{1}))
}

// comp compiles e under scope s into an iter|pos|item plan.
func (c *Compiler) comp(e xqcore.Expr, s *scope) *algebra.Op {
	switch x := e.(type) {
	case *xqcore.Lit:
		return c.constSeq(s, x.Val)
	case *xqcore.Empty:
		return emptyPlan()
	case *xqcore.Var:
		if s.env[x.Name].counted {
			return c.fail("internal: $%s is bound to its count but read as a sequence", x.Name)
		}
		return c.lookup(s, x.Name)
	case *xqcore.Seq:
		return c.compSeq(x, s)
	case *xqcore.Let:
		b := binding{loop: s.loop}
		if f, isFor := x.Bound.(*xqcore.For); isFor && xqcore.OnlyCounted(x.Body, x.Var) {
			b.plan, b.counted = c.unnestCount(f, s)
		}
		if !b.counted {
			b.plan = c.comp(x.Bound, s)
		}
		s2 := s.child(s.loop)
		s2.env[x.Var] = b
		return c.comp(x.Body, s2)
	case *xqcore.For:
		return c.compFor(x, s)
	case *xqcore.If:
		return c.compIf(x, s)
	case *xqcore.BinOp:
		return c.compBinOp(x, s)
	case *xqcore.GenCmp:
		return c.compGenCmp(x, s)
	case *xqcore.NodeCmp:
		return c.compNodeCmp(x, s)
	case *xqcore.Ebv:
		return c.compEbv(x, s)
	case *xqcore.StepEx:
		return c.compStep(x, s)
	case *xqcore.DDO:
		return c.docOrder(c.comp(x.X, s))
	case *xqcore.Doc:
		return c.must(algebra.DocOp(c.comp(x.X, s)))
	case *xqcore.Coll:
		return c.must(algebra.CollOp(c.comp(x.X, s)))
	case *xqcore.Root:
		return c.must(algebra.Roots(c.comp(x.X, s)))
	case *xqcore.Data:
		q := c.comp(x.X, s)
		f := c.must(algebra.Fun(q, "a", algebra.FunAtomize, "item"))
		return c.must(algebra.Project(f, "iter", "pos", "item:a"))
	case *xqcore.ElemC:
		return c.compElemC(x, s)
	case *xqcore.AttrC:
		return c.compAttrC(x, s)
	case *xqcore.TextC:
		return c.compTextC(x, s)
	case *xqcore.InstanceOf:
		return c.compInstanceOf(x, s)
	case *xqcore.Call:
		return c.compCall(x, s)
	case *xqcore.PosFilter:
		return c.compPosFilter(x, s)
	}
	return c.fail("unsupported core node %T", e)
}

// constSeq lifts a constant into the current loop: loop × {(1, v)} — the
// compilation of Figure 3(a).
func (c *Compiler) constSeq(s *scope, v bat.Item) *algebra.Op {
	lit := algebra.Lit(bat.MustTable("pos", bat.IntVec{1}, "item", bat.ItemVec{v}))
	return c.must(algebra.Cross(s.loop, lit))
}

func emptyPlan() *algebra.Op {
	return algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{}, "pos", bat.IntVec{}, "item", bat.ItemVec{}))
}

// compSeq concatenates the sequence encodings of a comma sequence's
// operands: each is tagged with its ordinal, the tagged operands are
// unioned, and one ϱ renumbers pos per iter by (ord, pos) — however many
// operands the right-nested Seq spine holds.
func (c *Compiler) compSeq(x *xqcore.Seq, s *scope) *algebra.Op {
	parts := seqParts(x, nil)
	switch len(parts) {
	case 0:
		return emptyPlan()
	case 1:
		return c.comp(parts[0], s)
	}
	tagged := make([]*algebra.Op, len(parts))
	for i, p := range parts {
		ord := algebra.Lit(bat.MustTable("ord", bat.IntVec{int64(i + 1)}))
		tagged[i] = c.must(algebra.Cross(c.comp(p, s), ord))
	}
	rn := c.must(algebra.RowNum(c.unionAll(tagged), "pos1",
		[]algebra.OrderSpec{{Col: "ord"}, {Col: "pos"}}, "iter"))
	return c.must(algebra.Project(rn, "iter", "pos:pos1", "item"))
}

// unionAll unions the plans as a balanced tree, so each row is copied
// once per level rather than once per operand to its right.
func (c *Compiler) unionAll(qs []*algebra.Op) *algebra.Op {
	if len(qs) == 1 {
		return qs[0]
	}
	m := len(qs) / 2
	return c.must(algebra.Union(c.unionAll(qs[:m]), c.unionAll(qs[m:])))
}

// seqParts appends the operands of e's Seq spine to out, in order,
// leaving out empty sequences: (a, (b, c), ()) has the parts a, b, c.
func seqParts(e xqcore.Expr, out []xqcore.Expr) []xqcore.Expr {
	switch x := e.(type) {
	case *xqcore.Seq:
		return seqParts(x.R, seqParts(x.L, out))
	case *xqcore.Empty:
		return out
	}
	return append(out, e)
}

// compIf compiles conditionals with restricted loops: the then-branch
// runs only in iterations where the condition holds, the else-branch in
// the rest, and the disjoint union reassembles the result (§2).
func (c *Compiler) compIf(x *xqcore.If, s *scope) *algebra.Op {
	qc := c.comp(x.Cond, s)
	thenLoop := c.must(algebra.Project(c.must(algebra.Select(qc, "item")), "iter"))
	neg := c.must(algebra.Fun(qc, "nitem", algebra.FunNot, "item"))
	elseLoop := c.must(algebra.Project(c.must(algebra.Select(neg, "nitem")), "iter"))

	qt := c.comp(x.Then, s.child(thenLoop))
	qe := c.comp(x.Else, s.child(elseLoop))
	return c.must(algebra.Union(qt, qe))
}

var binFun = map[string]algebra.FunKind{
	"+": algebra.FunAdd, "-": algebra.FunSub, "*": algebra.FunMul,
	"div": algebra.FunDiv, "idiv": algebra.FunIDiv, "mod": algebra.FunMod,
	"eq": algebra.FunEq, "ne": algebra.FunNe, "lt": algebra.FunLt,
	"le": algebra.FunLe, "gt": algebra.FunGt, "ge": algebra.FunGe,
	"and": algebra.FunAnd, "or": algebra.FunOr,
}

var genFun = map[string]algebra.FunKind{
	"=": algebra.FunEq, "!=": algebra.FunNe, "<": algebra.FunLt,
	"<=": algebra.FunLe, ">": algebra.FunGt, ">=": algebra.FunGe,
}

// compBinOp joins the two singleton encodings on iter and applies the row
// function ⊛ — Figure 3(e)'s $v + $w.
func (c *Compiler) compBinOp(x *xqcore.BinOp, s *scope) *algebra.Op {
	fun, ok := binFun[x.Op]
	if !ok {
		return c.fail("unknown operator %q", x.Op)
	}
	ql := c.comp(x.L, s)
	qr := c.comp(x.R, s)
	r := c.must(algebra.Project(qr, "iter1:iter", "item1:item"))
	j := c.must(algebra.Join(ql, r, []string{"iter"}, []string{"iter1"}))
	f := c.must(algebra.Fun(j, "res", fun, "item", "item1"))
	return c.singleton(f, "res")
}

// singleton turns a plan with iter and a result column into a canonical
// iter|pos|item encoding with pos = 1.
func (c *Compiler) singleton(q *algebra.Op, resCol string) *algebra.Op {
	p := c.must(algebra.Project(q, "iter", "item:"+resCol))
	w := c.must(algebra.Cross(p, algebra.Lit(bat.MustTable("pos", bat.IntVec{1}))))
	return c.must(algebra.Project(w, "iter", "pos", "item"))
}

// boolForIters builds the boolean singleton encoding that is true exactly
// for the iterations listed in trueIters (schema [titer]) and false for
// the rest of the loop.
func (c *Compiler) boolForIters(trueIters, loop *algebra.Op) *algebra.Op {
	tRows := c.must(algebra.Cross(
		c.must(algebra.Project(trueIters, "iter:titer")),
		algebra.Lit(bat.MustTable("pos", bat.IntVec{1}, "item", bat.ItemVec{bat.Bool(true)}))))
	falseIters := c.must(algebra.Diff(loop, trueIters, []string{"iter"}, []string{"titer"}))
	fRows := c.must(algebra.Cross(falseIters,
		algebra.Lit(bat.MustTable("pos", bat.IntVec{1}, "item", bat.ItemVec{bat.Bool(false)}))))
	return c.must(algebra.Union(tRows, fRows))
}

// compGenCmp: existential general comparison — join both sides on iter,
// keep pairs satisfying the comparison, and map surviving iterations to
// true.
func (c *Compiler) compGenCmp(x *xqcore.GenCmp, s *scope) *algebra.Op {
	fun, ok := genFun[x.Op]
	if !ok {
		return c.fail("unknown comparison %q", x.Op)
	}
	ql := c.comp(x.L, s)
	qr := c.comp(x.R, s)
	r := c.must(algebra.Project(qr, "iter1:iter", "item1:item"))
	j := c.must(algebra.Join(ql, r, []string{"iter"}, []string{"iter1"}))
	f := c.must(algebra.Fun(j, "res", fun, "item", "item1"))
	sel := c.must(algebra.Select(f, "res"))
	ti := algebra.Distinct(c.must(algebra.Project(sel, "titer:iter")))
	return c.boolForIters(ti, s.loop)
}

func (c *Compiler) compNodeCmp(x *xqcore.NodeCmp, s *scope) *algebra.Op {
	ql := c.comp(x.L, s)
	qr := c.comp(x.R, s)
	if x.Op == ">>" {
		ql, qr = qr, ql
	}
	fun := algebra.FunDocBefore
	if x.Op == "is" {
		fun = algebra.FunNodeIs
	}
	r := c.must(algebra.Project(qr, "iter1:iter", "item1:item"))
	j := c.must(algebra.Join(ql, r, []string{"iter"}, []string{"iter1"}))
	f := c.must(algebra.Fun(j, "res", fun, "item", "item1"))
	return c.singleton(f, "res")
}

// compEbv: effective boolean value — true for iterations with at least
// one item whose single-item ebv holds.
func (c *Compiler) compEbv(x *xqcore.Ebv, s *scope) *algebra.Op {
	q := c.comp(x.X, s)
	if t := x.X.Ty(); t.Item == xqcore.IBool && t.Card == xqcore.COne {
		return q
	}
	f := c.must(algebra.Fun(q, "b", algebra.FunEbvItem, "item"))
	sel := c.must(algebra.Select(f, "b"))
	ti := algebra.Distinct(c.must(algebra.Project(sel, "titer:iter")))
	return c.boolForIters(ti, s.loop)
}

// compStep: the staircase join, followed by per-iter position numbering in
// document order. A path is numbered once, after its last step: the steps
// before it only feed the next step's context, which reads iter|item.
func (c *Compiler) compStep(x *xqcore.StepEx, s *scope) *algebra.Op {
	return c.numberDocOrder(c.stepNodes(x, s), x.Reverse)
}

// stepNodes is the iter|item result of step x. A step whose context is
// another step reads that step's result as it comes out of the
// staircase join: duplicate-free and sorted by (iter, item). A context
// whose static type is atomic (a literal, a range, arithmetic) is the
// type error XPTY0019 here; one that only turns out atomic at run time
// is the step kernel's.
func (c *Compiler) stepNodes(x *xqcore.StepEx, s *scope) *algebra.Op {
	if t := x.In.Ty(); t.Item.IsAtomicClass() && t.Card != xqcore.CEmpty {
		c.fail("XPTY0019: location step over %s", t)
	}
	var ctx *algebra.Op
	if in, ok := x.In.(*xqcore.StepEx); ok {
		ctx = c.stepNodes(in, s)
	} else {
		ctx = c.must(algebra.Project(c.comp(x.In, s), "iter", "item"))
	}
	return c.must(algebra.Step(ctx, x.Axis, x.Test))
}

// docOrder implements fs:distinct-doc-order.
func (c *Compiler) docOrder(q *algebra.Op) *algebra.Op {
	d := algebra.Distinct(c.must(algebra.Project(q, "iter", "item")))
	return c.numberDocOrder(d, false)
}

// numberDocOrder adds pos = the per-iter document-order rank of the node
// items of an iter|item plan, counted from the last node when reverse.
func (c *Compiler) numberDocOrder(q *algebra.Op, reverse bool) *algebra.Op {
	rn := c.must(algebra.RowNum(q, "pos", []algebra.OrderSpec{{Col: "item", Desc: reverse}}, "iter"))
	return c.must(algebra.Project(rn, "iter", "pos", "item"))
}

// fillDefault unions in (pos 1, item def) rows for loop iterations missing
// from q — the compilation of functions with non-empty results on empty
// input (fn:string, fn:count, ...).
func (c *Compiler) fillDefault(q, loop *algebra.Op, def bat.Item) *algebra.Op {
	present := algebra.Distinct(c.must(algebra.Project(q, "piter:iter")))
	missing := c.must(algebra.Diff(loop, present, []string{"iter"}, []string{"piter"}))
	rows := c.must(algebra.Cross(missing,
		algebra.Lit(bat.MustTable("pos", bat.IntVec{1}, "item", bat.ItemVec{def}))))
	return c.must(algebra.Union(q, rows))
}
