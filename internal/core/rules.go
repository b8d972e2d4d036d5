package core

import (
	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xqcore"
)

// compFor is the loop-lifting rule of Figure 3: the binding sequence's
// rows become the iterations of a new scope, connected to the enclosing
// scope by the map relation; free variables are lifted through the map;
// the body's result is mapped back and renumbered.
func (c *Compiler) compFor(f *xqcore.For, s *scope) *algebra.Op {
	if plan, ok := c.tryUnnest(f, s); ok {
		return plan
	}
	q1 := c.comp(f.In, s)
	// ϱ inner:(iter,pos): one fresh iteration per binding — Figure 3(b).
	qv := c.must(algebra.RowNum(q1, "inner",
		[]algebra.OrderSpec{{Col: "iter"}, {Col: "pos"}}, ""))
	mapRel := c.must(algebra.Project(qv, "inner", "outer:iter")) // Figure 3(f)
	loop2 := c.must(algebra.Project(qv, "iter:inner"))
	return c.forBody(f, s, qv, mapRel, loop2, q1)
}

// forBody compiles the loop body under the new scope and back-maps the
// result. qv must provide inner|item (the variable binding per new
// iteration) plus the source pos column; mapRel is inner|outer.
func (c *Compiler) forBody(f *xqcore.For, s *scope, qv, mapRel, loop2, q1 *algebra.Op) *algebra.Op {
	s2 := &scope{loop: loop2, env: map[string]binding{}}

	vPlan := c.singletonFrom(qv, "inner", "item")
	s2.env[f.Var] = binding{plan: vPlan, loop: loop2}
	if f.PosVar != "" {
		s2.env[f.PosVar] = binding{plan: c.singletonFrom(qv, "inner", "pos"), loop: loop2}
	}

	// Lift the free variables of the body (and order keys) through map.
	free := xqcore.FreeVars(f.Body)
	for _, k := range f.Order {
		for v := range xqcore.FreeVars(k.Key) {
			free[v] = true
		}
	}
	delete(free, f.Var)
	if f.PosVar != "" {
		delete(free, f.PosVar)
	}
	for w := range free {
		if _, ok := s.env[w]; !ok {
			continue // let compilation of the body report the unbound variable
		}
		s2.env[w] = s.env[w].moved(c.liftThroughMap(c.lookup(s, w), mapRel), loop2)
	}

	// Implicit position()/last() context.
	if xqcore.UsesPositionOrLast(f.Body) {
		s2.env["fs:position"] = binding{plan: c.singletonFrom(qv, "inner", "pos"), loop: loop2}
		cnt := c.must(algebra.Aggr(q1, "cnt", algebra.AggCount, "", "iter"))
		cntR := c.must(algebra.Project(cnt, "citer:iter", "cnt"))
		withCnt := c.must(algebra.Join(qv, cntR, []string{"iter"}, []string{"citer"}))
		s2.env["fs:last"] = binding{plan: c.singletonFrom(withCnt, "inner", "cnt"), loop: loop2}
	}

	qb := c.comp(f.Body, s2)

	// Back-map: join the body result with map, renumber positions per
	// outer iteration — Figure 3(g).
	back := c.must(algebra.Join(qb, mapRel, []string{"iter"}, []string{"inner"}))
	order := []algebra.OrderSpec{}
	for i, k := range f.Order {
		kq := c.comp(k.Key, s2)
		keyCol := c.freshCol("key")
		kiter := c.freshCol("kiter")
		kII := c.must(algebra.Project(kq, kiter+":iter", keyCol+":item"))
		// Bindings with an empty key sort first (empty least).
		present := algebra.Distinct(c.must(algebra.Project(kII, "piter:"+kiter)))
		missing := c.must(algebra.Diff(loop2, present, []string{"iter"}, []string{"piter"}))
		defRows := c.must(algebra.Project(
			c.must(algebra.Cross(missing,
				algebra.Lit(bat.MustTable(keyCol, bat.StrVec{""})))),
			kiter+":iter", keyCol))
		filled := c.must(algebra.Union(kII, defRows))
		back = c.must(algebra.Join(back, filled, []string{"inner"}, []string{kiter}))
		order = append(order, algebra.OrderSpec{Col: keyCol, Desc: f.Order[i].Desc})
	}
	order = append(order, algebra.OrderSpec{Col: "inner"}, algebra.OrderSpec{Col: "pos"})
	rn := c.must(algebra.RowNum(back, "pos1", order, "outer"))
	return c.must(algebra.Project(rn, "iter:outer", "pos:pos1", "item"))
}

// singletonFrom builds iter|pos|item with pos = 1 from a plan, renaming
// iterCol to iter and valCol to item.
func (c *Compiler) singletonFrom(q *algebra.Op, iterCol, valCol string) *algebra.Op {
	p := c.must(algebra.Project(q, "iter:"+iterCol, "item:"+valCol))
	w := c.must(algebra.Cross(p, algebra.Lit(bat.MustTable("pos", bat.IntVec{1}))))
	return c.must(algebra.Project(w, "iter", "pos", "item"))
}

// liftThroughMap lifts an outer-scope sequence encoding into the inner
// scope: env(w) ⋈_{iter=outer} map, re-keyed on inner.
func (c *Compiler) liftThroughMap(plan, mapRel *algebra.Op) *algebra.Op {
	renamed := c.must(algebra.Project(plan, "witer:iter", "wpos:pos", "witem:item"))
	j := c.must(algebra.Join(renamed, mapRel, []string{"witer"}, []string{"outer"}))
	return c.must(algebra.Project(j, "iter:inner", "pos:wpos", "item:witem"))
}

// Constructors --------------------------------------------------------------------

// compElemC compiles an element constructor and, inlined into it, every
// element and attribute constructor with a literal name among its content
// operands, recursively, into one ε over a skeleton (algebra.Skeleton).
// Every other operand — an enclosed expression, a text constructor, a
// constructor with a computed name, one under a for or an if — is a slot
// compiled in the same loop. A constructor nested this way forces one
// element per iteration, not a fragment of its own that the next level
// copies and renumbers.
func (c *Compiler) compElemC(x *xqcore.ElemC, s *scope) *algebra.Op {
	sk := skelBuilder{c: c, s: s}
	root := s.loop
	name, static := skelName(x.Name)
	if !static {
		names := c.stringPerRow(c.comp(x.Name, s))
		root = c.must(algebra.Project(names, "iter", "item"))
	}
	sk.elem(name, x.Content)
	e := c.must(algebra.ElemSkel(root, sk.skel, sk.slots...))
	return c.singletonFrom(e, "iter", "item")
}

// skelBuilder collects the skeleton and the slot plans of one ε.
type skelBuilder struct {
	c     *Compiler
	s     *scope
	skel  algebra.Skeleton
	slots []*algebra.Op
}

// elem appends an element named name ("" for the dynamic root) with the
// given content.
func (b *skelBuilder) elem(name string, content xqcore.Expr) {
	b.skel = append(b.skel, algebra.SkelNode{Kind: algebra.SkelOpen, Name: name})
	for _, part := range seqParts(content, nil) {
		switch x := part.(type) {
		case *xqcore.ElemC:
			if n, ok := skelName(x.Name); ok {
				b.elem(n, x.Content)
				continue
			}
		case *xqcore.AttrC:
			if n, ok := skelName(x.Name); ok {
				b.slot(algebra.SkelAttr, n, attrItems(x.Value))
				continue
			}
		}
		b.slot(algebra.SkelSlot, "", part)
	}
	b.skel = append(b.skel, algebra.SkelNode{Kind: algebra.SkelClose})
}

func (b *skelBuilder) slot(kind algebra.SkelKind, name string, e xqcore.Expr) {
	b.skel = append(b.skel, algebra.SkelNode{Kind: kind, Name: name, Slot: int32(len(b.slots))})
	b.slots = append(b.slots, b.c.comp(e, b.s))
}

// attrItems is what an attribute slot needs of a value expression: the ε
// kernel joins the string values of a slot's items with a space and reads
// no items as "", which is the string-join(data(e), " ") the normalizer
// wraps an enclosed attribute value in — so e alone will do.
func attrItems(v xqcore.Expr) xqcore.Expr {
	call, ok := v.(*xqcore.Call)
	if !ok || call.Name != "string-join" {
		return v
	}
	if sep, ok := call.Args[1].(*xqcore.Lit); !ok || sep.Val.Kind != bat.KStr || sep.Val.S != " " {
		return v
	}
	if d, ok := call.Args[0].(*xqcore.Data); ok {
		return d.X
	}
	return call.Args[0]
}

// skelName returns the name a constructor's name expression spells
// statically: a string literal a skeleton can carry.
func skelName(e xqcore.Expr) (string, bool) {
	l, ok := e.(*xqcore.Lit)
	if !ok || (l.Val.Kind != bat.KStr && l.Val.Kind != bat.KUntyped) || !algebra.SkelName(l.Val.S) {
		return "", false
	}
	return l.Val.S, true
}

func (c *Compiler) compAttrC(x *xqcore.AttrC, s *scope) *algebra.Op {
	qn := c.comp(x.Name, s)
	names := c.must(algebra.Project(c.stringPerRow(qn), "iter", "item"))
	vals := c.stringJoinPerIter(c.comp(x.Value, s), s.loop, " ")
	a := c.must(algebra.AttrC(names, vals))
	return c.singletonFrom(a, "iter", "item")
}

func (c *Compiler) compTextC(x *xqcore.TextC, s *scope) *algebra.Op {
	qc := c.comp(x.Content, s)
	// text{()} constructs no node: no default fill, absent iterations
	// simply produce no row.
	sv := c.stringPerRow(qc)
	joined := c.must(algebra.StrJoin(sv, "sv", "item", "iter", " "))
	tII := c.must(algebra.Project(joined, "iter", "item:sv"))
	t := c.must(algebra.Text(tII))
	return c.singletonFrom(t, "iter", "item")
}

// stringPerRow replaces item with its string value (row-wise fn:string).
func (c *Compiler) stringPerRow(q *algebra.Op) *algebra.Op {
	f := c.must(algebra.Fun(q, "s", algebra.FunString, "item"))
	specs := []string{}
	for _, col := range q.Schema() {
		if col == "item" {
			specs = append(specs, "item:s")
		} else {
			specs = append(specs, col)
		}
	}
	return c.must(algebra.Project(f, specs...))
}

// stringJoinPerIter builds iter|item with the sep-joined string values per
// iteration, defaulting to "" for iterations with no rows.
func (c *Compiler) stringJoinPerIter(q, loop *algebra.Op, sep string) *algebra.Op {
	sv := c.stringPerRow(q)
	joined := c.must(algebra.StrJoin(sv, "sv", "item", "iter", sep))
	jII := c.must(algebra.Project(joined, "iter", "item:sv"))
	present := algebra.Distinct(c.must(algebra.Project(jII, "piter:iter")))
	missing := c.must(algebra.Diff(loop, present, []string{"iter"}, []string{"piter"}))
	defaults := c.must(algebra.Cross(missing,
		algebra.Lit(bat.MustTable("item", bat.StrVec{""}))))
	return c.must(algebra.Union(jII, defaults))
}

// Type tests ----------------------------------------------------------------------

func (c *Compiler) compInstanceOf(x *xqcore.InstanceOf, s *scope) *algebra.Op {
	q := c.comp(x.X, s)
	// Iterations with an item failing the item-type test.
	tt := c.must(algebra.TypeTest(q, "ok", x.Of, x.OfName, "item"))
	nok := c.must(algebra.Fun(tt, "bad", algebra.FunNot, "ok"))
	badIters := algebra.Distinct(c.must(algebra.Project(
		c.must(algebra.Select(nok, "bad")), "biter:iter")))

	// Cardinality per iteration (0 for absent ones).
	cnt := c.must(algebra.Aggr(q, "cnt", algebra.AggCount, "", "iter"))
	present := algebra.Distinct(c.must(algebra.Project(cnt, "piter:iter")))
	missing := c.must(algebra.Diff(s.loop, present, []string{"iter"}, []string{"piter"}))
	zeros := c.must(algebra.Cross(missing, algebra.Lit(bat.MustTable("cnt", bat.IntVec{0}))))
	counts := c.must(algebra.Union(cnt, zeros))

	lo, hi := int64(1), int64(1)
	switch x.Occ {
	case '?':
		lo, hi = 0, 1
	case '*':
		lo, hi = 0, -1
	case '+':
		lo, hi = 1, -1
	}
	bounds := c.must(algebra.Cross(counts, algebra.Lit(bat.MustTable("lo", bat.IntVec{lo}))))
	ok := c.must(algebra.Fun(bounds, "geok", algebra.FunGe, "cnt", "lo"))
	okCol := "geok"
	if hi >= 0 {
		withHi := c.must(algebra.Cross(ok, algebra.Lit(bat.MustTable("hi", bat.IntVec{hi}))))
		leok := c.must(algebra.Fun(withHi, "leok", algebra.FunLe, "cnt", "hi"))
		ok = c.must(algebra.Fun(leok, "bok", algebra.FunAnd, "geok", "leok"))
		okCol = "bok"
	}
	cardOK := c.must(algebra.Project(c.must(algebra.Select(ok, okCol)), "titer:iter"))
	trueIters := c.must(algebra.Diff(cardOK, badIters, []string{"titer"}, []string{"biter"}))
	return c.boolForIters(trueIters, s.loop)
}

// Built-in calls -------------------------------------------------------------------

func (c *Compiler) compCall(x *xqcore.Call, s *scope) *algebra.Op {
	switch x.Name {
	case "count":
		// A join that is only counted never builds an iteration space for
		// its pairs (unnest.go): directly under count, or through a let
		// variable bound to the count.
		switch a := x.Args[0].(type) {
		case *xqcore.Var:
			if s.env[a.Name].counted {
				return c.lookup(s, a.Name)
			}
		case *xqcore.For:
			if cnt, ok := c.unnestCount(a, s); ok {
				return cnt
			}
		}
		q := c.comp(x.Args[0], s)
		return c.countResult(c.must(algebra.Aggr(q, "cnt", algebra.AggCount, "", "iter")), s)
	case "sum":
		q := c.comp(x.Args[0], s)
		a := c.must(algebra.Aggr(q, "agg", algebra.AggSum, "item", "iter"))
		filled := c.fillAggDefault(a, "agg", s.loop, bat.Int(0))
		return c.singletonFrom(filled, "iter", "agg")
	case "avg", "min", "max":
		kind := map[string]algebra.AggKind{
			"avg": algebra.AggAvg, "min": algebra.AggMin, "max": algebra.AggMax,
		}[x.Name]
		q := c.comp(x.Args[0], s)
		a := c.must(algebra.Aggr(q, "agg", kind, "item", "iter"))
		return c.singletonFrom(a, "iter", "agg")
	case "empty", "exists":
		q := c.comp(x.Args[0], s)
		present := algebra.Distinct(c.must(algebra.Project(q, "titer:iter")))
		if x.Name == "exists" {
			return c.boolForIters(present, s.loop)
		}
		absent := c.must(algebra.Project(
			c.must(algebra.Diff(s.loop, present, []string{"iter"}, []string{"titer"})),
			"titer:iter"))
		return c.boolForIters(absent, s.loop)
	case "not", "boolean":
		q := c.comp(x.Args[0], s) // operand is ebv'd: one boolean per iter
		if x.Name == "boolean" {
			return q
		}
		f := c.must(algebra.Fun(q, "res", algebra.FunNot, "item"))
		return c.singleton(f, "res")
	case "string":
		q := c.comp(x.Args[0], s)
		sv := c.stringPerRow(q)
		return c.fillDefault(sv, s.loop, bat.Str(""))
	case "number":
		q := c.comp(x.Args[0], s)
		f := c.must(algebra.Fun(q, "n", algebra.FunNumber, "item"))
		p := c.must(algebra.Project(f, "iter", "pos", "item:n"))
		return c.fillDefault(p, s.loop, bat.Float(nan()))
	case "string-length":
		q := c.fillDefault(c.stringPerRow(c.comp(x.Args[0], s)), s.loop, bat.Str(""))
		f := c.must(algebra.Fun(q, "n", algebra.FunStringLength, "item"))
		return c.singleton(f, "n")
	case "contains", "starts-with", "concat":
		fun := map[string]algebra.FunKind{
			"contains": algebra.FunContains, "starts-with": algebra.FunStartsWith,
			"concat": algebra.FunConcat,
		}[x.Name]
		ql := c.fillDefault(c.stringPerRow(c.comp(x.Args[0], s)), s.loop, bat.Str(""))
		qr := c.fillDefault(c.stringPerRow(c.comp(x.Args[1], s)), s.loop, bat.Str(""))
		r := c.must(algebra.Project(qr, "iter1:iter", "item1:item"))
		j := c.must(algebra.Join(ql, r, []string{"iter"}, []string{"iter1"}))
		f := c.must(algebra.Fun(j, "res", fun, "item", "item1"))
		return c.singleton(f, "res")
	case "string-join":
		sep, ok := x.Args[1].(*xqcore.Lit)
		if !ok {
			return c.fail("string-join separator must be a string literal")
		}
		vals := c.stringJoinPerIter(c.comp(x.Args[0], s), s.loop, sep.Val.StringValue())
		return c.singletonFrom(vals, "iter", "item")
	case "zero-or-one", "exactly-one":
		// Cardinality assertions pass through; violations surface as
		// ordinary dynamic behaviour downstream (documented deviation).
		return c.comp(x.Args[0], s)
	case "position":
		if _, ok := s.env["fs:position"]; ok {
			return c.lookup(s, "fs:position")
		}
		return c.fail("position() outside of a for loop")
	case "last":
		if _, ok := s.env["fs:last"]; ok {
			return c.lookup(s, "fs:last")
		}
		return c.fail("last() outside of a for loop")
	case "to":
		ql := c.comp(x.Args[0], s)
		qr := c.comp(x.Args[1], s)
		lo := c.must(algebra.Project(ql, "iter", "lo:item"))
		hi := c.must(algebra.Project(qr, "hiter:iter", "hi:item"))
		j := c.must(algebra.Join(lo, hi, []string{"iter"}, []string{"hiter"}))
		return c.must(algebra.Range(j, "lo", "hi"))
	case "intersect", "except":
		ql := c.must(algebra.Project(c.comp(x.Args[0], s), "iter", "item"))
		qr := c.must(algebra.Project(c.comp(x.Args[1], s), "riter:iter", "ritem:item"))
		keysL, keysR := []string{"iter", "item"}, []string{"riter", "ritem"}
		var filtered *algebra.Op
		if x.Name == "intersect" {
			filtered = c.must(algebra.SemiJoin(ql, qr, keysL, keysR))
		} else {
			filtered = c.must(algebra.Diff(ql, qr, keysL, keysR))
		}
		return c.docOrder(filtered)
	case "distinct-values":
		// Values compare by eq semantics (the hash keys of δ); the order
		// of survivors is first occurrence in sequence order, which both
		// engines share.
		q := c.comp(x.Args[0], s)
		rn := c.must(algebra.RowNum(q, "seqord",
			[]algebra.OrderSpec{{Col: "pos"}}, "iter"))
		d := algebra.Distinct(c.must(algebra.Project(rn, "iter", "item")))
		rn2 := c.must(algebra.RowNum(d, "pos", nil, "iter"))
		return c.must(algebra.Project(rn2, "iter", "pos", "item"))
	case "substring":
		str := c.fillDefault(c.stringPerRow(c.comp(x.Args[0], s)), s.loop, bat.Str(""))
		start := c.must(algebra.Project(c.comp(x.Args[1], s), "siter:iter", "start:item"))
		j := c.must(algebra.Join(str, start, []string{"iter"}, []string{"siter"}))
		if len(x.Args) == 3 {
			ln := c.must(algebra.Project(c.comp(x.Args[2], s), "liter:iter", "len:item"))
			j = c.must(algebra.Join(j, ln, []string{"iter"}, []string{"liter"}))
			f := c.must(algebra.Fun(j, "res", algebra.FunSubstring3, "item", "start", "len"))
			return c.singleton(f, "res")
		}
		f := c.must(algebra.Fun(j, "res", algebra.FunSubstring, "item", "start"))
		return c.singleton(f, "res")
	case "name":
		q := c.comp(x.Args[0], s)
		f := c.must(algebra.Fun(q, "nm", algebra.FunNameOf, "item"))
		p := c.must(algebra.Project(f, "iter", "pos", "item:nm"))
		return c.fillDefault(p, s.loop, bat.Str(""))
	}
	return c.fail("unsupported built-in %s", x.Name)
}

// countResult turns per-iteration counts (iter|cnt) into fn:count's
// result: 0 for the loop iterations without a row.
func (c *Compiler) countResult(cnt *algebra.Op, s *scope) *algebra.Op {
	filled := c.fillAggDefault(cnt, "cnt", s.loop, bat.Int(0))
	return c.singletonFrom(filled, "iter", "cnt")
}

func nan() float64 {
	f := 0.0
	return f / f
}

// fillAggDefault unions default aggregate values for loop iterations
// absent from the aggregate table (schema iter|valCol).
func (c *Compiler) fillAggDefault(a *algebra.Op, valCol string, loop *algebra.Op, def bat.Item) *algebra.Op {
	present := algebra.Distinct(c.must(algebra.Project(a, "piter:iter")))
	missing := c.must(algebra.Diff(loop, present, []string{"iter"}, []string{"piter"}))
	defs := c.must(algebra.Cross(missing,
		algebra.Lit(bat.MustTable(valCol, bat.ItemVec{def}))))
	return c.must(algebra.Union(a, defs))
}

// Positional filters ----------------------------------------------------------------

func (c *Compiler) compPosFilter(x *xqcore.PosFilter, s *scope) *algebra.Op {
	q := c.comp(x.In, s)
	if x.Last {
		cnt := c.must(algebra.Aggr(q, "cnt", algebra.AggCount, "", "iter"))
		cntR := c.must(algebra.Project(cnt, "citer:iter", "cnt"))
		j := c.must(algebra.Join(q, cntR, []string{"iter"}, []string{"citer"}))
		f := c.must(algebra.Fun(j, "hit", algebra.FunEq, "pos", "cnt"))
		sel := c.must(algebra.Select(f, "hit"))
		return c.singletonFrom(sel, "iter", "item")
	}
	n := c.must(algebra.Cross(q, algebra.Lit(bat.MustTable("n", bat.IntVec{x.Nth}))))
	f := c.must(algebra.Fun(n, "hit", algebra.FunEq, "pos", "n"))
	sel := c.must(algebra.Select(f, "hit"))
	return c.singletonFrom(sel, "iter", "item")
}
