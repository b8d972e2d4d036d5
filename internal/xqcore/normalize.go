package xqcore

import (
	"fmt"
	"strings"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xquery"
)

// Options configures normalization.
type Options struct {
	// ContextDoc, when non-empty, binds absolute paths (/a, //a) to
	// fn:doc(ContextDoc) — the CLI convenience of running a bare XPath
	// against a chosen document. Empty means absolute paths require an
	// explicit fn:doc root and are otherwise rejected.
	ContextDoc string

	// Collection, when non-empty, binds absolute paths to
	// fn:collection(Collection) — the catalog-era generalization of
	// ContextDoc: a multi-document collection fans absolute paths out
	// over every document in manifest order. Takes precedence over
	// ContextDoc, and names the default collection for a bare
	// fn:collection() call.
	Collection string
}

// Normalize lowers a parsed query to Core: FLWOR sugar, quantifiers,
// predicates, typeswitch, direct constructors, and user-defined functions
// are compiled away, implicit atomization and effective-boolean-value
// coercions are made explicit, and every node is annotated with its
// inferred static type.
func Normalize(q *xquery.Query, opt Options) (Expr, error) {
	n := &normalizer{opt: opt, funcs: q.Funcs, env: map[string]Type{}}
	return n.norm(q.Body)
}

// NormalizeExpr normalizes a query given as a string; convenience for
// tests and tools.
func NormalizeExpr(src string, opt Options) (Expr, error) {
	q, err := xquery.Parse(src)
	if err != nil {
		return nil, err
	}
	return Normalize(q, opt)
}

type normErr struct{ error }

type normalizer struct {
	opt     Options
	funcs   map[string]*xquery.FuncDecl
	env     map[string]Type
	ctxVar  string // variable holding the path context item ("" = none)
	inlined []string
	fresh   int
}

func (n *normalizer) fail(at xquery.Pos, format string, args ...any) Expr {
	panic(normErr{fmt.Errorf("at %s: %s", at, fmt.Sprintf(format, args...))})
}

func (n *normalizer) freshVar(hint string) string {
	n.fresh++
	return fmt.Sprintf("%s#%d", hint, n.fresh)
}

// scoped runs f with v bound to t, restoring the environment after.
func (n *normalizer) scoped(v string, t Type, f func() Expr) Expr {
	old, had := n.env[v]
	n.env[v] = t
	defer func() {
		if had {
			n.env[v] = old
		} else {
			delete(n.env, v)
		}
	}()
	return f()
}

func (n *normalizer) norm(e xquery.Expr) (out Expr, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ne, ok := r.(normErr); ok {
				out, err = nil, ne.error
				return
			}
			panic(r)
		}
	}()
	return n.normE(e), nil
}

func (n *normalizer) normE(e xquery.Expr) Expr {
	switch x := e.(type) {
	case *xquery.Lit:
		return NewLit(x.Val)
	case *xquery.EmptySeq:
		return NewEmpty()
	case *xquery.Seq:
		return n.normSeq(x.Items)
	case *xquery.Var:
		t, ok := n.env[x.Name]
		if !ok {
			n.fail(x.Pos(), "unbound variable $%s", x.Name)
		}
		return &Var{typed: typed{t}, Name: x.Name}
	case *xquery.ContextItem:
		if n.ctxVar == "" {
			n.fail(x.Pos(), "no context item in this scope")
		}
		return &Var{typed: typed{n.env[n.ctxVar]}, Name: n.ctxVar}
	case *xquery.FLWOR:
		return n.normFLWOR(x)
	case *xquery.Quantified:
		return n.normQuantified(x)
	case *xquery.If:
		c := n.ebv(n.normE(x.Cond))
		th := n.normE(x.Then)
		el := n.normE(x.Else)
		return &If{typed: typed{unifyType(th.Ty(), el.Ty())}, Cond: c, Then: th, Else: el}
	case *xquery.TypeSwitch:
		return n.normTypeSwitch(x)
	case *xquery.Binary:
		return n.normBinary(x)
	case *xquery.Unary:
		if x.Op == "+" {
			return n.normE(x.X)
		}
		// -e ≡ 0 - e (empty operands propagate identically).
		opnd := n.atomize(n.normE(x.X))
		return &BinOp{typed: typed{arithType(opnd.Ty(), Type{IInt, COne})},
			Op: "-", L: NewLit(bat.Int(0)), R: opnd}
	case *xquery.Path:
		return n.normPath(x)
	case *xquery.Filter:
		out, _ := n.applyPreds(n.normE(x.Base), x.Preds)
		return out
	case *xquery.FunCall:
		return n.normCall(x)
	case *xquery.DirElem:
		return n.normDirElem(x)
	case *xquery.CompElem:
		name := n.normE(x.Name)
		var content Expr = NewEmpty()
		if x.Content != nil {
			content = n.normE(x.Content)
		}
		return &ElemC{typed: typed{Type{IElem, COne}}, Name: name, Content: content}
	case *xquery.CompAttr:
		return &AttrC{typed: typed{Type{IAttr, COne}},
			Name: n.normE(x.Name), Value: n.normE(x.Value)}
	case *xquery.CompText:
		return &TextC{typed: typed{Type{IText, COpt}}, Content: n.normE(x.Content)}
	}
	n.fail(e.Pos(), "unsupported expression %T", e)
	return nil
}

func (n *normalizer) normSeq(items []xquery.Expr) Expr {
	if len(items) == 0 {
		return NewEmpty()
	}
	out := n.normE(items[len(items)-1])
	for i := len(items) - 2; i >= 0; i-- {
		l := n.normE(items[i])
		out = &Seq{typed: typed{Type{
			Item: unify(l.Ty().Item, out.Ty().Item),
			Card: seqCard(l.Ty().Card, out.Ty().Card),
		}}, L: l, R: out}
	}
	return out
}

// FLWOR -------------------------------------------------------------------------

func (n *normalizer) normFLWOR(x *xquery.FLWOR) Expr {
	if len(x.Order) > 0 {
		fors := 0
		for _, c := range x.Clauses {
			if _, ok := c.(xquery.ForClause); ok {
				fors++
			}
		}
		if fors != 1 {
			n.fail(x.Pos(), "order by is supported on single-for FLWORs only (got %d for clauses)", fors)
		}
		// Order-by keys attach to the for clause, but XQuery lets them
		// reference let variables bound after it; substitute those
		// references with the let expressions so the keys only depend on
		// the loop variable and outer scope.
		lets := map[string]xquery.Expr{}
		for _, cl := range x.Clauses {
			if lc, ok := cl.(xquery.LetClause); ok {
				lets[lc.Var] = substVars(lc.In, lets)
			}
		}
		if len(lets) > 0 {
			subs := make([]xquery.OrderKey, len(x.Order))
			for i, k := range x.Order {
				subs[i] = xquery.OrderKey{Key: substVars(k.Key, lets), Desc: k.Desc}
			}
			cp := *x
			cp.Order = subs
			x = &cp
		}
	}
	// Hoist the where clause to the earliest point where every FLWOR
	// variable it references is bound: clauses after that point (typically
	// lets binding expensive intermediate results, as in XMark Q12) are
	// then only evaluated for surviving tuples.
	whereAt := -1
	if x.Where != nil {
		whereAt = len(x.Clauses)
		refs := map[string]bool{}
		astVarRefs(x.Where, refs)
		for j := len(x.Clauses) - 1; j >= 0; j-- {
			bindsRef := false
			switch c := x.Clauses[j].(type) {
			case xquery.ForClause:
				bindsRef = refs[c.Var] || (c.PosVar != "" && refs[c.PosVar])
			case xquery.LetClause:
				bindsRef = refs[c.Var]
			}
			if bindsRef {
				break
			}
			whereAt = j
		}
	}
	return n.flworChain(x, 0, whereAt)
}

func (n *normalizer) flworChain(x *xquery.FLWOR, i, whereAt int) Expr {
	if i == whereAt {
		cond := n.ebv(n.normE(x.Where))
		body := n.flworChain(x, i, -1)
		return &If{typed: typed{Type{body.Ty().Item, relaxEmpty(body.Ty().Card)}},
			Cond: cond, Then: body, Else: NewEmpty()}
	}
	if i == len(x.Clauses) {
		return n.normE(x.Return)
	}
	switch c := x.Clauses[i].(type) {
	case xquery.ForClause:
		in := n.normE(c.In)
		itemT := Type{Item: in.Ty().Item, Card: COne}
		var body Expr
		var keys []OrderKey
		build := func() Expr {
			// Keys normalize in the for variable's scope; references to
			// later let variables were substituted away in normFLWOR.
			for _, k := range x.Order {
				keys = append(keys, OrderKey{Key: n.atomize(n.normE(k.Key)), Desc: k.Desc})
			}
			return n.flworChain(x, i+1, whereAt)
		}
		if c.PosVar != "" {
			body = n.scoped(c.Var, itemT, func() Expr {
				return n.scoped(c.PosVar, Type{IInt, COne}, build)
			})
		} else {
			body = n.scoped(c.Var, itemT, build)
		}
		return &For{
			typed:  typed{Type{body.Ty().Item, forCard(in.Ty().Card, body.Ty().Card)}},
			Var:    c.Var,
			PosVar: c.PosVar,
			In:     in,
			Body:   body,
			Order:  keys,
		}
	case xquery.LetClause:
		bound := n.normE(c.In)
		body := n.scoped(c.Var, bound.Ty(), func() Expr { return n.flworChain(x, i+1, whereAt) })
		return &Let{typed: typed{body.Ty()}, Var: c.Var, Bound: bound, Body: body}
	}
	n.fail(x.Pos(), "unknown FLWOR clause")
	return nil
}

func (n *normalizer) normQuantified(x *xquery.Quantified) Expr {
	in := n.normE(x.In)
	itemT := Type{Item: in.Ty().Item, Card: COne}
	sat := n.scoped(x.Var, itemT, func() Expr { return n.ebv(n.normE(x.Sat)) })
	one := NewLit(bat.Int(1))
	boolT := typed{Type{IBool, COne}}
	if x.Every {
		// every ≡ empty(for $v in e return if (sat) then () else 1)
		loop := &For{typed: typed{Type{IInt, CMany}}, Var: x.Var, In: in,
			Body: &If{typed: typed{Type{IInt, COpt}}, Cond: sat, Then: NewEmpty(), Else: one}}
		return &Call{typed: boolT, Name: "empty", Args: []Expr{loop}}
	}
	// some ≡ exists(for $v in e return if (sat) then 1 else ())
	loop := &For{typed: typed{Type{IInt, CMany}}, Var: x.Var, In: in,
		Body: &If{typed: typed{Type{IInt, COpt}}, Cond: sat, Then: one, Else: NewEmpty()}}
	return &Call{typed: boolT, Name: "exists", Args: []Expr{loop}}
}

func (n *normalizer) normTypeSwitch(x *xquery.TypeSwitch) Expr {
	opnd := n.normE(x.Operand)
	tsVar := n.freshVar("ts")
	result := n.scoped(tsVar, opnd.Ty(), func() Expr {
		opndVar := func() Expr { return &Var{typed: typed{n.env[tsVar]}, Name: tsVar} }
		// Build the default branch first, then wrap cases inside-out.
		out := n.bindCaseVar(x.DefaultVar, tsVar, func() Expr { return n.normE(x.Default) })
		for i := len(x.Cases) - 1; i >= 0; i-- {
			c := x.Cases[i]
			test := n.instanceOf(opndVar(), c.Type)
			branch := n.bindCaseVar(c.Var, tsVar, func() Expr { return n.normE(c.Ret) })
			out = &If{typed: typed{unifyType(branch.Ty(), out.Ty())},
				Cond: test, Then: branch, Else: out}
		}
		return out
	})
	return &Let{typed: typed{result.Ty()}, Var: tsVar, Bound: opnd, Body: result}
}

// bindCaseVar evaluates f with caseVar aliased to tsVar (typeswitch case
// binding); an empty caseVar binds nothing.
func (n *normalizer) bindCaseVar(caseVar, tsVar string, f func() Expr) Expr {
	if caseVar == "" {
		return f()
	}
	body := n.scoped(caseVar, n.env[tsVar], f)
	return &Let{typed: typed{body.Ty()}, Var: caseVar,
		Bound: &Var{typed: typed{n.env[tsVar]}, Name: tsVar}, Body: body}
}

// instanceOf builds the InstanceOf test for a parsed sequence type.
func (n *normalizer) instanceOf(x Expr, t xquery.SeqType) Expr {
	ty, name, err := resolveSeqType(t)
	if err != nil {
		n.fail(xquery.Pos{}, "%s", err.Error())
	}
	return &InstanceOf{typed: typed{Type{IBool, COne}},
		X: x, Of: ty, OfName: name, Occ: t.Occ}
}

func resolveSeqType(t xquery.SeqType) (algebra.SeqType, string, error) {
	switch t.Name {
	case "item":
		return algebra.TyItem, "", nil
	case "node":
		return algebra.TyNode, "", nil
	case "element":
		return algebra.TyElem, t.Elem, nil
	case "attribute":
		return algebra.TyAttr, t.Elem, nil
	case "text":
		return algebra.TyText, "", nil
	case "document-node":
		return algebra.TyDocNode, "", nil
	case "xs:integer", "xs:int", "xs:long":
		return algebra.TyInteger, "", nil
	case "xs:double", "xs:decimal", "xs:float":
		return algebra.TyDouble, "", nil
	case "xs:string":
		return algebra.TyString, "", nil
	case "xs:boolean":
		return algebra.TyBoolean, "", nil
	case "xs:untypedAtomic":
		return algebra.TyUntyped, "", nil
	case "xs:anyAtomicType":
		return algebra.TyAtomic, "", nil
	case "empty-sequence":
		// empty-sequence() ≡ item()? with zero occurrences; encode as
		// item() with Occ '0' handled by the '?'-with-empty check.
		return algebra.TyItem, "", nil
	}
	return 0, "", fmt.Errorf("unsupported sequence type %q", t.Name)
}

// Binary operators ---------------------------------------------------------------

func (n *normalizer) normBinary(x *xquery.Binary) Expr {
	switch x.Op {
	case "and", "or":
		l := n.ebv(n.normE(x.L))
		r := n.ebv(n.normE(x.R))
		return &BinOp{typed: typed{Type{IBool, COne}}, Op: x.Op, L: l, R: r}
	case "+", "-", "*", "div", "idiv", "mod":
		l := n.atomize(n.normE(x.L))
		r := n.atomize(n.normE(x.R))
		return &BinOp{typed: typed{arithType(l.Ty(), r.Ty())}, Op: x.Op, L: l, R: r}
	case "eq", "ne", "lt", "le", "gt", "ge":
		l := n.atomize(n.normE(x.L))
		r := n.atomize(n.normE(x.R))
		card := COne
		if l.Ty().MaybeEmpty() || r.Ty().MaybeEmpty() {
			card = COpt
		}
		return &BinOp{typed: typed{Type{IBool, card}}, Op: x.Op, L: l, R: r}
	case "=", "!=", "<", "<=", ">", ">=":
		l := n.atomize(n.normE(x.L))
		r := n.atomize(n.normE(x.R))
		return &GenCmp{typed: typed{Type{IBool, COne}}, Op: x.Op, L: l, R: r}
	case "is", "<<", ">>":
		l := n.normE(x.L)
		r := n.normE(x.R)
		return &NodeCmp{typed: typed{Type{IBool, COpt}}, Op: x.Op, L: l, R: r}
	case "to":
		l := n.atomize(n.normE(x.L))
		r := n.atomize(n.normE(x.R))
		return &Call{typed: typed{Type{IInt, CMany}}, Name: "to", Args: []Expr{l, r}}
	case "|":
		l := n.normE(x.L)
		r := n.normE(x.R)
		seq := &Seq{typed: typed{Type{unify(l.Ty().Item, r.Ty().Item), CMany}}, L: l, R: r}
		return &DDO{typed: typed{Type{seq.Ty().Item, CMany}}, X: seq}
	case "intersect", "except":
		l := n.normE(x.L)
		r := n.normE(x.R)
		return &Call{typed: typed{Type{unify(l.Ty().Item, r.Ty().Item), CMany}},
			Name: x.Op, Args: []Expr{l, r}}
	}
	n.fail(x.Pos(), "unsupported operator %q", x.Op)
	return nil
}

func arithType(l, r Type) Type {
	item := INum
	if l.Item == IInt && r.Item == IInt {
		item = IInt
	}
	card := COne
	if l.MaybeEmpty() || r.MaybeEmpty() {
		card = COpt
	}
	return Type{Item: item, Card: card}
}

// atomize wraps X in fn:data unless it is statically atomic already.
func (n *normalizer) atomize(x Expr) Expr {
	if x.Ty().Item.IsAtomicClass() {
		return x
	}
	item := IUntyped
	if !x.Ty().Item.IsNodeClass() {
		item = IAtom
	}
	return &Data{typed: typed{Type{item, x.Ty().Card}}, X: x}
}

// ebv wraps X in an effective-boolean-value coercion unless it is already
// a boolean singleton.
func (n *normalizer) ebv(x Expr) Expr {
	if t := x.Ty(); t.Item == IBool && t.Card == COne {
		return x
	}
	return &Ebv{typed: typed{Type{IBool, COne}}, X: x}
}

// Paths --------------------------------------------------------------------------

func (n *normalizer) normPath(x *xquery.Path) Expr {
	var cur Expr
	switch {
	case x.Root != nil:
		cur = n.normE(x.Root)
	case x.Absolute:
		if n.opt.Collection != "" {
			cur = &Coll{typed: typed{Type{IDoc, CMany}},
				X: NewLit(bat.Str(n.opt.Collection))}
		} else if n.opt.ContextDoc != "" {
			cur = &Doc{typed: typed{Type{IDoc, COne}},
				X: NewLit(bat.Str(n.opt.ContextDoc))}
		} else if n.ctxVar != "" {
			cv := &Var{typed: typed{n.env[n.ctxVar]}, Name: n.ctxVar}
			cur = &Root{typed: typed{Type{IDoc, cv.Ty().Card}}, X: cv}
		} else {
			n.fail(x.Pos(), "absolute path without a context document (use fn:doc or -doc)")
		}
	default:
		if n.ctxVar == "" {
			n.fail(x.Pos(), "relative path without a context item")
		}
		cur = &Var{typed: typed{n.env[n.ctxVar]}, Name: n.ctxVar}
	}
	for _, s := range x.Steps {
		cur = n.normStep(cur, s, x.Pos())
	}
	return cur
}

func (n *normalizer) normStep(in Expr, s xquery.Step, at xquery.Pos) Expr {
	axis, err := algebra.AxisByName(s.Axis)
	if err != nil {
		n.fail(at, "%s", err.Error())
	}
	test, err := resolveTest(s.Test)
	if err != nil {
		n.fail(at, "%s", err.Error())
	}
	item := IElem
	switch test.Kind {
	case algebra.TestText:
		item = IText
	case algebra.TestAttr:
		item = IAttr
	case algebra.TestNode, algebra.TestComment:
		item = INode
	}
	step := &StepEx{typed: typed{Type{item, CMany}}, Axis: axis, Test: test, In: in}
	out, positional := n.applyPreds(step, s.Preds)
	if !positional {
		return out
	}
	// On a reverse axis the predicate counts in reverse document order
	// (XQuery 1.0 §3.2.2); what it keeps goes back into document order.
	step.Reverse = axis.Reverse()
	if in.Ty().AtMostOne() {
		if step.Reverse {
			return &DDO{typed: typed{Type{item, CMany}}, X: out}
		}
		return out
	}
	// A step's predicate sees the step's result per context node (XQuery
	// 1.0 §3.2.2), so a positional one over several context nodes per
	// iteration counts per node: for $c in In return $c/step[p], in
	// document order. The predicates refer to the step, never to In, so
	// the step just reads $c instead.
	c := n.freshVar("ctx")
	step.In = &Var{typed: typed{Type{in.Ty().Item, COne}}, Name: c}
	loop := &For{typed: typed{Type{item, CMany}}, Var: c, In: in, Body: out}
	return &DDO{typed: typed{Type{item, CMany}}, X: loop}
}

func resolveTest(t xquery.NodeTest) (algebra.KindTest, error) {
	switch t.Kind {
	case "elem":
		return algebra.KindTest{Kind: algebra.TestElem, Name: t.Name}, nil
	case "attr":
		return algebra.KindTest{Kind: algebra.TestAttr, Name: t.Name}, nil
	case "text":
		return algebra.KindTest{Kind: algebra.TestText}, nil
	case "node":
		return algebra.KindTest{Kind: algebra.TestNode}, nil
	case "comment":
		return algebra.KindTest{Kind: algebra.TestComment}, nil
	}
	return algebra.KindTest{}, fmt.Errorf("unsupported node test %q", t.Kind)
}

// applyPreds lowers predicates: integer literals and last() become
// positional filters, anything else becomes a filtering loop with the
// predicate evaluated under a context-item binding. positional reports
// that a predicate reads the position of the item it tests.
func (n *normalizer) applyPreds(in Expr, preds []xquery.Expr) (out Expr, positional bool) {
	for _, p := range preds {
		switch pe := p.(type) {
		case *xquery.Lit:
			if pe.Val.Kind == bat.KInt {
				in = &PosFilter{typed: typed{Type{in.Ty().Item, COpt}}, In: in, Nth: pe.Val.I}
				positional = true
				continue
			}
		case *xquery.FunCall:
			if (pe.Name == "last" || pe.Name == "fn:last") && len(pe.Args) == 0 {
				in = &PosFilter{typed: typed{Type{in.Ty().Item, COpt}}, In: in, Last: true}
				positional = true
				continue
			}
		}
		dot := n.freshVar("dot")
		itemT := Type{Item: in.Ty().Item, Card: COne}
		oldCtx := n.ctxVar
		n.ctxVar = dot
		body := n.scoped(dot, itemT, func() Expr {
			cond := n.ebv(n.normE(p))
			positional = positional || UsesPositionOrLast(cond)
			item := &Var{typed: typed{itemT}, Name: dot}
			return &If{typed: typed{Type{itemT.Item, COpt}},
				Cond: cond, Then: item, Else: NewEmpty()}
		})
		n.ctxVar = oldCtx
		in = &For{typed: typed{Type{in.Ty().Item, relaxEmpty(in.Ty().Card)}},
			Var: dot, In: in, Body: body}
	}
	return in, positional
}

// Constructors --------------------------------------------------------------------

func (n *normalizer) normDirElem(x *xquery.DirElem) Expr {
	var parts []Expr
	for _, a := range x.Attrs {
		parts = append(parts, &AttrC{typed: typed{Type{IAttr, COne}},
			Name:  NewLit(bat.Str(a.Name)),
			Value: n.attrValue(a.Parts),
		})
	}
	for _, c := range x.Content {
		switch ce := c.(type) {
		case *xquery.Lit:
			// Literal text fragments become text nodes directly (no
			// space-joining with neighbouring enclosed expressions).
			parts = append(parts, &TextC{typed: typed{Type{IText, COpt}},
				Content: NewLit(ce.Val)})
		default:
			parts = append(parts, n.normE(c))
		}
	}
	var content Expr = NewEmpty()
	if len(parts) > 0 {
		content = parts[len(parts)-1]
		for i := len(parts) - 2; i >= 0; i-- {
			content = &Seq{typed: typed{Type{IAny, CMany}}, L: parts[i], R: content}
		}
	}
	return &ElemC{typed: typed{Type{IElem, COne}},
		Name: NewLit(bat.Str(x.Tag)), Content: content}
}

// attrValue builds the attribute value string: literal fragments
// concatenated with the space-joined string values of enclosed
// expressions.
func (n *normalizer) attrValue(parts []xquery.Expr) Expr {
	strT := typed{Type{IStr, COne}}
	var exprs []Expr
	for _, p := range parts {
		switch pe := p.(type) {
		case *xquery.Lit:
			exprs = append(exprs, NewLit(pe.Val))
		default:
			inner := n.normE(p)
			exprs = append(exprs, &Call{typed: strT, Name: "string-join",
				Args: []Expr{n.atomize(inner), NewLit(bat.Str(" "))}})
		}
	}
	if len(exprs) == 0 {
		return NewLit(bat.Str(""))
	}
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = &Call{typed: strT, Name: "concat", Args: []Expr{out, e}}
	}
	return out
}

// Function calls ------------------------------------------------------------------

func (n *normalizer) normCall(x *xquery.FunCall) Expr {
	name := strings.TrimPrefix(x.Name, "fn:")
	arity := len(x.Args)
	arg := func(i int) Expr { return n.normE(x.Args[i]) }

	check := func(want int) {
		if arity != want {
			n.fail(x.Pos(), "%s expects %d argument(s), got %d", name, want, arity)
		}
	}
	switch name {
	case "doc":
		check(1)
		return &Doc{typed: typed{Type{IDoc, COne}}, X: arg(0)}
	case "collection":
		if arity > 1 {
			n.fail(x.Pos(), "collection expects 0 or 1 argument(s), got %d", arity)
		}
		// Bare fn:collection() names the default collection ("" when the
		// evaluation is bound to an anonymous store).
		var nameX Expr = NewLit(bat.Str(n.opt.Collection))
		if arity == 1 {
			nameX = arg(0)
		}
		return &Coll{typed: typed{Type{IDoc, CMany}}, X: nameX}
	case "root":
		check(1)
		a := arg(0)
		return &Root{typed: typed{Type{INode, a.Ty().Card}}, X: a}
	case "data":
		check(1)
		return n.atomize(arg(0))
	case "fs:distinct-doc-order", "distinct-doc-order":
		check(1)
		a := arg(0)
		return &DDO{typed: typed{Type{a.Ty().Item, relaxToMany(a.Ty().Card)}}, X: a}
	case "true":
		check(0)
		return NewLit(bat.Bool(true))
	case "false":
		check(0)
		return NewLit(bat.Bool(false))
	case "count":
		check(1)
		return &Call{typed: typed{Type{IInt, COne}}, Name: "count", Args: []Expr{arg(0)}}
	case "sum":
		check(1)
		return &Call{typed: typed{Type{INum, COne}}, Name: "sum", Args: []Expr{n.atomize(arg(0))}}
	case "avg":
		check(1)
		return &Call{typed: typed{Type{IDbl, COpt}}, Name: "avg", Args: []Expr{n.atomize(arg(0))}}
	case "min", "max":
		check(1)
		return &Call{typed: typed{Type{IAtom, COpt}}, Name: name, Args: []Expr{n.atomize(arg(0))}}
	case "empty", "exists":
		check(1)
		return &Call{typed: typed{Type{IBool, COne}}, Name: name, Args: []Expr{arg(0)}}
	case "not", "boolean":
		check(1)
		return &Call{typed: typed{Type{IBool, COne}}, Name: name, Args: []Expr{n.ebv(arg(0))}}
	case "string":
		check(1)
		return &Call{typed: typed{Type{IStr, COne}}, Name: "string", Args: []Expr{arg(0)}}
	case "number":
		check(1)
		return &Call{typed: typed{Type{IDbl, COne}}, Name: "number", Args: []Expr{arg(0)}}
	case "string-length":
		check(1)
		return &Call{typed: typed{Type{IInt, COne}}, Name: "string-length", Args: []Expr{arg(0)}}
	case "contains", "starts-with":
		check(2)
		return &Call{typed: typed{Type{IBool, COne}}, Name: name, Args: []Expr{arg(0), arg(1)}}
	case "concat":
		if arity < 2 {
			n.fail(x.Pos(), "concat expects at least 2 arguments")
		}
		out := arg(0)
		for i := 1; i < arity; i++ {
			out = &Call{typed: typed{Type{IStr, COne}}, Name: "concat", Args: []Expr{out, arg(i)}}
		}
		return out
	case "string-join":
		check(2)
		return &Call{typed: typed{Type{IStr, COne}}, Name: "string-join",
			Args: []Expr{n.atomize(arg(0)), arg(1)}}
	case "zero-or-one":
		check(1)
		a := arg(0)
		return &Call{typed: typed{Type{a.Ty().Item, COpt}}, Name: "zero-or-one", Args: []Expr{a}}
	case "exactly-one":
		check(1)
		a := arg(0)
		return &Call{typed: typed{Type{a.Ty().Item, COne}}, Name: "exactly-one", Args: []Expr{a}}
	case "position", "last":
		check(0)
		return &Call{typed: typed{Type{IInt, COne}}, Name: name}
	case "distinct-values":
		check(1)
		a := n.atomize(arg(0))
		return &Call{typed: typed{Type{a.Ty().Item, CMany}}, Name: "distinct-values", Args: []Expr{a}}
	case "substring":
		if arity != 2 && arity != 3 {
			n.fail(x.Pos(), "substring expects 2 or 3 arguments, got %d", arity)
		}
		args := []Expr{arg(0), n.atomize(arg(1))}
		if arity == 3 {
			args = append(args, n.atomize(arg(2)))
		}
		return &Call{typed: typed{Type{IStr, COne}}, Name: "substring", Args: args}
	case "name":
		check(1)
		return &Call{typed: typed{Type{IStr, COne}}, Name: "name", Args: []Expr{arg(0)}}
	}

	if fd, ok := n.funcs[x.Name]; ok {
		return n.inline(fd, x)
	}
	n.fail(x.Pos(), "unknown function %s/%d", x.Name, arity)
	return nil
}

func relaxToMany(c Card) Card {
	switch c {
	case COne, CPlus:
		return CPlus
	default:
		return CMany
	}
}

// inline expands a user-defined function call by let-binding the arguments
// over the body — the paper's UDF support (non-recursive).
func (n *normalizer) inline(fd *xquery.FuncDecl, call *xquery.FunCall) Expr {
	for _, active := range n.inlined {
		if active == fd.Name {
			n.fail(call.Pos(), "recursive function %s is not supported", fd.Name)
		}
	}
	if len(call.Args) != len(fd.Params) {
		n.fail(call.Pos(), "%s expects %d argument(s), got %d",
			fd.Name, len(fd.Params), len(call.Args))
	}
	args := make([]Expr, len(call.Args))
	for i := range call.Args {
		args[i] = n.normE(call.Args[i])
	}
	n.inlined = append(n.inlined, fd.Name)
	defer func() { n.inlined = n.inlined[:len(n.inlined)-1] }()

	// Bind parameters in a fresh scope: the body may only reference its
	// parameters, so normalize it under exactly those.
	savedEnv := n.env
	savedCtx := n.ctxVar
	n.env = map[string]Type{}
	n.ctxVar = ""
	for i, prm := range fd.Params {
		n.env[prm.Name] = args[i].Ty()
	}
	var body Expr
	func() {
		defer func() {
			n.env = savedEnv
			n.ctxVar = savedCtx
		}()
		body = n.normE(fd.Body)
	}()
	out := body
	for i := len(fd.Params) - 1; i >= 0; i-- {
		out = &Let{typed: typed{out.Ty()}, Var: fd.Params[i].Name,
			Bound: args[i], Body: out}
	}
	return out
}
