package check

import (
	"fmt"
	"strings"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// Schema well-formedness: for every operator the validator recomputes the
// output schema from the inputs' declared schemas and the operator's
// parameters, checks every consumed column against the producing input,
// and compares the result to the schema the node declares. The
// constructors in internal/algebra establish these invariants eagerly;
// this pass re-proves them over whole DAGs, so a rewrite that edits
// nodes in place (or a deserialized plan) cannot smuggle in a schema the
// downstream kernels would misread.

// arityOf is the validator's own record of how many inputs each operator
// kind takes — deliberately not derived from the node's In slice.
func arityOf(k algebra.OpKind) int {
	switch k {
	case algebra.OpLit:
		return 0
	case algebra.OpUnion, algebra.OpDiff, algebra.OpJoin, algebra.OpSemiJoin,
		algebra.OpCross, algebra.OpElem, algebra.OpAttrC:
		return 2
	default:
		return 1
	}
}

func checkArity(w *walker, o *algebra.Op) []Diag {
	var diags []Diag
	if want := arityOf(o.Kind); len(o.In) != want {
		diags = append(diags, Diag{Class: "structure", Op: w.name(o),
			Msg: fmt.Sprintf("has %d input(s), %s takes %d", len(o.In), o.Kind, want)})
	}
	for i, in := range o.In {
		if in == nil {
			diags = append(diags, Diag{Class: "structure", Op: w.name(o),
				Msg: fmt.Sprintf("input %d is nil", i)})
		}
	}
	return diags
}

// checkSchema recomputes o's output schema and verifies both the consumed
// columns and the declared schema.
func checkSchema(w *walker, o *algebra.Op) []Diag {
	var diags []Diag
	need := func(in int, cols ...string) {
		for _, c := range cols {
			if !hasCol(o.In[in].Schema(), c) {
				diags = append(diags, Diag{Class: "schema", Op: w.name(o),
					Msg: fmt.Sprintf("consumes column %q which input %d (%s) does not produce",
						c, in, schemaStr(o.In[in].Schema()))})
			}
		}
	}
	fresh := func(col string) {
		if hasCol(o.In[0].Schema(), col) {
			diags = append(diags, Diag{Class: "schema", Op: w.name(o),
				Msg: fmt.Sprintf("introduces column %q which the input already carries", col)})
		}
	}
	var want []string
	switch o.Kind {
	case algebra.OpLit:
		if o.Lit == nil {
			diags = append(diags, Diag{Class: "structure", Op: w.name(o), Msg: "nil literal table"})
			return diags
		}
		want = o.Lit.Cols()
	case algebra.OpProject:
		seen := make(map[string]bool, len(o.Proj))
		for _, p := range o.Proj {
			need(0, p.Old)
			if seen[p.New] {
				diags = append(diags, Diag{Class: "schema", Op: w.name(o),
					Msg: fmt.Sprintf("duplicate output column %q", p.New)})
			}
			seen[p.New] = true
			want = append(want, p.New)
		}
	case algebra.OpSelect:
		need(0, o.Col)
		want = o.In[0].Schema()
	case algebra.OpUnion:
		l, r := o.In[0].Schema(), o.In[1].Schema()
		if len(l) != len(r) {
			diags = append(diags, Diag{Class: "schema", Op: w.name(o),
				Msg: fmt.Sprintf("input schemas differ in width: %s vs %s", schemaStr(l), schemaStr(r))})
		}
		for _, c := range l {
			if !hasCol(r, c) {
				diags = append(diags, Diag{Class: "schema", Op: w.name(o),
					Msg: fmt.Sprintf("right input lacks column %q", c)})
			}
		}
		want = l
	case algebra.OpDiff, algebra.OpSemiJoin:
		diags = append(diags, checkKeys(w, o)...)
		want = o.In[0].Schema()
	case algebra.OpJoin, algebra.OpCross:
		if o.Kind == algebra.OpJoin {
			diags = append(diags, checkKeys(w, o)...)
		}
		for _, c := range o.In[1].Schema() {
			if hasCol(o.In[0].Schema(), c) {
				diags = append(diags, Diag{Class: "schema", Op: w.name(o),
					Msg: fmt.Sprintf("column %q appears on both sides", c)})
			}
		}
		want = append(append([]string{}, o.In[0].Schema()...), o.In[1].Schema()...)
	case algebra.OpDistinct:
		want = o.In[0].Schema()
	case algebra.OpRowNum:
		for _, s := range o.Order {
			need(0, s.Col)
		}
		if o.Part != "" {
			need(0, o.Part)
		}
		fresh(o.Col)
		want = append(append([]string{}, o.In[0].Schema()...), o.Col)
	case algebra.OpRowID:
		fresh(o.Col)
		want = append(append([]string{}, o.In[0].Schema()...), o.Col)
	case algebra.OpFun:
		need(0, o.Args...)
		fresh(o.Col)
		if len(o.Args) != o.Fun.Arity() {
			diags = append(diags, Diag{Class: "structure", Op: w.name(o),
				Msg: fmt.Sprintf("⊛%s has %d argument(s), wants %d", o.Fun, len(o.Args), o.Fun.Arity())})
		}
		want = append(append([]string{}, o.In[0].Schema()...), o.Col)
	case algebra.OpAggr:
		need(0, o.Args...)
		if o.Part != "" {
			need(0, o.Part)
			want = []string{o.Part, o.Col}
		} else {
			want = []string{o.Col}
		}
	case algebra.OpStep:
		need(0, "iter", "item")
		want = []string{"iter", "item"}
	case algebra.OpDoc, algebra.OpRoots:
		need(0, "iter", "item")
		want = o.In[0].Schema()
	case algebra.OpText:
		need(0, "iter", "item")
		want = []string{"iter", "item"}
	case algebra.OpColl:
		need(0, "iter", "item")
		want = []string{"iter", "pos", "item"}
	case algebra.OpRange:
		if len(o.KeyL) != 2 {
			diags = append(diags, Diag{Class: "structure", Op: w.name(o),
				Msg: fmt.Sprintf("range carries %d bound column(s), wants 2", len(o.KeyL))})
		} else {
			need(0, "iter", o.KeyL[0], o.KeyL[1])
		}
		want = []string{"iter", "pos", "item"}
	case algebra.OpElem:
		need(0, "iter", "item")
		if !hasCol(o.In[1].Schema(), "iter") || !hasCol(o.In[1].Schema(), "pos") || !hasCol(o.In[1].Schema(), "item") {
			diags = append(diags, Diag{Class: "schema", Op: w.name(o),
				Msg: fmt.Sprintf("content input lacks iter|pos|item (has %s)", schemaStr(o.In[1].Schema()))})
		}
		want = []string{"iter", "item"}
	case algebra.OpAttrC:
		need(0, "iter", "item")
		if !hasCol(o.In[1].Schema(), "iter") || !hasCol(o.In[1].Schema(), "item") {
			diags = append(diags, Diag{Class: "schema", Op: w.name(o),
				Msg: fmt.Sprintf("value input lacks iter|item (has %s)", schemaStr(o.In[1].Schema()))})
		}
		want = []string{"iter", "item"}
	default:
		diags = append(diags, Diag{Class: "structure", Op: w.name(o),
			Msg: fmt.Sprintf("unknown operator kind %d", o.Kind)})
		return diags
	}
	if !equalSchemas(o.Schema(), want) {
		diags = append(diags, Diag{Class: "schema", Op: w.name(o),
			Msg: fmt.Sprintf("declares schema %s but computes %s", schemaStr(o.Schema()), schemaStr(want))})
	}
	return diags
}

func checkKeys(w *walker, o *algebra.Op) []Diag {
	var diags []Diag
	if len(o.KeyL) != len(o.KeyR) || len(o.KeyL) == 0 {
		diags = append(diags, Diag{Class: "structure", Op: w.name(o),
			Msg: fmt.Sprintf("key lists %v and %v do not pair up", o.KeyL, o.KeyR)})
		return diags
	}
	for i := range o.KeyL {
		if !hasCol(o.In[0].Schema(), o.KeyL[i]) {
			diags = append(diags, Diag{Class: "schema", Op: w.name(o),
				Msg: fmt.Sprintf("left key %q missing from %s", o.KeyL[i], schemaStr(o.In[0].Schema()))})
		}
		if !hasCol(o.In[1].Schema(), o.KeyR[i]) {
			diags = append(diags, Diag{Class: "schema", Op: w.name(o),
				Msg: fmt.Sprintf("right key %q missing from %s", o.KeyR[i], schemaStr(o.In[1].Schema()))})
		}
	}
	return diags
}

func hasCol(schema []string, col string) bool {
	for _, c := range schema {
		if c == col {
			return true
		}
	}
	return false
}

func equalSchemas(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func schemaStr(s []string) string {
	if len(s) == 0 {
		return "(empty)"
	}
	return strings.Join(s, "|")
}

// Type pass -------------------------------------------------------------------

// colKind is the validator's abstract column type: a physical bat.ColType
// when statically known, kindUnknown otherwise. TItem is "any" — a
// polymorphic column can hold every kind, so it never contradicts a
// consumer. The pass only flags definite contradictions (a σ over a
// column proven integer, fn:root over proven strings), never possibles.
type colKind uint8

const (
	kindUnknown colKind = iota
	kindInt
	kindFloat
	kindStr
	kindBool
	kindNode
	kindAny // TItem: polymorphic, compatible with everything
)

func (k colKind) String() string {
	switch k {
	case kindInt:
		return "int"
	case kindFloat:
		return "dbl"
	case kindStr:
		return "str"
	case kindBool:
		return "bit"
	case kindNode:
		return "node"
	case kindAny:
		return "item"
	}
	return "unknown"
}

func kindOfVec(v bat.Vec) colKind {
	switch v.Type() {
	case bat.TInt:
		return kindInt
	case bat.TFloat:
		return kindFloat
	case bat.TStr:
		return kindStr
	case bat.TBool:
		return kindBool
	case bat.TNode:
		return kindNode
	default:
		return kindAny
	}
}

// kindSet maps column names to kinds. It has as many entries as an
// operator has columns, so it is kept as a slice: a map per operator
// would cost more than the pass.
type kindSet []colEntry

type colEntry struct {
	col  string
	kind colKind
}

// of returns col's kind, kindUnknown when the set has none.
func (s kindSet) of(col string) colKind {
	for _, e := range s {
		if e.col == col {
			return e.kind
		}
	}
	return kindUnknown
}

func (s *kindSet) set(col string, k colKind) {
	for i := range *s {
		if (*s)[i].col == col {
			(*s)[i].kind = k
			return
		}
	}
	*s = append(*s, colEntry{col, k})
}

// extend sets every entry of from.
func (s *kindSet) extend(from kindSet) {
	for _, e := range from {
		s.set(e.col, e.kind)
	}
}

type typePass struct {
	w    *walker
	memo map[*algebra.Op]kindSet
}

func newTypePass(w *walker) *typePass {
	return &typePass{w: w, memo: make(map[*algebra.Op]kindSet, len(w.order))}
}

func (tp *typePass) kinds(o *algebra.Op) kindSet {
	if m, ok := tp.memo[o]; ok {
		return m
	}
	m := tp.compute(o)
	tp.memo[o] = m
	return m
}

func (tp *typePass) compute(o *algebra.Op) kindSet {
	out := make(kindSet, 0, len(o.Schema()))
	in := func(i int) kindSet {
		if i < len(o.In) && o.In[i] != nil {
			return tp.kinds(o.In[i])
		}
		return nil
	}
	switch o.Kind {
	case algebra.OpLit:
		if o.Lit != nil {
			for _, c := range o.Lit.Cols() {
				out.set(c, kindOfVec(o.Lit.MustCol(c)))
			}
		}
	case algebra.OpProject:
		child := in(0)
		for _, p := range o.Proj {
			out.set(p.New, child.of(p.Old))
		}
	case algebra.OpSelect, algebra.OpDistinct, algebra.OpSemiJoin, algebra.OpDiff:
		out.extend(in(0))
	case algebra.OpJoin, algebra.OpCross:
		out.extend(in(0))
		out.extend(in(1))
	case algebra.OpUnion:
		l, r := in(0), in(1)
		for _, e := range l {
			if r.of(e.col) == e.kind {
				out.set(e.col, e.kind)
			} else {
				out.set(e.col, kindAny) // concat of mixed types materializes items
			}
		}
	case algebra.OpRowNum, algebra.OpRowID:
		out.extend(in(0))
		out.set(o.Col, kindInt)
	case algebra.OpFun:
		out.extend(in(0))
		out.set(o.Col, kindUnknown) // per-fun result typing stays runtime's job
	case algebra.OpAggr:
		if o.Part != "" {
			out.set(o.Part, in(0).of(o.Part))
		}
		switch o.Agg {
		case algebra.AggCount:
			out.set(o.Col, kindInt)
		case algebra.AggStrJoin:
			out.set(o.Col, kindStr)
		default:
			out.set(o.Col, kindUnknown)
		}
	case algebra.OpStep:
		out.set("iter", in(0).of("iter"))
		out.set("item", kindNode)
	case algebra.OpDoc, algebra.OpRoots:
		out.extend(in(0))
		out.set("item", kindNode)
	case algebra.OpElem, algebra.OpAttrC:
		out.set("iter", in(0).of("iter"))
		out.set("item", kindNode)
	case algebra.OpText:
		out.set("iter", in(0).of("iter"))
		out.set("item", kindNode)
	case algebra.OpRange:
		out.set("iter", in(0).of("iter"))
		out.set("pos", kindInt)
		out.set("item", kindInt)
	case algebra.OpColl:
		out.set("iter", in(0).of("iter"))
		out.set("pos", kindInt)
		out.set("item", kindNode)
	}
	return out
}

// check flags consumptions that contradict the inferred producer kind.
func (tp *typePass) check(o *algebra.Op) []Diag {
	var diags []Diag
	flag := func(col string, got colKind, wants string) {
		diags = append(diags, Diag{Class: "type", Op: tp.w.name(o),
			Msg: fmt.Sprintf("consumes column %q as %s but upstream produces %s", col, wants, got)})
	}
	definite := func(k colKind) bool { return k != kindUnknown && k != kindAny }
	switch o.Kind {
	case algebra.OpSelect:
		if k := tp.kinds(o.In[0]).of(o.Col); definite(k) && k != kindBool {
			flag(o.Col, k, "boolean")
		}
	case algebra.OpStep, algebra.OpRoots:
		if k := tp.kinds(o.In[0]).of("item"); definite(k) && k != kindNode {
			flag("item", k, "node")
		}
	case algebra.OpDoc:
		if k := tp.kinds(o.In[0]).of("item"); definite(k) && k != kindStr {
			flag("item", k, "string URI")
		}
	case algebra.OpColl:
		if k := tp.kinds(o.In[0]).of("item"); definite(k) && k != kindStr {
			flag("item", k, "collection name string")
		}
	case algebra.OpAggr:
		if len(o.Args) > 0 {
			k := tp.kinds(o.In[0]).of(o.Args[0])
			if k == kindNode {
				flag(o.Args[0], k, "atomized value")
			}
			if o.Agg != algebra.AggStrJoin && (k == kindStr || k == kindBool) {
				flag(o.Args[0], k, "numeric")
			}
		}
	case algebra.OpRange:
		if len(o.KeyL) == 2 {
			for _, c := range o.KeyL {
				if k := tp.kinds(o.In[0]).of(c); definite(k) && k != kindInt && k != kindFloat {
					flag(c, k, "integer bound")
				}
			}
		}
	}
	return diags
}
