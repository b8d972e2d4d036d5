package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

func must(o *algebra.Op, err error) *algebra.Op {
	if err != nil {
		panic(err)
	}
	return o
}

func newEngine(t *testing.T) *Engine {
	t.Helper()
	return New(xenc.NewStore())
}

func evalOn(t *testing.T, e *Engine, o *algebra.Op) *bat.Table {
	t.Helper()
	tb, err := e.Eval(o)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func ints(t *testing.T, tb *bat.Table, col string) []int64 {
	t.Helper()
	v, err := tb.Col(col)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, v.Len())
	for i := range out {
		out[i] = v.ItemAt(i).I
	}
	return out
}

func eqInts(a []int64, b ...int64) bool {
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

func TestProjectSelectFun(t *testing.T) {
	e := newEngine(t)
	lit := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 2, 3},
		"item", bat.ItemVec{bat.Int(5), bat.Int(10), bat.Int(15)},
	))
	ten := must(algebra.Fun(
		must(algebra.Cross(lit, algebra.Lit(bat.MustTable("c", bat.ItemVec{bat.Int(10)})))),
		"big", algebra.FunGt, "item", "c"))
	sel := must(algebra.Select(ten, "big"))
	out := evalOn(t, e, must(algebra.Project(sel, "iter")))
	if !eqInts(ints(t, out, "iter"), 3) {
		t.Errorf("rows = %v", ints(t, out, "iter"))
	}
}

func TestSelectRejectsNonBool(t *testing.T) {
	e := newEngine(t)
	lit := algebra.Lit(bat.MustTable("x", bat.ItemVec{bat.Int(1)}))
	if _, err := e.Eval(must(algebra.Select(lit, "x"))); err == nil {
		t.Error("σ over ints must fail")
	}
}

func TestUnionConcatsAndReorders(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable("a", bat.IntVec{1}, "b", bat.StrVec{"x"}))
	r := algebra.Lit(bat.MustTable("b", bat.StrVec{"y"}, "a", bat.IntVec{2}))
	out := evalOn(t, e, must(algebra.Union(l, r)))
	if !eqInts(ints(t, out, "a"), 1, 2) {
		t.Errorf("a = %v", ints(t, out, "a"))
	}
	if out.MustCol("b").ItemAt(1).S != "y" {
		t.Error("b reorder failed")
	}
}

func TestUnionMixedColumnTypes(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable("v", bat.IntVec{1}))
	r := algebra.Lit(bat.MustTable("v", bat.ItemVec{bat.Str("s")}))
	out := evalOn(t, e, must(algebra.Union(l, r)))
	if out.MustCol("v").ItemAt(0).I != 1 || out.MustCol("v").ItemAt(1).S != "s" {
		t.Error("mixed union content")
	}
}

func TestDiffAntiJoin(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable("iter", bat.IntVec{1, 2, 3, 4}))
	r := algebra.Lit(bat.MustTable("o", bat.IntVec{2, 4}))
	out := evalOn(t, e, must(algebra.Diff(l, r, []string{"iter"}, []string{"o"})))
	if !eqInts(ints(t, out, "iter"), 1, 3) {
		t.Errorf("diff = %v", ints(t, out, "iter"))
	}
}

func TestDistinct(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"a", bat.IntVec{1, 1, 2, 1},
		"b", bat.ItemVec{bat.Str("x"), bat.Str("x"), bat.Str("x"), bat.Str("y")},
	))
	out := evalOn(t, e, algebra.Distinct(l))
	if out.Rows() != 3 {
		t.Errorf("distinct rows = %d", out.Rows())
	}
	// First occurrence kept: order 1x, 2x, 1y.
	if !eqInts(ints(t, out, "a"), 1, 2, 1) {
		t.Errorf("order = %v", ints(t, out, "a"))
	}
}

func TestJoinMatchesAndSemiJoin(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 2, 3},
		"v", bat.ItemVec{bat.Str("a"), bat.Str("b"), bat.Str("a")},
	))
	r := algebra.Lit(bat.MustTable(
		"w", bat.ItemVec{bat.Str("a"), bat.Str("a")},
		"tag", bat.IntVec{10, 20},
	))
	out := evalOn(t, e, must(algebra.Join(l, r, []string{"v"}, []string{"w"})))
	// iter 1 and 3 each match both right rows → 4 rows, left-major order.
	if !eqInts(ints(t, out, "iter"), 1, 1, 3, 3) {
		t.Errorf("join iters = %v", ints(t, out, "iter"))
	}
	if !eqInts(ints(t, out, "tag"), 10, 20, 10, 20) {
		t.Errorf("join tags = %v", ints(t, out, "tag"))
	}
	semi := evalOn(t, e, must(algebra.SemiJoin(l, r, []string{"v"}, []string{"w"})))
	if !eqInts(ints(t, semi, "iter"), 1, 3) {
		t.Errorf("semijoin iters = %v", ints(t, semi, "iter"))
	}
}

func TestJoinNumericPromotionAcrossKeys(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable("k", bat.ItemVec{bat.Int(5)}, "lx", bat.IntVec{1}))
	r := algebra.Lit(bat.MustTable("j", bat.ItemVec{bat.Float(5)}, "rx", bat.IntVec{2}))
	out := evalOn(t, e, must(algebra.Join(l, r, []string{"k"}, []string{"j"})))
	if out.Rows() != 1 {
		t.Error("5 must join with 5.0")
	}
}

func TestCrossOrder(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable("a", bat.IntVec{1, 2}))
	r := algebra.Lit(bat.MustTable("b", bat.IntVec{10, 20}))
	out := evalOn(t, e, must(algebra.Cross(l, r)))
	if !eqInts(ints(t, out, "a"), 1, 1, 2, 2) || !eqInts(ints(t, out, "b"), 10, 20, 10, 20) {
		t.Error("cross must be left-major")
	}
}

func TestRowNumPartitionedOrdered(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{2, 1, 2, 1},
		"key", bat.IntVec{9, 5, 3, 7},
	))
	out := evalOn(t, e, must(algebra.RowNum(l, "pos",
		[]algebra.OrderSpec{{Col: "key"}}, "iter")))
	// Sorted by (iter, key): (1,5)(1,7)(2,3)(2,9) numbered 1,2,1,2.
	if !eqInts(ints(t, out, "pos"), 1, 2, 1, 2) {
		t.Errorf("pos = %v", ints(t, out, "pos"))
	}
	if !eqInts(ints(t, out, "key"), 5, 7, 3, 9) {
		t.Errorf("key order = %v", ints(t, out, "key"))
	}
}

func TestRowNumDescending(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable("k", bat.IntVec{1, 3, 2}))
	out := evalOn(t, e, must(algebra.RowNum(l, "n",
		[]algebra.OrderSpec{{Col: "k", Desc: true}}, "")))
	if !eqInts(ints(t, out, "k"), 3, 2, 1) {
		t.Errorf("desc order = %v", ints(t, out, "k"))
	}
}

func TestRowIDMark(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable("k", bat.IntVec{7, 8, 9}))
	out := evalOn(t, e, must(algebra.RowID(l, "id")))
	if !eqInts(ints(t, out, "id"), 1, 2, 3) {
		t.Errorf("mark = %v", ints(t, out, "id"))
	}
}

func TestAggregates(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1, 2},
		"v", bat.ItemVec{bat.Int(4), bat.Int(6), bat.Int(10)},
	))
	cnt := evalOn(t, e, must(algebra.Aggr(l, "c", algebra.AggCount, "", "iter")))
	if !eqInts(ints(t, cnt, "c"), 2, 1) {
		t.Errorf("count = %v", ints(t, cnt, "c"))
	}
	sum := evalOn(t, e, must(algebra.Aggr(l, "s", algebra.AggSum, "v", "iter")))
	if !eqInts(ints(t, sum, "s"), 10, 10) {
		t.Errorf("sum = %v", ints(t, sum, "s"))
	}
	mx := evalOn(t, e, must(algebra.Aggr(l, "m", algebra.AggMax, "v", "")))
	if mx.Rows() != 1 || mx.MustCol("m").ItemAt(0).I != 10 {
		t.Error("global max")
	}
	avg := evalOn(t, e, must(algebra.Aggr(l, "a", algebra.AggAvg, "v", "")))
	if avg.MustCol("a").ItemAt(0).F != 20.0/3.0 {
		t.Error("avg")
	}
}

func TestAggregateSumPromotesUntyped(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1},
		"v", bat.ItemVec{bat.Untyped("1.5"), bat.Int(2)},
	))
	sum := evalOn(t, e, must(algebra.Aggr(l, "s", algebra.AggSum, "v", "iter")))
	if got := sum.MustCol("s").ItemAt(0).AsFloat(); got != 3.5 {
		t.Errorf("sum = %v", got)
	}
}

func TestAggregateErrors(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1},
		"v", bat.ItemVec{bat.Str("abc")},
	))
	if _, err := e.Eval(must(algebra.Aggr(l, "s", algebra.AggSum, "v", "iter"))); err == nil {
		t.Error("sum over non-numeric string must fail")
	}
}

func TestFunArithPromotion(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"a", bat.ItemVec{bat.Int(7), bat.Untyped("2.5"), bat.Int(7)},
		"b", bat.ItemVec{bat.Int(2), bat.Int(2), bat.Float(2)},
	))
	add := evalOn(t, e, must(algebra.Fun(l, "r", algebra.FunAdd, "a", "b")))
	r := add.MustCol("r")
	if r.ItemAt(0).Kind != bat.KInt || r.ItemAt(0).I != 9 {
		t.Error("int+int")
	}
	if r.ItemAt(1).Kind != bat.KFloat || r.ItemAt(1).F != 4.5 {
		t.Error("untyped promotes to double")
	}
	if r.ItemAt(2).Kind != bat.KFloat || r.ItemAt(2).F != 9 {
		t.Error("int+double is double")
	}
	div := evalOn(t, e, must(algebra.Fun(l, "q", algebra.FunDiv, "a", "b")))
	if div.MustCol("q").ItemAt(0).F != 3.5 {
		t.Error("div yields double")
	}
	idiv := evalOn(t, e, must(algebra.Fun(l, "i", algebra.FunIDiv, "a", "b")))
	if idiv.MustCol("i").ItemAt(0).I != 3 {
		t.Error("idiv truncates")
	}
	mod := evalOn(t, e, must(algebra.Fun(l, "m", algebra.FunMod, "a", "b")))
	if mod.MustCol("m").ItemAt(0).I != 1 {
		t.Error("mod")
	}
}

func TestFunDivByZero(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"a", bat.ItemVec{bat.Int(1)}, "b", bat.ItemVec{bat.Int(0)},
	))
	if _, err := e.Eval(must(algebra.Fun(l, "r", algebra.FunDiv, "a", "b"))); err == nil {
		t.Error("integer division by zero must fail")
	}
	if _, err := e.Eval(must(algebra.Fun(l, "r", algebra.FunIDiv, "a", "b"))); err == nil {
		t.Error("idiv by zero must fail")
	}
}

func TestFunStringsAndBooleans(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"a", bat.ItemVec{bat.Str("hello gold ring")},
		"b", bat.ItemVec{bat.Str("gold")},
		"t", bat.BoolVec{true},
		"f", bat.BoolVec{false},
	))
	c := evalOn(t, e, must(algebra.Fun(l, "r", algebra.FunContains, "a", "b")))
	if !c.MustCol("r").ItemAt(0).B {
		t.Error("contains")
	}
	sw := evalOn(t, e, must(algebra.Fun(l, "r", algebra.FunStartsWith, "a", "b")))
	if sw.MustCol("r").ItemAt(0).B {
		t.Error("starts-with")
	}
	cc := evalOn(t, e, must(algebra.Fun(l, "r", algebra.FunConcat, "a", "b")))
	if cc.MustCol("r").ItemAt(0).S != "hello gold ringgold" {
		t.Error("concat")
	}
	ln := evalOn(t, e, must(algebra.Fun(l, "r", algebra.FunStringLength, "a")))
	if ln.MustCol("r").ItemAt(0).I != 15 {
		t.Error("string-length")
	}
	and := evalOn(t, e, must(algebra.Fun(l, "r", algebra.FunAnd, "t", "f")))
	if and.MustCol("r").ItemAt(0).B {
		t.Error("and")
	}
	or := evalOn(t, e, must(algebra.Fun(l, "r", algebra.FunOr, "t", "f")))
	if !or.MustCol("r").ItemAt(0).B {
		t.Error("or")
	}
	not := evalOn(t, e, must(algebra.Fun(l, "r", algebra.FunNot, "f")))
	if !not.MustCol("r").ItemAt(0).B {
		t.Error("not")
	}
}

func TestFunComparisonErrorsPropagate(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"a", bat.ItemVec{bat.Str("x")}, "b", bat.ItemVec{bat.Int(1)},
	))
	if _, err := e.Eval(must(algebra.Fun(l, "r", algebra.FunLt, "a", "b"))); err == nil {
		t.Error("incomparable types must fail the query")
	}
}

func TestFunNodePrimitives(t *testing.T) {
	e := newEngine(t)
	doc, err := e.Store.LoadDocumentString("d.xml", "<a><b>1</b><c>2</c></a>")
	if err != nil {
		t.Fatal(err)
	}
	b := bat.NodeRef{Frag: doc.Frag, Pre: 2}
	c := bat.NodeRef{Frag: doc.Frag, Pre: 4}
	l := algebra.Lit(bat.MustTable(
		"x", bat.NodeVec{b, b},
		"y", bat.NodeVec{c, b},
	))
	before := evalOn(t, e, must(algebra.Fun(l, "r", algebra.FunDocBefore, "x", "y")))
	if !before.MustCol("r").ItemAt(0).B || before.MustCol("r").ItemAt(1).B {
		t.Error("<<")
	}
	is := evalOn(t, e, must(algebra.Fun(l, "r", algebra.FunNodeIs, "x", "y")))
	if is.MustCol("r").ItemAt(0).B || !is.MustCol("r").ItemAt(1).B {
		t.Error("is")
	}
	at := evalOn(t, e, must(algebra.Fun(l, "r", algebra.FunAtomize, "x")))
	got := at.MustCol("r").ItemAt(0)
	if got.Kind != bat.KUntyped || got.S != "1" {
		t.Errorf("atomize = %v", got)
	}
}

func TestTypeTest(t *testing.T) {
	e := newEngine(t)
	doc, err := e.Store.LoadDocumentString("d.xml", "<a>t</a>")
	if err != nil {
		t.Fatal(err)
	}
	elemRef := bat.NodeRef{Frag: doc.Frag, Pre: 1}
	textRef := bat.NodeRef{Frag: doc.Frag, Pre: 2}
	l := algebra.Lit(bat.MustTable("v", bat.ItemVec{
		bat.Node(elemRef), bat.Node(textRef), bat.Int(1), bat.Str("s"), bat.Bool(true), bat.Untyped("u"),
	}))
	check := func(ty algebra.SeqType, name string, want ...bool) {
		t.Helper()
		o := must(algebra.TypeTest(l, "r", ty, name, "v"))
		out := evalOn(t, e, o)
		for i, w := range want {
			if out.MustCol("r").ItemAt(i).B != w {
				t.Errorf("%s[%d] = %v, want %v", ty, i, !w, w)
			}
		}
	}
	check(algebra.TyNode, "", true, true, false, false, false, false)
	check(algebra.TyElem, "", true, false, false, false, false, false)
	check(algebra.TyElem, "a", true, false, false, false, false, false)
	check(algebra.TyElem, "b", false, false, false, false, false, false)
	check(algebra.TyText, "", false, true, false, false, false, false)
	check(algebra.TyInteger, "", false, false, true, false, false, false)
	check(algebra.TyString, "", false, false, false, true, false, false)
	check(algebra.TyBoolean, "", false, false, false, false, true, false)
	check(algebra.TyUntyped, "", false, false, false, false, false, true)
	check(algebra.TyAtomic, "", false, false, true, true, true, true)
	check(algebra.TyItem, "", true, true, true, true, true, true)
}

func TestDocOpAndResolver(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Store.LoadDocumentString("a.xml", "<r/>"); err != nil {
		t.Fatal(err)
	}
	l := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1},
		"item", bat.ItemVec{bat.Str("a.xml")},
	))
	out := evalOn(t, e, must(algebra.DocOp(l)))
	if out.MustCol("item").ItemAt(0).N.Pre != 0 {
		t.Error("doc node expected")
	}
	// Missing doc without resolver errors.
	l2 := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1},
		"item", bat.ItemVec{bat.Str("missing.xml")},
	))
	if _, err := e.Eval(must(algebra.DocOp(l2))); err == nil {
		t.Error("missing doc must fail")
	}
	// With resolver, it loads.
	e.Resolve = func(s *xenc.Store, uri string) (bat.NodeRef, error) {
		return s.LoadDocumentString(uri, "<loaded/>")
	}
	out2 := evalOn(t, e, must(algebra.DocOp(l2)))
	if e.Store.NameOf(bat.NodeRef{Frag: out2.MustCol("item").ItemAt(0).N.Frag, Pre: 1}) != "loaded" {
		t.Error("resolver load failed")
	}
}

func TestRootsOp(t *testing.T) {
	e := newEngine(t)
	doc, err := e.Store.LoadDocumentString("d.xml", "<a><b/></a>")
	if err != nil {
		t.Fatal(err)
	}
	l := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1},
		"item", bat.NodeVec{{Frag: doc.Frag, Pre: 2}},
	))
	out := evalOn(t, e, must(algebra.Roots(l)))
	if out.MustCol("item").ItemAt(0).N.Pre != 0 {
		t.Error("root of <b> is the doc node")
	}
}

func TestElemConstruction(t *testing.T) {
	e := newEngine(t)
	doc, err := e.Store.LoadDocumentString("d.xml", "<x><y>inner</y></x>")
	if err != nil {
		t.Fatal(err)
	}
	names := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 2},
		"item", bat.StrVec{"wrap", "wrap"},
	))
	content := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1, 2},
		"pos", bat.IntVec{1, 2, 1},
		"item", bat.ItemVec{
			bat.Int(42), bat.Node(bat.NodeRef{Frag: doc.Frag, Pre: 2}),
			bat.Str("only"),
		},
	))
	out := evalOn(t, e, must(algebra.Elem(names, content)))
	if out.Rows() != 2 {
		t.Fatalf("rows = %d", out.Rows())
	}
	got1 := e.Store.Serialize(out.MustCol("item").ItemAt(0).N)
	if got1 != "<wrap>42<y>inner</y></wrap>" {
		t.Errorf("elem 1 = %q", got1)
	}
	got2 := e.Store.Serialize(out.MustCol("item").ItemAt(1).N)
	if got2 != "<wrap>only</wrap>" {
		t.Errorf("elem 2 = %q", got2)
	}
}

func TestElemAdjacentAtomicsSpaceJoined(t *testing.T) {
	e := newEngine(t)
	names := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1}, "item", bat.StrVec{"r"},
	))
	content := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1, 1},
		"pos", bat.IntVec{1, 2, 3},
		"item", bat.ItemVec{bat.Int(1), bat.Int(2), bat.Str("three")},
	))
	out := evalOn(t, e, must(algebra.Elem(names, content)))
	got := e.Store.Serialize(out.MustCol("item").ItemAt(0).N)
	if got != "<r>1 2 three</r>" {
		t.Errorf("got %q", got)
	}
}

func TestElemWithConstructedAttribute(t *testing.T) {
	e := newEngine(t)
	aNames := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1}, "item", bat.StrVec{"id"},
	))
	aVals := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1}, "item", bat.ItemVec{bat.Int(7)},
	))
	attr := must(algebra.AttrC(aNames, aVals))
	withPos := must(algebra.RowID(attr, "pos"))
	names := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1}, "item", bat.StrVec{"e"},
	))
	out := evalOn(t, e, must(algebra.Elem(names, withPos)))
	got := e.Store.Serialize(out.MustCol("item").ItemAt(0).N)
	if got != `<e id="7"/>` {
		t.Errorf("got %q", got)
	}
}

func TestElemErrors(t *testing.T) {
	e := newEngine(t)
	names := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1}, "item", bat.StrVec{"a", "b"},
	))
	empty := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{}, "pos", bat.IntVec{}, "item", bat.ItemVec{},
	))
	if _, err := e.Eval(must(algebra.Elem(names, empty))); err == nil {
		t.Error("duplicate qname iter must fail")
	}
	orphan := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{5}, "pos", bat.IntVec{1}, "item", bat.ItemVec{bat.Int(1)},
	))
	one := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{7}, "item", bat.StrVec{"a"},
	))
	if _, err := e.Eval(must(algebra.Elem(one, orphan))); err == nil {
		t.Error("content without matching qname iter must fail")
	}
}

func TestTextConstruction(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 2},
		"item", bat.ItemVec{bat.Str("hello"), bat.Str("")},
	))
	out := evalOn(t, e, must(algebra.Text(l)))
	if out.Rows() != 1 {
		t.Fatalf("empty text must construct no node; rows = %d", out.Rows())
	}
	n := out.MustCol("item").ItemAt(0).N
	if e.Store.StringValue(n) != "hello" || e.Store.KindOf(n) != xenc.KindText {
		t.Error("text node content")
	}
}

func TestMemoizationSharesSubplans(t *testing.T) {
	e := newEngine(t)
	// A shared literal feeding both sides of a join must evaluate once;
	// verify via identical result tables (pointer equality through memo).
	shared := algebra.Lit(bat.MustTable("iter", bat.IntVec{1, 2}))
	a := must(algebra.Project(shared, "x:iter"))
	b := must(algebra.Project(shared, "y:iter"))
	j := must(algebra.Join(a, b, []string{"x"}, []string{"y"}))
	out := evalOn(t, e, j)
	if out.Rows() != 2 {
		t.Errorf("rows = %d", out.Rows())
	}
}

func TestSerializeResultEncoding(t *testing.T) {
	// The post-processor contract: a result table iter|pos|item sorted by
	// (iter,pos) serializes per iter. Exercised end-to-end in serialize
	// package; here we check the engine leaves (iter,pos) intact through
	// a rownum round trip.
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1, 2},
		"v", bat.ItemVec{bat.Int(10), bat.Int(5), bat.Int(3)},
	))
	rn := must(algebra.RowNum(l, "pos", []algebra.OrderSpec{{Col: "v"}}, "iter"))
	out := evalOn(t, e, rn)
	if !eqInts(ints(t, out, "pos"), 1, 2, 1) {
		t.Errorf("pos = %v", ints(t, out, "pos"))
	}
	if !eqInts(ints(t, out, "v"), 5, 10, 3) {
		t.Errorf("v = %v", ints(t, out, "v"))
	}
}

func TestRangeOp(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 2, 3},
		"lo", bat.IntVec{1, 5, 4},
		"hi", bat.IntVec{3, 5, 2}, // iter 3 is an empty range
	))
	out := evalOn(t, e, must(algebra.Range(l, "lo", "hi")))
	if !eqInts(ints(t, out, "iter"), 1, 1, 1, 2) {
		t.Errorf("iters = %v", ints(t, out, "iter"))
	}
	if !eqInts(ints(t, out, "item"), 1, 2, 3, 5) {
		t.Errorf("items = %v", ints(t, out, "item"))
	}
	if !eqInts(ints(t, out, "pos"), 1, 2, 3, 1) {
		t.Errorf("pos = %v", ints(t, out, "pos"))
	}
	// Non-integer bounds fail.
	bad := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1},
		"lo", bat.ItemVec{bat.Str("x")},
		"hi", bat.IntVec{3},
	))
	if _, err := e.Eval(must(algebra.Range(bad, "lo", "hi"))); err == nil {
		t.Error("non-integer bounds must fail")
	}
}

func TestSubstringFun(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"s", bat.ItemVec{bat.Str("motor car"), bat.Str("metadata"), bat.Str("12345")},
		"start", bat.ItemVec{bat.Int(6), bat.Int(4), bat.Float(1.5)},
		"len", bat.ItemVec{bat.Int(100), bat.Int(3), bat.Float(2.6)},
	))
	two := evalOn(t, e, must(algebra.Fun(l, "r", algebra.FunSubstring, "s", "start")))
	if two.MustCol("r").ItemAt(0).S != " car" {
		t.Errorf("substring 2-arg = %q", two.MustCol("r").ItemAt(0).S)
	}
	three := evalOn(t, e, must(algebra.Fun(l, "r", algebra.FunSubstring3, "s", "start", "len")))
	if got := three.MustCol("r").ItemAt(1).S; got != "ada" {
		t.Errorf("substring 3-arg = %q", got)
	}
	// Fractional positions round per the spec: substring("12345", 1.5, 2.6) = "234".
	if got := three.MustCol("r").ItemAt(2).S; got != "234" {
		t.Errorf("fractional substring = %q", got)
	}
}

func TestNameOfFun(t *testing.T) {
	e := newEngine(t)
	doc, err := e.Store.LoadDocumentString("d.xml", `<root attr="v"><child/></root>`)
	if err != nil {
		t.Fatal(err)
	}
	f := e.Store.Frag(doc.Frag)
	lo, _ := f.Attrs(1)
	l := algebra.Lit(bat.MustTable("n", bat.NodeVec{
		{Frag: doc.Frag, Pre: 1},
		{Frag: doc.Frag, Pre: 2},
		{Frag: doc.Frag, Pre: xenc.AttrBase + lo},
	}))
	out := evalOn(t, e, must(algebra.Fun(l, "r", algebra.FunNameOf, "n")))
	r := out.MustCol("r")
	if r.ItemAt(0).S != "root" || r.ItemAt(1).S != "child" || r.ItemAt(2).S != "attr" {
		t.Errorf("names = %q %q %q", r.ItemAt(0).S, r.ItemAt(1).S, r.ItemAt(2).S)
	}
	atomic := algebra.Lit(bat.MustTable("n", bat.ItemVec{bat.Int(1)}))
	if _, err := e.Eval(must(algebra.Fun(atomic, "r", algebra.FunNameOf, "n"))); err == nil {
		t.Error("fn:name over atomic must fail")
	}
}

func TestRowNumSortedFastPathCorrectness(t *testing.T) {
	e := newEngine(t)
	// Already-sorted input takes the no-sort path; result must be
	// identical to the general path.
	sorted := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1, 2, 2},
		"k", bat.IntVec{1, 2, 1, 3},
	))
	out := evalOn(t, e, must(algebra.RowNum(sorted, "n",
		[]algebra.OrderSpec{{Col: "k"}}, "iter")))
	if !eqInts(ints(t, out, "n"), 1, 2, 1, 2) {
		t.Errorf("fast path numbering = %v", ints(t, out, "n"))
	}
}

// tracedKernel evaluates root traced and returns its result and the
// kernel that ran for it.
func tracedKernel(t *testing.T, e *Engine, root *algebra.Op) (*bat.Table, string) {
	t.Helper()
	res, tr, err := e.EvalTrace(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	return res, tr.Stats[root].Kernel
}

// TestJoinKernelChosenAtRunTime: a single-key ⋈ / ⋉ merges when both int
// key columns ascend in view order — on identity views and on the
// selection views σ hands on — and hashes when one does not; both give
// the rows the hash kernel gives.
func TestJoinKernelChosenAtRunTime(t *testing.T) {
	e := newEngine(t)
	sortedL := algebra.Lit(bat.MustTable("k", bat.IntVec{1, 2, 2, 3}, "a", bat.IntVec{10, 20, 21, 30}))
	sortedR := algebra.Lit(bat.MustTable("j", bat.IntVec{2, 3, 3, 5}, "b", bat.IntVec{200, 300, 301, 500}))
	unsortedR := algebra.Lit(bat.MustTable("j", bat.IntVec{3, 2, 5, 3}, "b", bat.IntVec{300, 200, 500, 301}))
	// σ keeps rows 1..3 of the sorted left side: a selection view.
	ten := algebra.Lit(bat.MustTable("ten", bat.IntVec{10}))
	selL := must(algebra.Project(must(algebra.Select(must(algebra.Fun(must(algebra.Cross(sortedL, ten)), "big", algebra.FunGt, "a", "ten")), "big")), "k", "a"))
	for _, c := range []struct {
		name   string
		root   *algebra.Op
		kernel string
		a, b   []int64
	}{
		{"sorted ⋈ sorted", must(algebra.Join(sortedL, sortedR, []string{"k"}, []string{"j"})), "merge-join[int]",
			[]int64{20, 21, 30, 30}, []int64{200, 200, 300, 301}},
		{"selection ⋈ sorted", must(algebra.Join(selL, sortedR, []string{"k"}, []string{"j"})), "merge-join[int]",
			[]int64{20, 21, 30, 30}, []int64{200, 200, 300, 301}},
		{"sorted ⋈ unsorted", must(algebra.Join(sortedL, unsortedR, []string{"k"}, []string{"j"})), "hash-join[int]",
			[]int64{20, 21, 30, 30}, []int64{200, 200, 300, 301}},
		{"sorted ⋉ sorted", must(algebra.SemiJoin(sortedL, sortedR, []string{"k"}, []string{"j"})), "merge-semijoin[int]",
			[]int64{20, 21, 30}, nil},
		{"sorted ⋉ unsorted", must(algebra.SemiJoin(sortedL, unsortedR, []string{"k"}, []string{"j"})), "hash-semijoin[int]",
			[]int64{20, 21, 30}, nil},
	} {
		res, kernel := tracedKernel(t, e, c.root)
		if kernel != c.kernel {
			t.Errorf("%s ran %s, want %s", c.name, kernel, c.kernel)
		}
		if !eqInts(ints(t, res, "a"), c.a...) {
			t.Errorf("%s: a = %v, want %v", c.name, ints(t, res, "a"), c.a)
		}
		if c.b != nil && !eqInts(ints(t, res, "b"), c.b...) {
			t.Errorf("%s: b = %v, want %v", c.name, ints(t, res, "b"), c.b)
		}
	}
}

// TestRowNumKernelChosenAtRunTime: ϱ over rows already in its order —
// int or node keys — numbers them in the pass that checks the order, a
// dense partition column (every partition one row) numbers every row 1,
// and rows out of order are sorted first.
func TestRowNumKernelChosenAtRunTime(t *testing.T) {
	e := newEngine(t)
	sorted := algebra.Lit(bat.MustTable("iter", bat.IntVec{1, 1, 2, 2, 2}, "k", bat.IntVec{5, 7, 1, 2, 9}))
	res, kernel := tracedKernel(t, e, must(algebra.RowNum(sorted, "pos", []algebra.OrderSpec{{Col: "k"}}, "iter")))
	if kernel != "rownum[scan-sorted]" || !eqInts(ints(t, res, "pos"), 1, 2, 1, 2, 3) {
		t.Errorf("sorted input: %s numbered %v", kernel, ints(t, res, "pos"))
	}
	marked := must(algebra.RowID(algebra.Lit(bat.MustTable("item", bat.IntVec{7, 9, 8})), "inner"))
	res, kernel = tracedKernel(t, e, must(algebra.RowNum(marked, "pos", nil, "inner")))
	if kernel != "rownum[scan-sorted]" || !eqInts(ints(t, res, "pos"), 1, 1, 1) {
		t.Errorf("dense partition: %s numbered %v", kernel, ints(t, res, "pos"))
	}
	// Node keys in document order: the same pass, partitioned by iter.
	nodes := algebra.Lit(bat.MustTable("iter", bat.IntVec{1, 1, 2}, "item", bat.NodeVec{{Frag: 0, Pre: 4}, {Frag: 1, Pre: 2}, {Frag: 0, Pre: 1}}))
	res, kernel = tracedKernel(t, e, must(algebra.RowNum(nodes, "pos", []algebra.OrderSpec{{Col: "item"}}, "iter")))
	if kernel != "rownum[scan-sorted]" || !eqInts(ints(t, res, "pos"), 1, 2, 1) {
		t.Errorf("sorted node keys: %s numbered %v", kernel, ints(t, res, "pos"))
	}
	res, kernel = tracedKernel(t, e, must(algebra.RowNum(nodes, "pos", []algebra.OrderSpec{{Col: "item"}}, "")))
	if kernel == "rownum[scan-sorted]" || !eqInts(ints(t, res, "iter"), 2, 1, 1) {
		t.Errorf("unsorted node keys: %s put iter %v", kernel, ints(t, res, "iter"))
	}
	// Out of order at the last row: the sort takes over.
	late := algebra.Lit(bat.MustTable("k", bat.IntVec{1, 2, 3, 0}))
	res, kernel = tracedKernel(t, e, must(algebra.RowNum(late, "pos", []algebra.OrderSpec{{Col: "k"}}, "")))
	if kernel == "rownum[scan-sorted]" || !eqInts(ints(t, res, "k"), 0, 1, 2, 3) || !eqInts(ints(t, res, "pos"), 1, 2, 3, 4) {
		t.Errorf("unsorted input: %s gave k %v numbered %v", kernel, ints(t, res, "k"), ints(t, res, "pos"))
	}
}

// TestEvalTraced: a traced evaluation keeps every operator's result.
func TestEvalTraced(t *testing.T) {
	e := newEngine(t)
	lit := algebra.Lit(bat.MustTable("iter", bat.IntVec{1, 2, 3}))
	sel := must(algebra.Fun(
		must(algebra.Cross(lit, algebra.Lit(bat.MustTable("c", bat.IntVec{2})))),
		"big", algebra.FunGt, "iter", "c"))
	root := must(algebra.Select(sel, "big"))
	res, tr, err := e.EvalTrace(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	memo := tr.Tables
	if res.Rows() != 1 {
		t.Errorf("result rows = %d", res.Rows())
	}
	if len(memo) < 4 {
		t.Errorf("trace captured %d operators", len(memo))
	}
	if memo[lit].Rows() != 3 || memo[root].Rows() != 1 {
		t.Error("per-operator row counts wrong")
	}
	// Errors surface with the partial trace.
	bad := must(algebra.Select(lit, "iter")) // σ over ints
	if _, _, err := e.EvalTrace(context.Background(), bad); err == nil {
		t.Error("traced evaluation must propagate errors")
	}
}

func TestDiffOnNonIntKeys(t *testing.T) {
	e := newEngine(t)
	l := algebra.Lit(bat.MustTable(
		"k", bat.ItemVec{bat.Str("a"), bat.Str("b"), bat.Str("c")}))
	r := algebra.Lit(bat.MustTable("j", bat.ItemVec{bat.Str("b")}))
	out := evalOn(t, e, must(algebra.Diff(l, r, []string{"k"}, []string{"j"})))
	if out.Rows() != 2 {
		t.Errorf("string diff rows = %d", out.Rows())
	}
	// Mixed-typed keys go through the generic path too.
	l2 := algebra.Lit(bat.MustTable("k", bat.ItemVec{bat.Int(1), bat.Float(2)}))
	r2 := algebra.Lit(bat.MustTable("j", bat.IntVec{2}))
	out2 := evalOn(t, e, must(algebra.Diff(l2, r2, []string{"k"}, []string{"j"})))
	if out2.Rows() != 1 || out2.MustCol("k").ItemAt(0).I != 1 {
		t.Errorf("numeric-promoted diff: %v", out2)
	}
}

func TestArithErrorsAndEdgeCases(t *testing.T) {
	e := newEngine(t)
	mk := func(a, b bat.Item) *algebra.Op {
		return algebra.Lit(bat.MustTable("a", bat.ItemVec{a}, "b", bat.ItemVec{b}))
	}
	// mod by zero, float mod, neg variants.
	if _, err := e.Eval(must(algebra.Fun(mk(bat.Int(5), bat.Int(0)), "r", algebra.FunMod, "a", "b"))); err == nil {
		t.Error("mod by zero")
	}
	fm := evalOn(t, e, must(algebra.Fun(mk(bat.Float(5.5), bat.Float(2)), "r", algebra.FunMod, "a", "b")))
	if fm.MustCol("r").ItemAt(0).F != 1.5 {
		t.Error("float mod")
	}
	ng := evalOn(t, e, must(algebra.Fun(mk(bat.Float(2.5), bat.Int(0)), "r", algebra.FunNeg, "a")))
	if ng.MustCol("r").ItemAt(0).F != -2.5 {
		t.Error("neg float")
	}
	ngu := evalOn(t, e, must(algebra.Fun(mk(bat.Untyped("3"), bat.Int(0)), "r", algebra.FunNeg, "a")))
	if ngu.MustCol("r").ItemAt(0).F != -3 {
		t.Error("neg untyped")
	}
	if _, err := e.Eval(must(algebra.Fun(mk(bat.Bool(true), bat.Int(0)), "r", algebra.FunNeg, "a"))); err == nil {
		t.Error("neg bool must fail")
	}
	if _, err := e.Eval(must(algebra.Fun(mk(bat.Int(math.MinInt64), bat.Int(0)), "r", algebra.FunNeg, "a"))); err == nil ||
		!strings.Contains(err.Error(), "FOAR0002") {
		t.Errorf("neg MinInt64 must be FOAR0002, got %v", err)
	}
	if _, err := e.Eval(must(algebra.Fun(mk(bat.Str("x"), bat.Int(1)), "r", algebra.FunAdd, "a", "b"))); err == nil {
		t.Error("string arithmetic must fail")
	}
	// Node operands to boolean ops fail.
	if _, err := e.Eval(must(algebra.Fun(mk(bat.Int(1), bat.Int(1)), "r", algebra.FunAnd, "a", "b"))); err == nil {
		t.Error("and over ints must fail")
	}
	if _, err := e.Eval(must(algebra.Fun(mk(bat.Int(1), bat.Int(1)), "r", algebra.FunNot, "a"))); err == nil {
		t.Error("not over int must fail")
	}
	if _, err := e.Eval(must(algebra.Fun(mk(bat.Int(1), bat.Int(1)), "r", algebra.FunBoolWrap, "a"))); err == nil {
		t.Error("boolean() over int must fail")
	}
	if _, err := e.Eval(must(algebra.Fun(mk(bat.Int(1), bat.Int(1)), "r", algebra.FunDocBefore, "a", "b"))); err == nil {
		t.Error("<< over atomics must fail")
	}
	if _, err := e.Eval(must(algebra.Fun(mk(bat.Int(1), bat.Int(1)), "r", algebra.FunNodeIs, "a", "b"))); err == nil {
		t.Error("is over atomics must fail")
	}
}

func TestEbvItemFun(t *testing.T) {
	e := newEngine(t)
	doc, err := e.Store.LoadDocumentString("d.xml", "<a/>")
	if err != nil {
		t.Fatal(err)
	}
	l := algebra.Lit(bat.MustTable("v", bat.ItemVec{
		bat.Node(bat.NodeRef{Frag: doc.Frag, Pre: 1}),
		bat.Bool(false), bat.Int(0), bat.Int(7),
		bat.Float(0), bat.Float(1.5),
		bat.Str(""), bat.Str("x"), bat.Untyped(""),
	}))
	out := evalOn(t, e, must(algebra.Fun(l, "b", algebra.FunEbvItem, "v")))
	want := []bool{true, false, false, true, false, true, false, true, false}
	for i, w := range want {
		if out.MustCol("b").ItemAt(i).B != w {
			t.Errorf("ebv[%d] = %v, want %v", i, !w, w)
		}
	}
}

func TestAggregateMinMaxStrings(t *testing.T) {
	e := newEngine(t)
	// min/max over non-numeric items error (XQuery would compare strings;
	// the engine requires numerics per the sum/avg code path — both
	// engines agree, cf. navdom.aggregate).
	l := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1},
		"v", bat.ItemVec{bat.Str("b"), bat.Str("a")},
	))
	if _, err := e.Eval(must(algebra.Aggr(l, "m", algebra.AggMin, "v", "iter"))); err == nil {
		t.Error("min over strings must fail")
	}
	nodeIn := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1},
		"v", bat.ItemVec{bat.Node(bat.NodeRef{})},
	))
	if _, err := e.Eval(must(algebra.Aggr(nodeIn, "m", algebra.AggSum, "v", "iter"))); err == nil {
		t.Error("sum over nodes must fail")
	}
}

func TestFigure3LoopLiftingIntermediates(t *testing.T) {
	// Reproduces the paper's Figure 3 tables for
	// for $v in (10,20), $w in (100,200) return $v + $w
	// built directly in the algebra (the compiler test re-checks this via
	// compilation).
	e := newEngine(t)
	// (a) (10,20) in s0.
	q10 := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1},
		"pos", bat.IntVec{1, 2},
		"item", bat.ItemVec{bat.Int(10), bat.Int(20)},
	))
	// (b) $v in s1: ϱ inner over (iter,pos).
	rn := must(algebra.RowNum(q10, "inner", []algebra.OrderSpec{{Col: "iter"}, {Col: "pos"}}, ""))
	vS1 := evalOn(t, e, rn)
	if !eqInts(ints(t, vS1, "inner"), 1, 2) {
		t.Fatalf("s1 iters = %v", ints(t, vS1, "inner"))
	}
	// (100,200) lifted into s1 then into s2 analogous; spot-check (f) map
	// between s1 and s2 and final back-mapped result (g).
	q100 := algebra.Lit(bat.MustTable(
		"pos", bat.IntVec{1, 2},
		"item", bat.ItemVec{bat.Int(100), bat.Int(200)},
	))
	loop1 := must(algebra.Project(rn, "oiter:inner"))
	lifted := must(algebra.Cross(loop1, q100))
	rn2 := must(algebra.RowNum(lifted, "inner2",
		[]algebra.OrderSpec{{Col: "oiter"}, {Col: "pos"}}, ""))
	mapRel := evalOn(t, e, must(algebra.Project(rn2, "inner:inner2", "outer:oiter")))
	if !eqInts(ints(t, mapRel, "inner"), 1, 2, 3, 4) || !eqInts(ints(t, mapRel, "outer"), 1, 1, 2, 2) {
		t.Fatalf("map(s1,s2) mismatch: inner=%v outer=%v",
			ints(t, mapRel, "inner"), ints(t, mapRel, "outer"))
	}
	// (e) $v + $w in s2: $v lifted via map join, $w bound per inner2.
	vLift := must(algebra.Join(
		must(algebra.Project(rn, "viter:inner", "vitem:item")),
		must(algebra.Project(rn2, "inner2", "oiter", "witem:item")),
		[]string{"viter"}, []string{"oiter"}))
	sum := must(algebra.Fun(vLift, "res", algebra.FunAdd, "vitem", "witem"))
	out := evalOn(t, e, sum)
	got := map[int64]int64{}
	inner := ints(t, out, "inner2")
	for i, r := range ints(t, out, "res") {
		got[inner[i]] = r
	}
	want := map[int64]int64{1: 110, 2: 210, 3: 120, 4: 220}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("s2 iter %d: got %d want %d (figure 3(e))", k, got[k], v)
		}
	}
}
