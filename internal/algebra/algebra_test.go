package algebra

import (
	"slices"
	"strings"
	"testing"

	"pathfinder/internal/bat"
)

func litIterItem(t *testing.T) *Op {
	t.Helper()
	return Lit(bat.MustTable(
		"iter", bat.IntVec{1, 2},
		"item", bat.ItemVec{bat.Int(10), bat.Int(20)},
	))
}

func mustOp(o *Op, err error) *Op {
	if err != nil {
		panic(err)
	}
	return o
}

func TestLitSeqSchema(t *testing.T) {
	o := LitSeq(bat.Int(5), bat.Str("x"))
	if got := strings.Join(o.Schema(), "|"); got != "pos|item" {
		t.Errorf("schema = %s", got)
	}
	if o.Lit.Rows() != 2 {
		t.Errorf("rows = %d", o.Lit.Rows())
	}
}

func TestProjectValidation(t *testing.T) {
	in := litIterItem(t)
	p := mustOp(Project(in, "outer:iter", "item", "copy:item"))
	if got := strings.Join(p.Schema(), "|"); got != "outer|item|copy" {
		t.Errorf("schema = %s", got)
	}
	if _, err := Project(in, "missing"); err == nil {
		t.Error("missing source column must fail")
	}
	if _, err := Project(in, "iter", "iter"); err == nil {
		t.Error("duplicate output must fail")
	}
}

// π comes out in normal form: a π over a π is one π, and a π that keeps
// its input as it is, is the input.
func TestProjectNormalForm(t *testing.T) {
	in := litIterItem(t)
	if p := mustOp(Project(in, "iter", "item")); p != in {
		t.Errorf("identity π built an operator:\n%s", TreeString(p))
	}
	inner := mustOp(Project(in, "outer:iter", "item", "copy:item"))
	outer := mustOp(Project(inner, "x:copy", "outer"))
	if outer.Kind != OpProject || outer.In[0] != in {
		t.Fatalf("π over π not fused:\n%s", TreeString(outer))
	}
	want := []ProjPair{{New: "x", Old: "item"}, {New: "outer", Old: "iter"}}
	if !slices.Equal(outer.Proj, want) {
		t.Errorf("fused pairs = %v, want %v", outer.Proj, want)
	}
	if back := mustOp(Project(inner, "iter:outer", "item")); back != in {
		t.Errorf("π undoing a π built an operator:\n%s", TreeString(back))
	}
	if _, err := Project(inner, "iter"); err == nil {
		t.Error("a π over a π must still check its own input's columns")
	}
}

func TestSelectValidation(t *testing.T) {
	in := litIterItem(t)
	if _, err := Select(in, "nope"); err == nil {
		t.Error("missing bool column must fail")
	}
	s := mustOp(Select(in, "item"))
	if len(s.Schema()) != 2 {
		t.Error("σ must keep schema")
	}
}

func TestUnionSchemaCheck(t *testing.T) {
	a := litIterItem(t)
	b := Lit(bat.MustTable("item", bat.ItemVec{bat.Int(1)}, "iter", bat.IntVec{9}))
	u := mustOp(Union(a, b))
	if got := strings.Join(u.Schema(), "|"); got != "iter|item" {
		t.Errorf("union schema = %s", got)
	}
	c := Lit(bat.MustTable("x", bat.IntVec{1}))
	if _, err := Union(a, c); err == nil {
		t.Error("schema mismatch must fail")
	}
}

func TestJoinValidation(t *testing.T) {
	a := litIterItem(t)
	b := Lit(bat.MustTable("iter1", bat.IntVec{1}, "item1", bat.ItemVec{bat.Int(5)}))
	j := mustOp(Join(a, b, []string{"iter"}, []string{"iter1"}))
	if got := strings.Join(j.Schema(), "|"); got != "iter|item|iter1|item1" {
		t.Errorf("join schema = %s", got)
	}
	if _, err := Join(a, a, []string{"iter"}, []string{"iter"}); err == nil {
		t.Error("overlapping column names must fail")
	}
	if _, err := Join(a, b, []string{"iter"}, []string{}); err == nil {
		t.Error("empty keys must fail")
	}
	if _, err := Join(a, b, []string{"nope"}, []string{"iter1"}); err == nil {
		t.Error("missing key must fail")
	}
}

func TestCrossValidation(t *testing.T) {
	a := litIterItem(t)
	b := Lit(bat.MustTable("pos", bat.IntVec{1}))
	c := mustOp(Cross(a, b))
	if len(c.Schema()) != 3 {
		t.Error("cross schema")
	}
	if _, err := Cross(a, a); err == nil {
		t.Error("overlap must fail")
	}
}

func TestRowNumValidation(t *testing.T) {
	in := litIterItem(t)
	r := mustOp(RowNum(in, "pos", []OrderSpec{{Col: "item"}}, "iter"))
	if !r.HasCol("pos") {
		t.Error("rownum must add column")
	}
	if _, err := RowNum(in, "iter", nil, ""); err == nil {
		t.Error("existing output column must fail")
	}
	if _, err := RowNum(in, "p", []OrderSpec{{Col: "gone"}}, ""); err == nil {
		t.Error("missing order column must fail")
	}
	if _, err := RowNum(in, "p", nil, "gone"); err == nil {
		t.Error("missing partition column must fail")
	}
}

func TestFunValidation(t *testing.T) {
	in := litIterItem(t)
	f := mustOp(Fun(in, "res", FunAdd, "item", "item"))
	if !f.HasCol("res") {
		t.Error("fun must add column")
	}
	if _, err := Fun(in, "r", FunAdd, "item"); err == nil {
		t.Error("wrong arity must fail")
	}
	if _, err := Fun(in, "r", FunNot, "gone"); err == nil {
		t.Error("missing arg must fail")
	}
	if _, err := Fun(in, "item", FunNot, "item"); err == nil {
		t.Error("clobbering output must fail")
	}
}

func TestAggrSchema(t *testing.T) {
	in := litIterItem(t)
	a := mustOp(Aggr(in, "cnt", AggCount, "", "iter"))
	if got := strings.Join(a.Schema(), "|"); got != "iter|cnt" {
		t.Errorf("aggr schema = %s", got)
	}
	g := mustOp(Aggr(in, "total", AggSum, "item", ""))
	if got := strings.Join(g.Schema(), "|"); got != "total" {
		t.Errorf("global aggr schema = %s", got)
	}
	if _, err := Aggr(in, "s", AggSum, "gone", ""); err == nil {
		t.Error("missing arg column must fail")
	}
}

func TestStepRequiresIterItem(t *testing.T) {
	in := litIterItem(t)
	s := mustOp(Step(in, Descendant, KindTest{Kind: TestElem, Name: "a"}))
	if got := strings.Join(s.Schema(), "|"); got != "iter|item" {
		t.Errorf("step schema = %s", got)
	}
	bad := Lit(bat.MustTable("x", bat.IntVec{1}))
	if _, err := Step(bad, Child, KindTest{}); err == nil {
		t.Error("step without iter|item must fail")
	}
}

func TestConstructorsSchemas(t *testing.T) {
	names := litIterItem(t)
	content := Lit(bat.MustTable(
		"iter", bat.IntVec{1},
		"pos", bat.IntVec{1},
		"item", bat.ItemVec{bat.Str("x")},
	))
	e := mustOp(Elem(names, content))
	if got := strings.Join(e.Schema(), "|"); got != "iter|item" {
		t.Errorf("elem schema = %s", got)
	}
	if _, err := Elem(names, names); err == nil {
		t.Error("elem content must have pos")
	}
	tx := mustOp(Text(names))
	if len(tx.Schema()) != 2 {
		t.Error("text schema")
	}
	at := mustOp(AttrC(names, names))
	if len(at.Schema()) != 2 {
		t.Error("attr schema")
	}
	d := mustOp(DocOp(names))
	if len(d.Schema()) != 2 {
		t.Error("doc schema")
	}
	r := mustOp(Roots(names))
	if len(r.Schema()) != 2 {
		t.Error("roots schema")
	}
}

func TestDiffAndSemiJoin(t *testing.T) {
	a := litIterItem(t)
	b := Lit(bat.MustTable("oiter", bat.IntVec{1}))
	d := mustOp(Diff(a, b, []string{"iter"}, []string{"oiter"}))
	if got := strings.Join(d.Schema(), "|"); got != "iter|item" {
		t.Errorf("diff schema = %s", got)
	}
	s := mustOp(SemiJoin(a, b, []string{"iter"}, []string{"oiter"}))
	if got := strings.Join(s.Schema(), "|"); got != "iter|item" {
		t.Errorf("semijoin schema = %s", got)
	}
	if _, err := Diff(a, b, nil, nil); err == nil {
		t.Error("diff without keys must fail")
	}
}

// Figure 5 of the paper: the plan for `for $v in (10,20) return $v + 100`
// built by hand out of Table 1 operators — this asserts the algebra layer
// can express the paper's example verbatim.
func buildFigure5(t *testing.T) *Op {
	t.Helper()
	// Literal (10,20) in scope s0 with iter = 1.
	q1 := Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1},
		"pos", bat.IntVec{1, 2},
		"item", bat.ItemVec{bat.Int(10), bat.Int(20)},
	))
	// ϱ inner:(iter,pos) — new iterations for $v.
	rn := mustOp(RowNum(q1, "inner", []OrderSpec{{Col: "iter"}, {Col: "pos"}}, ""))
	// map(inner, outer).
	mapRel := mustOp(Project(rn, "inner", "outer:iter"))
	// $v in scope s1: iter = inner, pos = 1.
	vBind0 := mustOp(Project(rn, "iter:inner", "item"))
	ones := mustOp(Cross(vBind0, Lit(bat.MustTable("pos", bat.IntVec{1}))))
	vBind := mustOp(Project(ones, "iter", "pos", "item"))
	// (100) lifted into s1: loop × {(1,100)}.
	loop := mustOp(Project(mapRel, "iter1:inner"))
	hundred := mustOp(Cross(loop, Lit(bat.MustTable(
		"pos1", bat.IntVec{1}, "item1", bat.ItemVec{bat.Int(100)},
	))))
	// $v + 100: join on iter, ⊕.
	j := mustOp(Join(vBind, hundred, []string{"iter"}, []string{"iter1"}))
	add := mustOp(Fun(j, "res", FunAdd, "item", "item1"))
	body := mustOp(Project(add, "iter", "pos", "item:res"))
	// Back-map to s0.
	back := mustOp(Join(body, mustOp(Project(mapRel, "inner", "outer")),
		[]string{"iter"}, []string{"inner"}))
	renum := mustOp(RowNum(back, "pos1", []OrderSpec{{Col: "iter"}, {Col: "pos"}}, "outer"))
	final := mustOp(Project(renum, "iter:outer", "pos:pos1", "item"))
	return final
}

func TestFigure5PlanConstructs(t *testing.T) {
	final := buildFigure5(t)
	if err := Validate(final); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(final.Schema(), "|"); got != "iter|pos|item" {
		t.Errorf("final schema = %s", got)
	}
	if n := CountOps(final); n < 10 {
		t.Errorf("figure 5 plan has %d ops, expected a DAG of >= 10", n)
	}
}

func TestDotAndTextRendering(t *testing.T) {
	final := buildFigure5(t)
	dot := Dot(final)
	for _, want := range []string{"digraph plan", "π", "ϱ", "⋈", "×", "⊛+"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
	txt := TreeString(final)
	if !strings.Contains(txt, "π iter:outer,pos:pos1,item") {
		t.Errorf("text output missing root π, got:\n%s", txt)
	}
	// Shared nodes must be printed once and referenced.
	if !strings.Contains(txt, "^") {
		t.Error("shared map relation should be referenced, not re-printed")
	}
}

func TestOpHistogram(t *testing.T) {
	final := buildFigure5(t)
	h := OpHistogram(final)
	if h["join"] != 2 || h["cross"] != 2 {
		t.Errorf("histogram = %s", HistString(h))
	}
	if HistString(h) == "" {
		t.Error("HistString empty")
	}
}

// Table 1 inventory: every operator of the paper's algebra is expressible.
func TestTable1OperatorInventory(t *testing.T) {
	in := litIterItem(t)
	ops := map[string]func() (*Op, error){
		"π":  func() (*Op, error) { return Project(in, "iter") },
		"σ":  func() (*Op, error) { return Select(in, "item") },
		"∪":  func() (*Op, error) { return Union(in, in) },
		"\\": func() (*Op, error) { return Diff(in, in, []string{"iter"}, []string{"iter"}) },
		"δ":  func() (*Op, error) { return Distinct(in), nil },
		"⋈": func() (*Op, error) {
			r := Lit(bat.MustTable("i2", bat.IntVec{1}))
			return Join(in, r, []string{"iter"}, []string{"i2"})
		},
		"×":         func() (*Op, error) { return Cross(in, Lit(bat.MustTable("z", bat.IntVec{1}))) },
		"ϱ":         func() (*Op, error) { return RowNum(in, "n", nil, "iter") },
		"staircase": func() (*Op, error) { return Step(in, Child, KindTest{Kind: TestNode}) },
		"ε": func() (*Op, error) {
			c := Lit(bat.MustTable("iter", bat.IntVec{}, "pos", bat.IntVec{}, "item", bat.ItemVec{}))
			return Elem(in, c)
		},
		"τ": func() (*Op, error) { return Text(in) },
		"⊛": func() (*Op, error) { return Fun(in, "r", FunMul, "item", "item") },
	}
	for name, build := range ops {
		if _, err := build(); err != nil {
			t.Errorf("operator %s of Table 1 not expressible: %v", name, err)
		}
	}
}

func TestAxisAndTestStrings(t *testing.T) {
	if Descendant.String() != "descendant" || Attribute.String() != "attribute" {
		t.Error("axis names")
	}
	a, err := AxisByName("following-sibling")
	if err != nil || a != FollowingSibling {
		t.Errorf("AxisByName: %v %v", a, err)
	}
	if _, err := AxisByName("bogus"); err == nil {
		t.Error("bogus axis must fail")
	}
	tests := []struct {
		kt   KindTest
		want string
	}{
		{KindTest{Kind: TestElem, Name: "a"}, "a"},
		{KindTest{Kind: TestElem}, "*"},
		{KindTest{Kind: TestText}, "text()"},
		{KindTest{Kind: TestNode}, "node()"},
		{KindTest{Kind: TestAttr, Name: "id"}, "@id"},
		{KindTest{Kind: TestAttr}, "@*"},
	}
	for _, c := range tests {
		if c.kt.String() != c.want {
			t.Errorf("KindTest %v = %q, want %q", c.kt, c.kt.String(), c.want)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	in := litIterItem(t)
	s := mustOp(Select(in, "item"))
	s.Col = "vanished" // corrupt after construction
	if err := Validate(s); err == nil {
		t.Error("Validate must catch dangling column reference")
	}
}

func TestRangeConstructor(t *testing.T) {
	in := Lit(bat.MustTable("iter", bat.IntVec{1}, "lo", bat.IntVec{1}, "hi", bat.IntVec{3}))
	r := mustOp(Range(in, "lo", "hi"))
	if got := strings.Join(r.Schema(), "|"); got != "iter|pos|item" {
		t.Errorf("range schema = %s", got)
	}
	if _, err := Range(in, "lo", "nope"); err == nil {
		t.Error("missing bound column must fail")
	}
	bad := Lit(bat.MustTable("x", bat.IntVec{1}))
	if _, err := Range(bad, "x", "x"); err == nil {
		t.Error("missing iter must fail")
	}
}

func TestLabelsCoverEveryOperator(t *testing.T) {
	in := litIterItem(t)
	content := Lit(bat.MustTable("iter", bat.IntVec{}, "pos", bat.IntVec{}, "item", bat.ItemVec{}))
	rangeIn := Lit(bat.MustTable("iter", bat.IntVec{1}, "lo", bat.IntVec{1}, "hi", bat.IntVec{2}))
	ops := []*Op{
		in,
		mustOp(Project(in, "iter")),
		mustOp(Select(in, "item")),
		mustOp(Union(in, in)),
		mustOp(Diff(in, in, []string{"iter"}, []string{"iter"})),
		Distinct(in),
		mustOp(Join(in, Lit(bat.MustTable("i2", bat.IntVec{1})), []string{"iter"}, []string{"i2"})),
		mustOp(SemiJoin(in, in, []string{"iter"}, []string{"iter"})),
		mustOp(Cross(in, Lit(bat.MustTable("z", bat.IntVec{1})))),
		mustOp(RowNum(in, "n", []OrderSpec{{Col: "item", Desc: true}}, "iter")),
		mustOp(RowID(in, "id")),
		mustOp(Fun(in, "r", FunAdd, "item", "item")),
		mustOp(Aggr(in, "c", AggCount, "", "iter")),
		mustOp(Step(in, Descendant, KindTest{Kind: TestElem, Name: "a"})),
		mustOp(DocOp(in)),
		mustOp(Roots(in)),
		mustOp(Elem(in, content)),
		mustOp(Text(in)),
		mustOp(AttrC(in, in)),
		mustOp(Range(rangeIn, "lo", "hi")),
	}
	for _, o := range ops {
		if l := o.Label(); l == "" || strings.HasPrefix(l, "op(") {
			t.Errorf("%s: label %q", o.Kind, l)
		}
		if o.Kind.String() == "" {
			t.Errorf("kind %d has no name", o.Kind)
		}
	}
}

func TestValidateNewOperatorChecks(t *testing.T) {
	in := litIterItem(t)
	rn := mustOp(RowNum(in, "n", []OrderSpec{{Col: "item"}}, "iter"))
	rn.Part = "gone"
	if err := Validate(rn); err == nil {
		t.Error("corrupt ϱ partition must be caught")
	}
	ag := mustOp(Aggr(in, "s", AggSum, "item", "iter"))
	ag.Args = []string{"gone"}
	if err := Validate(ag); err == nil {
		t.Error("corrupt aggregate argument must be caught")
	}
	rg := mustOp(Range(Lit(bat.MustTable(
		"iter", bat.IntVec{1}, "lo", bat.IntVec{1}, "hi", bat.IntVec{2})), "lo", "hi"))
	rg.KeyL = []string{"lo"}
	if err := Validate(rg); err == nil {
		t.Error("corrupt range bounds must be caught")
	}
}

// TestSkeletonText: the textual form of an ε skeleton — plan labels and
// MIL — reads back as the skeleton it was written from, and malformed
// skeletons are refused.
func TestSkeletonText(t *testing.T) {
	for _, src := range []string{
		`<*>$0</*>`,
		`<a/>`,
		`<item person=$0>$1</item>`,
		`<a x=$0 y=$1><b>$2<c/></b>$3<d z=$4/></a>`,
		`<a>$0 x=$1<b>$2 y=$3</b></a>`,
		`<p:a>$0</p:a>`,
	} {
		s, err := ParseSkeleton(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := s.String(); got != src {
			t.Errorf("ParseSkeleton(%s).String() = %s", src, got)
		}
	}
	for _, bad := range []string{
		``, `$0`, `<a>`, `<a></b>`, `<a>$1</a>`, `<a>$0$0</a>`, `<a/><b/>`,
		`<a><*/></a>`, `<a x=$1 y=$0/>`, `<a x=0/>`, `<a></a>$0`,
	} {
		if s, err := ParseSkeleton(bad); err == nil {
			t.Errorf("ParseSkeleton(%q) = %s, want an error", bad, s)
		}
	}
	if !SkelName("personne") || SkelName("") || SkelName("a b") || SkelName("*") {
		t.Error("SkelName")
	}
}

// TestElemSkelChecksInputs: a static root reads the loop (iter), a
// dynamic one a name table (iter|item), and every slot is iter|pos|item,
// one per slot the skeleton names; the binary ε is the one-slot skeleton
// with a dynamic root.
func TestElemSkelChecksInputs(t *testing.T) {
	loop := Lit(bat.MustTable("iter", bat.IntVec{1}))
	names := Lit(bat.MustTable("iter", bat.IntVec{1}, "item", bat.StrVec{"a"}))
	slot := Lit(bat.MustTable("iter", bat.IntVec{1}, "pos", bat.IntVec{1}, "item", bat.IntVec{7}))
	static, _ := ParseSkeleton("<a x=$0>$1</a>")
	dynamic, _ := ParseSkeleton("<*>$0</*>")
	if _, err := ElemSkel(loop, static, slot, slot); err != nil {
		t.Errorf("static root over the loop: %v", err)
	}
	if _, err := ElemSkel(loop, dynamic, slot); err == nil {
		t.Error("a dynamic root needs an item column")
	}
	if _, err := ElemSkel(loop, static, slot); err == nil {
		t.Error("two slots named, one given")
	}
	if _, err := ElemSkel(loop, static, slot, names); err == nil {
		t.Error("a slot without pos")
	}
	e := mustOp(Elem(names, slot))
	if !e.Skel.Binary() || e.Label() != "ε" || len(e.In) != 2 {
		t.Errorf("binary ε: skeleton %s, label %q", e.Skel, e.Label())
	}
	o := mustOp(ElemSkel(loop, static, slot, slot))
	if o.Label() != "ε <a x=$0>$1</a>" {
		t.Errorf("label %q", o.Label())
	}
	o.Skel = dynamic
	if err := Validate(o); err == nil {
		t.Error("Validate must catch a skeleton that no longer fits its inputs")
	}
}
