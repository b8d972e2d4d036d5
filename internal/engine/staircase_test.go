package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// axisDoc is a small document with enough shape to exercise every axis:
//
//	doc(0) a(1) [ b(2) [ c(3) "t1"(4) ] b(5) [ c(6) ] "t2"(7) d(8) ]
const axisDoc = `<a><b><c>t1</c></b><b><c/></b>t2<d/></a>`

func loadAxisDoc(t *testing.T) (*Engine, bat.NodeRef) {
	t.Helper()
	e := New(xenc.NewStore())
	doc, err := e.Store.LoadDocumentString("axis.xml", axisDoc)
	if err != nil {
		t.Fatal(err)
	}
	return e, doc
}

func stepFrom(t *testing.T, e *Engine, ctx []bat.NodeRef, axis algebra.Axis, test algebra.KindTest) []int32 {
	t.Helper()
	iter := make(bat.IntVec, len(ctx))
	for i := range iter {
		iter[i] = 1
	}
	in := algebra.Lit(bat.MustTable("iter", iter, "item", bat.NodeVec(ctx)))
	out := evalOn(t, e, must(algebra.Step(in, axis, test)))
	items := out.MustCol("item")
	pres := make([]int32, out.Rows())
	for i := range pres {
		pres[i] = items.ItemAt(i).N.Pre
	}
	return pres
}

func eq32(a []int32, b ...int32) bool {
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

func TestAxesOnFixedDoc(t *testing.T) {
	e, doc := loadAxisDoc(t)
	n := func(pre int32) bat.NodeRef { return bat.NodeRef{Frag: doc.Frag, Pre: pre} }
	anyElem := algebra.KindTest{Kind: algebra.TestElem}
	anyNode := algebra.KindTest{Kind: algebra.TestNode}

	cases := []struct {
		name string
		ctx  []bat.NodeRef
		axis algebra.Axis
		test algebra.KindTest
		want []int32
	}{
		{"child of a", []bat.NodeRef{n(1)}, algebra.Child, anyNode, []int32{2, 5, 7, 8}},
		{"child elem of a", []bat.NodeRef{n(1)}, algebra.Child, anyElem, []int32{2, 5, 8}},
		{"child named b", []bat.NodeRef{n(1)}, algebra.Child, algebra.KindTest{Kind: algebra.TestElem, Name: "b"}, []int32{2, 5}},
		{"desc of a", []bat.NodeRef{n(1)}, algebra.Descendant, anyNode, []int32{2, 3, 4, 5, 6, 7, 8}},
		{"desc text", []bat.NodeRef{n(1)}, algebra.Descendant, algebra.KindTest{Kind: algebra.TestText}, []int32{4, 7}},
		{"desc-or-self c", []bat.NodeRef{n(3)}, algebra.DescendantOrSelf, anyNode, []int32{3, 4}},
		{"parent of c(3)", []bat.NodeRef{n(3)}, algebra.Parent, anyNode, []int32{2}},
		{"ancestor of t1", []bat.NodeRef{n(4)}, algebra.Ancestor, anyNode, []int32{0, 1, 2, 3}},
		{"anc-or-self of c(6)", []bat.NodeRef{n(6)}, algebra.AncestorOrSelf, anyElem, []int32{1, 5, 6}},
		{"following of b(2)", []bat.NodeRef{n(2)}, algebra.Following, anyNode, []int32{5, 6, 7, 8}},
		{"preceding of d", []bat.NodeRef{n(8)}, algebra.Preceding, anyNode, []int32{2, 3, 4, 5, 6, 7}},
		{"following-sibling of b(2)", []bat.NodeRef{n(2)}, algebra.FollowingSibling, anyNode, []int32{5, 7, 8}},
		{"preceding-sibling of d", []bat.NodeRef{n(8)}, algebra.PrecedingSibling, anyElem, []int32{2, 5}},
		{"self elem on text", []bat.NodeRef{n(4)}, algebra.Self, anyElem, nil},
		{"self node on text", []bat.NodeRef{n(4)}, algebra.Self, anyNode, []int32{4}},
		// Multi-context with nesting: desc of {a, b(2)} prunes b(2).
		{"desc multi nested", []bat.NodeRef{n(1), n(2)}, algebra.Descendant, anyNode, []int32{2, 3, 4, 5, 6, 7, 8}},
		// Multi-context following: staircase boundary is min(end(b2), end(b5)).
		{"following multi", []bat.NodeRef{n(2), n(5)}, algebra.Following, anyNode, []int32{5, 6, 7, 8}},
		{"child multi", []bat.NodeRef{n(2), n(5)}, algebra.Child, anyNode, []int32{3, 6}},
	}
	for _, c := range cases {
		got := stepFrom(t, e, c.ctx, c.axis, c.test)
		if !eq32(got, c.want...) {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
	}
}

func TestAttributeAxis(t *testing.T) {
	e := New(xenc.NewStore())
	doc, err := e.Store.LoadDocumentString("a.xml", `<r id="1" class="x"><s id="2"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	r := bat.NodeRef{Frag: doc.Frag, Pre: 1}
	got := stepFrom(t, e, []bat.NodeRef{r}, algebra.Attribute, algebra.KindTest{Kind: algebra.TestAttr})
	if len(got) != 2 {
		t.Fatalf("attr count = %d", len(got))
	}
	byName := stepFrom(t, e, []bat.NodeRef{r}, algebra.Attribute,
		algebra.KindTest{Kind: algebra.TestAttr, Name: "id"})
	if len(byName) != 1 {
		t.Fatalf("@id count = %d", len(byName))
	}
	ref := bat.NodeRef{Frag: doc.Frag, Pre: byName[0]}
	if e.Store.StringValue(ref) != "1" {
		t.Errorf("@id value = %q", e.Store.StringValue(ref))
	}
	// Parent of the attribute is <r>.
	par := stepFrom(t, e, []bat.NodeRef{ref}, algebra.Parent, algebra.KindTest{Kind: algebra.TestNode})
	if !eq32(par, 1) {
		t.Errorf("attr parent = %v", par)
	}
}

func TestUnknownNameTestMatchesNothing(t *testing.T) {
	e, doc := loadAxisDoc(t)
	got := stepFrom(t, e, []bat.NodeRef{doc}, algebra.Descendant,
		algebra.KindTest{Kind: algebra.TestElem, Name: "nosuchtag"})
	if len(got) != 0 {
		t.Errorf("unknown tag matched %v", got)
	}
}

func TestStepGroupsByIter(t *testing.T) {
	e, doc := loadAxisDoc(t)
	in := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{2, 1},
		"item", bat.NodeVec{{Frag: doc.Frag, Pre: 2}, {Frag: doc.Frag, Pre: 5}},
	))
	out := evalOn(t, e, must(algebra.Step(in, algebra.Child, algebra.KindTest{Kind: algebra.TestNode})))
	iters := ints(t, out, "iter")
	if !eqInts(iters, 1, 2) {
		t.Errorf("iter order = %v", iters)
	}
	items := out.MustCol("item")
	if items.ItemAt(0).N.Pre != 6 || items.ItemAt(1).N.Pre != 3 {
		t.Error("per-iter results wrong")
	}
}

func TestStepDuplicateContextsDeduped(t *testing.T) {
	e, doc := loadAxisDoc(t)
	a := bat.NodeRef{Frag: doc.Frag, Pre: 1}
	got := stepFrom(t, e, []bat.NodeRef{a, a, a}, algebra.Child, algebra.KindTest{Kind: algebra.TestNode})
	if !eq32(got, 2, 5, 7, 8) {
		t.Errorf("dup contexts = %v", got)
	}
}

// randomTree builds a random document string and returns it.
func randomTree(r *rand.Rand) string {
	var sb strings.Builder
	tags := []string{"a", "b", "c"}
	var emit func(d int)
	emit = func(d int) {
		tag := tags[r.Intn(len(tags))]
		sb.WriteString("<" + tag + ">")
		n := r.Intn(4)
		for i := 0; i < n && d < 5; i++ {
			if r.Intn(3) == 0 {
				fmt.Fprintf(&sb, "x%d", r.Intn(5))
			} else {
				emit(d + 1)
			}
		}
		sb.WriteString("</" + tag + ">")
	}
	emit(0)
	return sb.String()
}

// Property: for every axis, the staircase join and the naive region-query
// evaluation agree on random documents and random context sets.
func TestQuickStaircaseEquivalentToNaive(t *testing.T) {
	axes := []algebra.Axis{
		algebra.Child, algebra.Descendant, algebra.DescendantOrSelf,
		algebra.Parent, algebra.Ancestor, algebra.AncestorOrSelf,
		algebra.Following, algebra.Preceding,
		algebra.FollowingSibling, algebra.PrecedingSibling, algebra.Self,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		store := xenc.NewStore()
		doc, err := store.LoadDocumentString("q.xml", randomTree(r))
		if err != nil {
			return false
		}
		frag := store.Frag(doc.Frag)
		nNodes := frag.NodeCount()
		nCtx := r.Intn(4) + 1
		ctx := make([]bat.NodeRef, nCtx)
		iter := make(bat.IntVec, nCtx)
		for i := range ctx {
			ctx[i] = bat.NodeRef{Frag: doc.Frag, Pre: int32(r.Intn(nNodes))}
			iter[i] = 1
		}
		in := algebra.Lit(bat.MustTable("iter", iter, "item", bat.NodeVec(ctx)))
		for _, axis := range axes {
			st := New(store)
			st.Staircase = true
			nv := New(store)
			nv.Staircase = false
			plan := must(algebra.Step(in, axis, algebra.KindTest{Kind: algebra.TestNode}))
			a, err1 := st.Eval(plan)
			b, err2 := nv.Eval(plan)
			if err1 != nil || err2 != nil {
				t.Logf("axis %s: %v %v", axis, err1, err2)
				return false
			}
			if a.String() != b.String() {
				t.Logf("axis %s differs on seed %d:\nstaircase:\n%s\nnaive:\n%s",
					axis, seed, a.String(), b.String())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: descendant results are strictly document-ordered and
// duplicate-free per iter, for random context sets (the
// fs:distinct-doc-order contract of the step operator).
func TestQuickStepResultOrderedDistinct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		store := xenc.NewStore()
		doc, err := store.LoadDocumentString("q.xml", randomTree(r))
		if err != nil {
			return false
		}
		frag := store.Frag(doc.Frag)
		nCtx := r.Intn(5) + 1
		ctx := make(bat.NodeVec, nCtx)
		iter := make(bat.IntVec, nCtx)
		for i := range ctx {
			ctx[i] = bat.NodeRef{Frag: doc.Frag, Pre: int32(r.Intn(frag.NodeCount()))}
			iter[i] = int64(r.Intn(2) + 1)
		}
		e := New(store)
		in := algebra.Lit(bat.MustTable("iter", iter, "item", ctx))
		for _, axis := range []algebra.Axis{algebra.Descendant, algebra.Ancestor, algebra.Following, algebra.Preceding} {
			out, err := e.Eval(must(algebra.Step(in, axis, algebra.KindTest{Kind: algebra.TestNode})))
			if err != nil {
				return false
			}
			oi, _ := out.Ints("iter")
			items := out.MustCol("item")
			for i := 1; i < out.Rows(); i++ {
				if oi[i] < oi[i-1] {
					return false
				}
				if oi[i] == oi[i-1] && items.ItemAt(i).N.Pre <= items.ItemAt(i-1).N.Pre {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStepAcrossFragments(t *testing.T) {
	e := New(xenc.NewStore())
	d1, err := e.Store.LoadDocumentString("one.xml", "<a><x/></a>")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e.Store.LoadDocumentString("two.xml", "<b><x/><x/></b>")
	if err != nil {
		t.Fatal(err)
	}
	in := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1},
		"item", bat.NodeVec{d2, d1}, // out of doc order on purpose
	))
	out := evalOn(t, e, must(algebra.Step(in, algebra.Descendant,
		algebra.KindTest{Kind: algebra.TestElem, Name: "x"})))
	if out.Rows() != 3 {
		t.Fatalf("rows = %d", out.Rows())
	}
	items := out.MustCol("item")
	// Fragment order: d1's x first, then d2's two x's.
	if items.ItemAt(0).N.Frag != d1.Frag || items.ItemAt(1).N.Frag != d2.Frag {
		t.Error("fragment order in result")
	}
}

// TestNameTestSeesBothSurrogates: on a scratch view whose base interned a
// name after the view constructed it (a document the request loads brings
// a tag and an attribute the request already built), the name test
// matches the constructed node and the document node alike.
func TestNameTestSeesBothSurrogates(t *testing.T) {
	base := xenc.NewStore()
	v := base.Scratch()
	fb := xenc.NewFragBuilder(v)
	fb.StartElem("late")
	if err := fb.AddAttr("lateattr", "1"); err != nil {
		t.Fatal(err)
	}
	fb.EndElem()
	built, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := v.LoadDocumentString("late.xml", `<late lateattr="2"/>`)
	if err != nil {
		t.Fatal(err)
	}
	e := New(v)
	elem := e.resolveTest(algebra.KindTest{Kind: algebra.TestElem, Name: "late"})
	attr := e.resolveTest(algebra.KindTest{Kind: algebra.TestAttr, Name: "lateattr"})
	for _, n := range []bat.NodeRef{{Frag: built, Pre: 0}, {Frag: doc.Frag, Pre: 1}} {
		f := v.Frag(n.Frag)
		if !elem.tree(f, n.Pre) {
			t.Errorf("element test misses <late> in fragment %d", n.Frag)
		}
		if !attr.attribute(f, 0) {
			t.Errorf("attribute test misses @lateattr in fragment %d", n.Frag)
		}
	}
}
