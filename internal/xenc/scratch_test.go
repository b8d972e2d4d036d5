package xenc

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pathfinder/internal/bat"
)

// baseState is what a view must never change about its base store.
type baseState struct {
	frags  int
	pools  [4]int
	report StorageReport
}

func stateOf(s *Store) baseState {
	return baseState{
		frags:  s.FragCount(),
		pools:  [4]int{s.tags.Len(), s.attrNames.Len(), s.texts.Len(), s.attrVals.Len()},
		report: s.Report(),
	}
}

func loadedStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	if _, err := s.LoadDocumentString("d.xml", `<site><p id="1">x</p><p id="2">y</p></site>`); err != nil {
		t.Fatal(err)
	}
	return s
}

// construct builds <tag name="val">text</tag> in s and returns its id.
func construct(t testing.TB, s *Store, tag, name, val, text string) int32 {
	t.Helper()
	fb := NewFragBuilder(s)
	fb.StartElem(tag)
	if err := fb.AddAttr(name, val); err != nil {
		t.Fatal(err)
	}
	fb.AddText(text)
	fb.EndElem()
	id, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestScratchPrivateIDs: a view numbers what it constructs from
// PrivateBase on — fragments and the surrogates of strings its base does
// not have — and answers with the base's surrogate for one it does.
func TestScratchPrivateIDs(t *testing.T) {
	base := loadedStore(t)
	v := base.Scratch()
	id := construct(t, v, "new", "id", "fresh", "z")
	if id != PrivateBase {
		t.Errorf("first private fragment id %d, want %d", id, PrivateBase)
	}
	if id2 := construct(t, v, "p", "id", "1", "x"); id2 != PrivateBase+1 {
		t.Errorf("second private fragment id %d, want %d", id2, PrivateBase+1)
	}
	f := v.Frag(id)
	if tag := f.Prop[0]; tag < PrivateBase || v.TagName(tag) != "new" {
		t.Errorf("tag surrogate %d (%q), want a private one naming new", tag, v.TagName(tag))
	}
	if name := f.AttrName[0]; name != base.AttrNameID("id") {
		t.Errorf("attribute name surrogate %d, want the base's %d", name, base.AttrNameID("id"))
	}
	if val := f.AttrVal[0]; val < PrivateBase || v.AttrVal(val) != "fresh" {
		t.Errorf("attribute value surrogate %d, want a private one", val)
	}
	f2 := v.Frag(PrivateBase + 1)
	if f2.Prop[0] != base.TagID("p") || f2.AttrVal[0] >= PrivateBase || f2.Prop[1] >= PrivateBase {
		t.Errorf("strings the base has got private surrogates: %v %v %v", f2.Prop, f2.AttrName, f2.AttrVal)
	}
	if got := v.Serialize(bat.NodeRef{Frag: id}); got != `<new id="fresh">z</new>` {
		t.Errorf("serialized %q", got)
	}
	if v.TagID("new") != f.Prop[0] || base.TagID("new") != -1 {
		t.Errorf("TagID(new): view %d, base %d", v.TagID("new"), base.TagID("new"))
	}
	if !v.RefBefore(bat.NodeRef{Frag: 0, Pre: 3}, bat.NodeRef{Frag: id}) {
		t.Error("a constructed node does not sort after the loaded document")
	}
}

// TestScratchReadsThrough: everything of the base resolves through the
// view — fragments, documents, names, values — and the view's additions
// stay invisible from the base.
func TestScratchReadsThrough(t *testing.T) {
	base := loadedStore(t)
	v := base.Scratch()
	root, err := v.Doc("d.xml")
	if err != nil || root != (bat.NodeRef{}) {
		t.Fatalf("Doc through the view: %v %v", root, err)
	}
	if v.Frag(0) != base.Frag(0) {
		t.Error("fragment 0 is not the base's")
	}
	if got, want := v.Serialize(root), base.Serialize(root); got != want {
		t.Errorf("view serializes %q, base %q", got, want)
	}
	if !reflect.DeepEqual(v.DocURIs(), base.DocURIs()) || !reflect.DeepEqual(v.DocsInOrder(), base.DocsInOrder()) {
		t.Error("document registry differs through the view")
	}
	p := bat.NodeRef{Frag: 0, Pre: 2}
	if val, ok := v.AttrValueOf(p, "id"); !ok || val != "1" {
		t.Errorf("AttrValueOf through the view: %q %v", val, ok)
	}
	construct(t, v, "only-here", "k", "v", "t")
	if base.TagID("only-here") != -1 || base.FragCount() != 1 {
		t.Error("the view's fragment or tag leaked into the base")
	}
	if got := v.FragCount(); got != 2 {
		t.Errorf("view reaches %d fragments, want 2", got)
	}
}

// TestScratchNeverGrowsBase: constructing and interning through a view
// leaves the base's fragment count, pool lengths and storage report as
// they were, and so do the persistence entry points, which write the base.
func TestScratchNeverGrowsBase(t *testing.T) {
	base := loadedStore(t)
	before := stateOf(base)
	var snap bytes.Buffer
	if err := base.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	v := base.Scratch()
	for i := 0; i < 50; i++ {
		construct(t, v, fmt.Sprintf("t%d", i%5), fmt.Sprintf("a%d", i%3), fmt.Sprint(i), strings.Repeat("x", i))
	}
	v.texts.Put("loose string")
	if after := stateOf(base); after != before {
		t.Errorf("base changed under a view: %+v, was %+v", after, before)
	}
	var viaView bytes.Buffer
	if err := v.WriteSnapshot(&viaView); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaView.Bytes(), snap.Bytes()) {
		t.Error("a view's snapshot is not its base's")
	}
	if got, want := v.Parts(), base.Parts(); !reflect.DeepEqual(got, want) {
		t.Error("a view's parts are not its base's")
	}
	if err := v.ReadSnapshot(bytes.NewReader(snap.Bytes())); err == nil {
		t.Error("ReadSnapshot into a view succeeded")
	}
	if r := v.Report(); r.Nodes <= before.report.Nodes {
		t.Errorf("the view's report (%d nodes) does not count what it constructed", r.Nodes)
	}
}

// TestScratchDocumentLoadsGoToBase: a document loaded through a view — the
// fn:doc resolver's path — is the base's, and outlives the view.
func TestScratchDocumentLoadsGoToBase(t *testing.T) {
	base := loadedStore(t)
	v := base.Scratch()
	ref, err := v.LoadDocumentString("e.xml", `<e/>`)
	if err != nil || ref.Frag >= PrivateBase {
		t.Fatalf("load through a view: %v %v", ref, err)
	}
	if got, err := base.Doc("e.xml"); err != nil || got != ref {
		t.Errorf("the base does not hold the document: %v %v", got, err)
	}
	if _, err := v.LoadDocumentString("e.xml", `<e/>`); err == nil {
		t.Error("a view loaded a URI its base already holds")
	}
	if ref, err := v.ReplaceDocumentString("e.xml", `<f/>`); err != nil || base.Serialize(ref) != "<f/>" {
		t.Errorf("replace through a view: %v %v", ref, err)
	}
}

// TestScratchBaseInternsLater: the base interns a name after the view
// already made it private — a document the request loads mid-way brings
// a tag and an attribute the request has constructed. Both surrogates
// then name the string, every name lookup of the view answers with both,
// and a constructed element carrying one cannot take the other as a
// second attribute of the same name.
func TestScratchBaseInternsLater(t *testing.T) {
	base := loadedStore(t)
	v := base.Scratch()
	early := construct(t, v, "late", "lateattr", "v", "t")
	priv := v.Frag(early).Prop[0]
	privAttr := v.Frag(early).AttrName[0]
	if priv < PrivateBase || privAttr < PrivateBase {
		t.Fatalf("surrogates %d %d are not private", priv, privAttr)
	}
	doc, err := v.LoadDocumentString("late.xml", `<late lateattr="w"/>`)
	if err != nil {
		t.Fatal(err)
	}
	pub := base.TagID("late")
	if pub < 0 || pub >= PrivateBase {
		t.Fatalf("base surrogate %d", pub)
	}
	if id, alias := v.TagIDs("late"); id != pub || alias != priv {
		t.Errorf("TagIDs(late) = %d, %d; want the base's %d and the private %d", id, alias, pub, priv)
	}
	if id, alias := v.AttrNameIDs("lateattr"); id != base.AttrNameID("lateattr") || alias != privAttr {
		t.Errorf("AttrNameIDs(lateattr) = %d, %d", id, alias)
	}
	if id, alias := base.TagIDs("late"); id != pub || alias != pub {
		t.Errorf("base TagIDs(late) = %d, %d", id, alias)
	}
	// Both nodes answer AttrValueOf by name, and serialize by content.
	docElem := bat.NodeRef{Frag: doc.Frag, Pre: 1}
	for _, c := range []struct {
		n    bat.NodeRef
		want string
	}{{bat.NodeRef{Frag: early}, "v"}, {docElem, "w"}} {
		if got, ok := v.AttrValueOf(c.n, "lateattr"); !ok || got != c.want {
			t.Errorf("AttrValueOf(%v) = %q, %v; want %q", c.n, got, ok, c.want)
		}
	}
	// The duplicate-attribute check sees through the two surrogates, and
	// interning now answers with the base's.
	fb := NewFragBuilder(v)
	fb.StartElem("late")
	if err := fb.CopyFrom(v.Frag(early), AttrBase); err != nil {
		t.Fatal(err)
	}
	if err := fb.CopyFrom(v.Frag(doc.Frag), AttrBase); err == nil || !strings.Contains(err.Error(), "XQDY0025") {
		t.Errorf("second lateattr through the other surrogate: %v, want XQDY0025", err)
	}
	if id := v.tags.Put("late"); id != pub {
		t.Errorf("Put(late) after the base interned it = %d, want the base's %d", id, pub)
	}
}

// TestScratchParallelConstructors: constructors on several workers of one
// request append to the view's private registry and pools while other
// workers resolve private and base nodes; the base sees none of it. Run
// under -race (make race), it is the proof that the view's tails keep the
// publish-after-write discipline of the base's.
func TestScratchParallelConstructors(t *testing.T) {
	const workers, rounds = 8, 200
	base := loadedStore(t)
	before := stateOf(base)
	v := base.Scratch()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				text := fmt.Sprintf("w%d-%d", w, i)
				fb := NewFragBuilder(v)
				fb.StartElem(fmt.Sprintf("t%d", i%7))
				if err := fb.CopyFrom(base.Frag(0), 2); err != nil {
					t.Error(err)
					return
				}
				fb.AddText(text)
				fb.EndElem()
				id, err := fb.Finish()
				if err != nil {
					t.Error(err)
					return
				}
				if got := v.StringValue(bat.NodeRef{Frag: id}); got != "x"+text {
					t.Errorf("fragment %d reads %q, want %q", id, got, "x"+text)
					return
				}
				for f := int32(v.frags.len()) - 1; f >= 0; f-- {
					if v.Frag(PrivateBase+f).NodeCount() != 4 {
						t.Errorf("private fragment %d published before it was complete", f)
						return
					}
				}
				for p := int32(v.texts.Len()) - 1; p >= 0; p-- {
					if v.texts.Get(PrivateBase+p) == "" {
						t.Errorf("private text %d published before it was written", p)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := v.frags.len(); got != workers*rounds {
		t.Errorf("%d private fragments, want %d", got, workers*rounds)
	}
	if after := stateOf(base); after != before {
		t.Errorf("base changed under parallel constructors: %+v, was %+v", after, before)
	}
}

// TestScratchOfScratchPanics: a view layers over a base store only.
func TestScratchOfScratchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Scratch of a view did not panic")
		}
	}()
	NewStore().Scratch().Scratch()
}
