package xenc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pathfinder/internal/bat"
)

const tinyDoc = `<site><a x="1" y="2"><b>hello</b><c/></a><a x="1">world</a></site>`

func loadTiny(t *testing.T) (*Store, bat.NodeRef) {
	t.Helper()
	s := NewStore()
	doc, err := s.LoadDocumentString("tiny.xml", tinyDoc)
	if err != nil {
		t.Fatal(err)
	}
	return s, doc
}

func TestShredTinyDocStructure(t *testing.T) {
	s, doc := loadTiny(t)
	f := s.Frag(doc.Frag)
	if err := f.Validate(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// doc, site, a, b, "hello", c, a, "world" = 8 nodes
	if f.NodeCount() != 8 {
		t.Fatalf("node count = %d, want 8", f.NodeCount())
	}
	if f.AttrCount() != 3 {
		t.Fatalf("attr count = %d, want 3", f.AttrCount())
	}
	if f.Kind[0] != KindDoc || f.Size[0] != 7 || f.Level[0] != 0 {
		t.Errorf("doc node: kind=%v size=%d level=%d", f.Kind[0], f.Size[0], f.Level[0])
	}
	if s.TagName(f.Prop[1]) != "site" || f.Level[1] != 1 {
		t.Errorf("root element wrong: %s level %d", s.TagName(f.Prop[1]), f.Level[1])
	}
}

func TestSurrogateSharing(t *testing.T) {
	s, doc := loadTiny(t)
	f := s.Frag(doc.Frag)
	// Two <a> elements share one tag surrogate.
	if s.tags.Len() != 4 { // site, a, b, c
		t.Errorf("tag pool size = %d, want 4", s.tags.Len())
	}
	// x="1" appears twice: one name surrogate, one value surrogate.
	var xNames, oneVals []int32
	for i := range f.AttrName {
		if s.AttrNameOf(f.AttrName[i]) == "x" {
			xNames = append(xNames, f.AttrName[i])
		}
		if s.AttrVal(f.AttrVal[i]) == "1" {
			oneVals = append(oneVals, f.AttrVal[i])
		}
	}
	if len(xNames) != 2 || xNames[0] != xNames[1] {
		t.Errorf("x attr surrogates: %v", xNames)
	}
	if len(oneVals) != 2 || oneVals[0] != oneVals[1] {
		t.Errorf("value '1' surrogates: %v", oneVals)
	}
}

func TestDocRegistry(t *testing.T) {
	s, doc := loadTiny(t)
	got, err := s.Doc("tiny.xml")
	if err != nil || got != doc {
		t.Errorf("Doc lookup: %v, %v", got, err)
	}
	if _, err := s.Doc("missing.xml"); err == nil {
		t.Error("missing doc should error")
	}
	if _, err := s.LoadDocumentString("tiny.xml", "<x/>"); err == nil {
		t.Error("duplicate load should error")
	}
	if uris := s.DocURIs(); len(uris) != 1 || uris[0] != "tiny.xml" {
		t.Errorf("DocURIs = %v", uris)
	}
}

// The loader names the document and the line, and rejects what the
// well-formedness constraints Element Type Match, Unique Att Spec and
// Legal Character forbid — including what encoding/xml let through.
func TestParseErrors(t *testing.T) {
	for _, c := range []struct{ doc, msg string }{
		{`<a><b></a>`, "element <b> closed by </a>"},
		{`<a></b>`, "element <a> closed by </b>"},
		{`<a><b></c></a>`, "element <b> closed by </c>"},
		{`</a>`, "end tag </a> without a start tag"},
		{`<a>`, "element <a> is not closed"},
		{`<a x="1" x="2"/>`, "duplicate attribute x"},
		{`<a xmlns:p="1" xmlns:p="2"/>`, "duplicate attribute xmlns:p"},
		{`<a>&#xD800;</a>`, "invalid reference"},
		{`<a b="&#xD800;"/>`, "invalid reference"},
		{`<a>&#57343;</a>`, "invalid reference"},
		{"<a><!--\x01--></a>", "illegal character"},
		{"<a>\n\n\xff</a>", "line 3: invalid UTF-8"},
	} {
		_, err := NewStore().LoadDocumentString("bad.xml", c.doc)
		if err == nil || !strings.Contains(err.Error(), c.msg) || !strings.HasPrefix(err.Error(), `parse "bad.xml": line `) {
			t.Errorf("%q: error %v, want one naming %q", c.doc, err, c.msg)
		}
	}
}

func TestStringValueAndAtomize(t *testing.T) {
	s, doc := loadTiny(t)
	if got := s.StringValue(doc); got != "helloworld" {
		t.Errorf("doc string value = %q", got)
	}
	f := s.Frag(doc.Frag)
	// find <b>
	for p := int32(0); p < int32(f.NodeCount()); p++ {
		if f.Kind[p] == KindElem && s.TagName(f.Prop[p]) == "b" {
			n := bat.NodeRef{Frag: doc.Frag, Pre: p}
			if s.StringValue(n) != "hello" {
				t.Errorf("b string value = %q", s.StringValue(n))
			}
			it := s.Atomize(n)
			if it.Kind != bat.KUntyped || it.S != "hello" {
				t.Errorf("atomize = %v", it)
			}
		}
	}
}

func TestAttrAccess(t *testing.T) {
	s, doc := loadTiny(t)
	f := s.Frag(doc.Frag)
	var aPre int32 = -1
	for p := int32(0); p < int32(f.NodeCount()); p++ {
		if f.Kind[p] == KindElem && s.TagName(f.Prop[p]) == "a" {
			aPre = p
			break
		}
	}
	n := bat.NodeRef{Frag: doc.Frag, Pre: aPre}
	if v, ok := s.AttrValueOf(n, "y"); !ok || v != "2" {
		t.Errorf("a/@y = %q, %v", v, ok)
	}
	if _, ok := s.AttrValueOf(n, "z"); ok {
		t.Error("missing attribute reported present")
	}
	lo, hi := f.Attrs(aPre)
	if hi-lo != 2 {
		t.Errorf("first <a> has %d attrs, want 2", hi-lo)
	}
	// Attribute node refs.
	ar := bat.NodeRef{Frag: doc.Frag, Pre: AttrBase + lo}
	if s.KindOf(ar) != KindAttr {
		t.Error("attr ref kind")
	}
	if s.NameOf(ar) != "x" {
		t.Errorf("attr name = %q", s.NameOf(ar))
	}
	if s.StringValue(ar) != "1" {
		t.Errorf("attr value = %q", s.StringValue(ar))
	}
	if p, ok := s.Parent(ar); !ok || p.Pre != aPre {
		t.Error("attr parent must be owner element")
	}
}

func TestRootAndParent(t *testing.T) {
	s, doc := loadTiny(t)
	f := s.Frag(doc.Frag)
	for p := int32(1); p < int32(f.NodeCount()); p++ {
		n := bat.NodeRef{Frag: doc.Frag, Pre: p}
		if r := s.Root(n); r.Pre != 0 {
			t.Errorf("root of %d = %d", p, r.Pre)
		}
	}
	if _, ok := s.Parent(doc); ok {
		t.Error("doc node has no parent")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	s, doc := loadTiny(t)
	out := s.Serialize(doc)
	if out != tinyDoc {
		t.Errorf("serialize:\n got %q\nwant %q", out, tinyDoc)
	}
}

func TestSerializeEscaping(t *testing.T) {
	s := NewStore()
	doc, err := s.LoadDocumentString("esc.xml", `<r a="x&amp;&quot;y">a &lt; b &amp; c</r>`)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Serialize(doc)
	want := `<r a="x&amp;&quot;y">a &lt; b &amp; c</r>`
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

// The escapers scan bytes and copy the runs between specials whole:
// multi-byte sequences next to, between and around every special must come
// through as stored, and only the specials of each context are replaced.
func TestEscapeRunsKeepMultiByteUTF8(t *testing.T) {
	for _, c := range []struct{ in, text, attr string }{
		{"", "", ""},
		{"plain", "plain", "plain"},
		{"&", "&amp;", "&amp;"},
		{"é&ü", "é&amp;ü", "é&amp;ü"},
		{"日本<語>", "日本&lt;語&gt;", "日本&lt;語>"},
		{`"𝄞"`, `"𝄞"`, "&quot;𝄞&quot;"},
		{"<é", "&lt;é", "&lt;é"},
		{"é>", "é&gt;", "é>"},
		{`€&<>"€`, `€&amp;&lt;&gt;"€`, `€&amp;&lt;>&quot;€`},
		{"a&&b", "a&amp;&amp;b", "a&amp;&amp;b"},
		{"ends with ü&", "ends with ü&amp;", "ends with ü&amp;"},
	} {
		text, attr := string(escapeText(nil, c.in)), string(escapeAttr(nil, c.in))
		if text != c.text {
			t.Errorf("escapeText(%q) = %q, want %q", c.in, text, c.text)
		}
		if attr != c.attr {
			t.Errorf("escapeAttr(%q) = %q, want %q", c.in, attr, c.attr)
		}
	}
}

func TestSerializeAttrRef(t *testing.T) {
	s, doc := loadTiny(t)
	f := s.Frag(doc.Frag)
	lo, _ := f.Attrs(2) // first <a>
	got := s.Serialize(bat.NodeRef{Frag: doc.Frag, Pre: AttrBase + lo})
	if got != `x="1"` {
		t.Errorf("attr serialization = %q", got)
	}
}

func TestDocOrderWithAttributes(t *testing.T) {
	s, doc := loadTiny(t)
	f := s.Frag(doc.Frag)
	lo, _ := f.Attrs(2)
	attr := AttrBase + lo
	if !f.Before(2, attr) {
		t.Error("element before its attributes")
	}
	if !f.Before(attr, 3) {
		t.Error("attribute before element children")
	}
	if f.Before(attr, attr) {
		t.Error("irreflexive")
	}
	if !s.RefBefore(bat.NodeRef{Frag: 0, Pre: 5}, bat.NodeRef{Frag: 1, Pre: 0}) {
		// Fragment order dominates even if frag 1 does not exist yet; only
		// ids are compared.
		t.Error("fragment order must dominate")
	}
}

func TestFragBuilderConstructAndCopy(t *testing.T) {
	s, doc := loadTiny(t)
	f := s.Frag(doc.Frag)
	// Build <out n="1"><b>hello</b>text</out> copying <b> from the doc.
	var bPre int32 = -1
	for p := int32(0); p < int32(f.NodeCount()); p++ {
		if f.Kind[p] == KindElem && s.TagName(f.Prop[p]) == "b" {
			bPre = p
		}
	}
	fb := NewFragBuilder(s)
	root := fb.StartElem("out")
	if root != 0 {
		t.Errorf("first constructed pre = %d", root)
	}
	if err := fb.AddAttr("n", "1"); err != nil {
		t.Fatal(err)
	}
	if err := fb.CopyFrom(s.Frag(doc.Frag), bPre); err != nil {
		t.Fatal(err)
	}
	fb.AddText("text")
	fb.EndElem()
	id, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	nf := s.Frag(id)
	if err := nf.Validate(); err != nil {
		t.Fatalf("constructed fragment invalid: %v", err)
	}
	got := s.Serialize(bat.NodeRef{Frag: id, Pre: 0})
	want := `<out n="1"><b>hello</b>text</out>`
	if got != want {
		t.Errorf("constructed serialization:\n got %q\nwant %q", got, want)
	}
}

// A run of adjacent texts is interned once, merged: no prefix of it
// reaches the pool, and the run ends at whatever is not a text.
func TestFragBuilderTextRunInternsOnce(t *testing.T) {
	s, doc := loadTiny(t)
	src := s.Frag(doc.Frag)
	var textPre int32 = -1
	for p, k := range src.Kind {
		if k == KindText {
			textPre = int32(p)
			break
		}
	}
	word := s.Text(src.Prop[textPre])
	fb := NewFragBuilder(s)
	fb.StartElem("e")
	fb.AddText("p1")
	fb.AddText("p2")
	if err := fb.CopyFrom(src, textPre); err != nil {
		t.Fatal(err)
	}
	fb.StartElem("i")
	fb.EndElem()
	fb.AddText("q1")
	fb.AddText("q2")
	fb.EndElem()
	id, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Frag(id).Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Serialize(bat.NodeRef{Frag: id}), "<e>p1p2"+word+"<i/>q1q2</e>"; got != want {
		t.Errorf("serialization %q, want %q", got, want)
	}
	if n := s.Frag(id).NodeCount(); n != 4 {
		t.Errorf("%d nodes, want e, text, i, text", n)
	}
	if s.texts.Lookup("p1p2") >= 0 {
		t.Error("the run's prefix p1p2 was interned")
	}
	if s.texts.Lookup("p1p2"+word) < 0 || s.texts.Lookup("q1q2") < 0 {
		t.Error("a merged run is missing from the pool")
	}
}

func TestFragBuilderCopyDocCopiesChildren(t *testing.T) {
	s, doc := loadTiny(t)
	fb := NewFragBuilder(s)
	fb.StartElem("wrap")
	if err := fb.CopyFrom(s.Frag(doc.Frag), doc.Pre); err != nil {
		t.Fatal(err)
	}
	fb.EndElem()
	id, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got := s.Serialize(bat.NodeRef{Frag: id, Pre: 0})
	if got != "<wrap>"+tinyDoc+"</wrap>" {
		t.Errorf("copy doc: %q", got)
	}
	if err := s.Frag(id).Validate(); err != nil {
		t.Error(err)
	}
}

func TestFragBuilderCopyAttributeRef(t *testing.T) {
	s, doc := loadTiny(t)
	f := s.Frag(doc.Frag)
	lo, _ := f.Attrs(2)
	fb := NewFragBuilder(s)
	fb.StartElem("e")
	if err := fb.CopyFrom(f, AttrBase+lo); err != nil {
		t.Fatal(err)
	}
	fb.EndElem()
	id, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Serialize(bat.NodeRef{Frag: id, Pre: 0}); got != `<e x="1"/>` {
		t.Errorf("copied attribute: %q", got)
	}
}

func TestFragBuilderErrors(t *testing.T) {
	s := NewStore()
	fb := NewFragBuilder(s)
	if err := fb.AddAttr("a", "1"); err == nil {
		t.Error("attr outside element must fail")
	}
	fb.StartElem("e")
	fb.AddText("content")
	if err := fb.AddAttr("late", "1"); err == nil {
		t.Error("attr after content must fail")
	}
	if _, err := fb.Finish(); err == nil {
		t.Error("finish with open element must fail")
	}
}

func TestFragBuilderMultipleRoots(t *testing.T) {
	s := NewStore()
	fb := NewFragBuilder(s)
	fb.StartElem("r1")
	fb.AddText("one")
	fb.EndElem()
	fb.StartElem("r2")
	fb.EndElem()
	id, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f := s.Frag(id)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// fn:root of the text node is r1, not r2.
	r := s.Root(bat.NodeRef{Frag: id, Pre: 1})
	if r.Pre != 0 {
		t.Errorf("root of text = %d", r.Pre)
	}
	if s.Serialize(bat.NodeRef{Frag: id, Pre: f.Size[0] + 1}) != "<r2/>" {
		t.Error("second root serialization")
	}
}

func TestStorageReport(t *testing.T) {
	s, _ := loadTiny(t)
	r := s.Report()
	if r.Nodes != 8 || r.Attrs != 3 {
		t.Errorf("report counts: %+v", r)
	}
	if r.StructuralBytes != 8*13+3*12 {
		t.Errorf("structural bytes = %d", r.StructuralBytes)
	}
	if r.Total() <= r.StructuralBytes {
		t.Error("pools must contribute")
	}
}

// randomXML emits a random small document; used for property tests.
func randomXML(r *rand.Rand, depth int) string {
	var sb strings.Builder
	tags := []string{"a", "b", "c", "d"}
	var emit func(d int)
	emit = func(d int) {
		tag := tags[r.Intn(len(tags))]
		sb.WriteString("<" + tag)
		if r.Intn(3) == 0 {
			fmt.Fprintf(&sb, ` k="%d"`, r.Intn(4))
		}
		sb.WriteString(">")
		n := r.Intn(4)
		for i := 0; i < n && d < depth; i++ {
			if r.Intn(2) == 0 {
				fmt.Fprintf(&sb, "t%d", r.Intn(10))
			} else {
				emit(d + 1)
			}
		}
		sb.WriteString("</" + tag + ">")
	}
	emit(0)
	return sb.String()
}

// Property: shredding any random document yields a fragment satisfying the
// pre/size/level invariants, and serialization round-trips through a
// second shred to the identical byte string.
func TestQuickShredInvariantsAndRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomXML(r, 4)
		s := NewStore()
		ref, err := s.LoadDocumentString("q.xml", doc)
		if err != nil {
			t.Logf("parse failed: %v", err)
			return false
		}
		if err := s.Frag(ref.Frag).Validate(); err != nil {
			t.Logf("invariant: %v", err)
			return false
		}
		out := s.Serialize(ref)
		s2 := NewStore()
		ref2, err := s2.LoadDocumentString("q.xml", out)
		if err != nil {
			return false
		}
		return s2.Serialize(ref2) == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the descendant region predicate of the paper —
// pre(v) < pre(v') ∧ pre(v') ≤ pre(v)+size(v) — coincides with parent-chain
// reachability on random documents.
func TestQuickDescendantRegionEqualsParentChain(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		ref, err := s.LoadDocumentString("q.xml", randomXML(r, 4))
		if err != nil {
			return false
		}
		fr := s.Frag(ref.Frag)
		n := int32(fr.NodeCount())
		for v := int32(0); v < n; v++ {
			for w := int32(0); w < n; w++ {
				region := v < w && w <= v+fr.Size[v]
				chain := false
				for p := fr.Parent[w]; p >= 0; p = fr.Parent[p] {
					if p == v {
						chain = true
						break
					}
				}
				if region != chain {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: copying a random subtree into a new fragment preserves its
// serialization.
func TestQuickCopyPreservesSerialization(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		ref, err := s.LoadDocumentString("q.xml", randomXML(r, 4))
		if err != nil {
			return false
		}
		fr := s.Frag(ref.Frag)
		pick := int32(r.Intn(fr.NodeCount()-1) + 1)
		src := bat.NodeRef{Frag: ref.Frag, Pre: pick}
		fb := NewFragBuilder(s)
		fb.StartElem("w")
		if err := fb.CopyFrom(fr, src.Pre); err != nil {
			return false
		}
		fb.EndElem()
		id, err := fb.Finish()
		if err != nil {
			return false
		}
		if err := s.Frag(id).Validate(); err != nil {
			t.Logf("copy invariant: %v", err)
			return false
		}
		want := "<w>" + s.Serialize(src) + "</w>"
		return s.Serialize(bat.NodeRef{Frag: id, Pre: 0}) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWhitespaceOnlyTextDropped(t *testing.T) {
	s := NewStore()
	ref, err := s.LoadDocumentString("ws.xml", "<a>\n  <b>x</b>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	f := s.Frag(ref.Frag)
	// doc, a, b, "x" — the indentation text nodes are stripped.
	if f.NodeCount() != 4 {
		t.Errorf("node count = %d, want 4", f.NodeCount())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s, doc := loadTiny(t)
	// Add a constructed fragment so both kinds persist.
	fb := NewFragBuilder(s)
	fb.StartElem("made")
	fb.AddText("content")
	fb.EndElem()
	frag, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.ReadSnapshot(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	got, err := restored.Doc("tiny.xml")
	if err != nil || got != doc {
		t.Fatalf("doc registry: %v %v", got, err)
	}
	if restored.Serialize(doc) != tinyDoc {
		t.Errorf("restored serialization = %q", restored.Serialize(doc))
	}
	if restored.Serialize(bat.NodeRef{Frag: frag, Pre: 0}) != "<made>content</made>" {
		t.Error("constructed fragment lost")
	}
	// Surrogates still resolve identically.
	if restored.TagID("site") != s.TagID("site") {
		t.Error("tag surrogates diverged")
	}
	if restored.Report().Total() != s.Report().Total() {
		t.Error("storage accounting diverged")
	}
}

func TestSnapshotIntoNonEmptyStoreFails(t *testing.T) {
	s, _ := loadTiny(t)
	var buf strings.Builder
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadSnapshot(strings.NewReader(buf.String())); err == nil {
		t.Error("reading into a non-empty store must fail")
	}
	fresh := NewStore()
	if err := fresh.ReadSnapshot(strings.NewReader("garbage")); err == nil {
		t.Error("corrupt snapshot must fail")
	}
}

func TestPoolLookupMiss(t *testing.T) {
	s, _ := loadTiny(t)
	if s.TagID("nonexistent") != -1 {
		t.Error("unknown tag must map to -1")
	}
	if s.AttrNameID("nonexistent") != -1 {
		t.Error("unknown attr name must map to -1")
	}
	if s.TagID("site") < 0 {
		t.Error("known tag must resolve")
	}
}

// TestNewStoreFromPartsKeepsSealedFragments: adopting a live store's
// Parts (the clone path behind collection mutation) must not reseal the
// shared fragments — resealing reassigns and refills attrOfs while
// in-flight queries over the base store read it through Attrs. Fresh
// fragments (bare columns from the persistent store) still get sealed.
func TestNewStoreFromPartsKeepsSealedFragments(t *testing.T) {
	base, _ := loadTiny(t)
	parts := base.Parts()
	before := parts.Frags[0].attrOfs
	if before == nil {
		t.Fatal("loaded fragment should already be sealed")
	}

	clone, err := NewStoreFromParts(parts)
	if err != nil {
		t.Fatal(err)
	}
	after := clone.Frag(0).attrOfs
	if &after[0] != &before[0] {
		t.Error("adopted fragment was resealed: shared attrOfs slice replaced")
	}

	// A bare fragment — exported columns only, as pfstore.Open hands over —
	// must be sealed on adoption so the attribute axis works.
	src := parts.Frags[0]
	bare := &Fragment{
		Name: src.Name, Size: src.Size, Level: src.Level, Kind: src.Kind,
		Prop: src.Prop, Parent: src.Parent,
		AttrOwner: src.AttrOwner, AttrName: src.AttrName, AttrVal: src.AttrVal,
	}
	fresh, err := NewStoreFromParts(Parts{
		Frags: []*Fragment{bare},
		Docs:  map[string]int32{"tiny.xml": 0},
		Pools: parts.Pools,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Frag(0).attrOfs == nil {
		t.Fatal("bare fragment was not sealed on adoption")
	}
	for p := int32(0); p < int32(src.NodeCount()); p++ {
		glo, ghi := fresh.Frag(0).Attrs(p)
		wlo, whi := src.Attrs(p)
		if glo != wlo || ghi != whi {
			t.Fatalf("node %d attr range = [%d,%d), want [%d,%d)", p, glo, ghi, wlo, whi)
		}
	}
}
