package xenc

import (
	"strings"
	"testing"

	"pathfinder/internal/bat"
)

// treeEmitter is a streamed fragment whose tree i is trees[i].
type treeEmitter []string

func (e treeEmitter) AppendTree(dst []byte, root int32) []byte { return append(dst, e[root]...) }

// TestStreamedFragment: a streamed id serializes through its emitter,
// Resolve reports it, and Frag refuses it with a message naming what it
// is.
func TestStreamedFragment(t *testing.T) {
	s, _ := loadTiny(t)
	v := s.Scratch()
	id := v.AddStreamed(treeEmitter{"<x/>", "<y>1</y>"})
	if got := v.Serialize(bat.NodeRef{Frag: id, Pre: 1}); got != "<y>1</y>" {
		t.Errorf("streamed tree 1 serializes as %q", got)
	}
	if v.Resolve(id) != nil {
		t.Error("Resolve returned a fragment for a streamed id")
	}
	if id < PrivateBase {
		t.Errorf("a view's streamed id %d is not private", id)
	}
	if s.FragCount() != 1 {
		t.Errorf("the base store holds %d fragments, want its document only", s.FragCount())
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "streamed fragment") {
			t.Errorf("Frag on a streamed id: recovered %v, want a panic naming a streamed fragment", r)
		}
	}()
	v.Frag(id)
}

// TestSnapshotsHoldNoStreamedFragment: a streamed fragment registered on
// a base store is handed out by Parts — the persistence entry point
// pfstore.Save writes — as an empty one, so the ids after it keep their
// numbers and no stored file holds an emitter. pfstore's
// TestSaveSkipsStreamedFragments takes the same store through a file.
func TestSnapshotsHoldNoStreamedFragment(t *testing.T) {
	s, _ := loadTiny(t)
	s.AddStreamed(treeEmitter{"<x/>"})
	second, err := s.LoadDocumentString("second.xml", "<b>2</b>")
	if err != nil {
		t.Fatal(err)
	}
	p := s.Parts()
	for i, f := range p.Frags {
		if f.emit != nil {
			t.Errorf("Parts hands out streamed fragment %d", i)
		}
	}
	if len(p.Frags) != s.FragCount() || p.Frags[1].NodeCount() != 0 {
		t.Errorf("Parts holds %d fragments, want %d with an empty one at 1", len(p.Frags), s.FragCount())
	}
	if id := p.Docs["second.xml"]; id != second.Frag {
		t.Errorf("second.xml is fragment %d in Parts, want %d", id, second.Frag)
	}
}

// TestSerializedWhitespaceReparses: the whitespace characters a parser
// would change on the way back in are written as references — CR in
// text, TAB, LF and CR in attribute values — so the loader reads back
// what was stored.
func TestSerializedWhitespaceReparses(t *testing.T) {
	b := NewFragBuilder(NewStore())
	b.StartElem("a")
	if err := b.AddAttr("b", "x\ny\tz\rw"); err != nil {
		t.Fatal(err)
	}
	b.AddText("c\rd\ne\tf")
	b.EndElem()
	id, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	const want = "<a b=\"x&#xA;y&#x9;z&#xD;w\">c&#xD;d\ne\tf</a>"
	if got := b.store.Serialize(bat.NodeRef{Frag: id}); got != want {
		t.Errorf("serialized as %q, want %q", got, want)
	}

	s := NewStore()
	doc, err := s.LoadDocumentString("cr.xml", "<t>c&#13;d</t>")
	if err != nil {
		t.Fatal(err)
	}
	out := s.Serialize(doc)
	again := NewStore()
	doc2, err := again.LoadDocumentString("cr.xml", out)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := again.StringValue(doc2), s.StringValue(doc); got != want {
		t.Errorf("shred → serialize (%q) → shred reads %q, want %q", out, got, want)
	}
}

// FuzzSerializeRoundTrip: a document the loader accepts serializes to
// text the loader reads back to the same content — the same string value,
// the same attribute values in document order — and that serializes to
// the same text again.
func FuzzSerializeRoundTrip(f *testing.F) {
	for _, s := range loadSeeds {
		f.Add(s)
	}
	for _, s := range []string{
		"<t>c&#13;d</t>", `<a b="x&#10;y&#9;z&#13;"/>`, "<a b=\"1\r\n2\">x\r\ny</a>",
		`<a v="&lt;&gt;&amp;&apos;&quot;"/>`, `<a><![CDATA[<&>]]>x</a>`, `<a>]]&gt;</a>`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		first := NewStore()
		ref, err := first.LoadDocumentString("f.xml", doc)
		if err != nil {
			return
		}
		out := first.Serialize(ref)
		second := NewStore()
		ref2, err := second.LoadDocumentString("f.xml", out)
		if err != nil {
			t.Fatalf("serialization does not load: %v\ninput:  %q\noutput: %q", err, doc, out)
		}
		if a, b := first.StringValue(ref), second.StringValue(ref2); a != b {
			t.Fatalf("string value %q reads back as %q\ninput:  %q\noutput: %q", a, b, doc, out)
		}
		if a, b := attrValues(first, ref), attrValues(second, ref2); a != b {
			t.Fatalf("attribute values %q read back as %q\ninput:  %q\noutput: %q", a, b, doc, out)
		}
		if again := second.Serialize(ref2); again != out {
			t.Fatalf("second serialization differs\nfirst:  %q\nsecond: %q", out, again)
		}
	})
}

// attrValues joins a loaded document's attribute values in document
// order.
func attrValues(s *Store, doc bat.NodeRef) string {
	f := s.Frag(doc.Frag)
	var sb strings.Builder
	for _, v := range f.AttrVal {
		sb.WriteString(s.AttrVal(v))
		sb.WriteByte(0)
	}
	return sb.String()
}
