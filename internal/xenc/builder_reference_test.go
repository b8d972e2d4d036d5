package xenc

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pathfinder/internal/bat"
)

// refBuilder is the per-node fragment builder FragBuilder's bulk copy
// replaced: every copied node goes through openNode/closeNode, one row at
// a time, with its attributes re-added one by one. It is kept as the
// reference the column-range copy is compared against, column for column.
type refBuilder struct {
	store *Store
	sh    shredder
}

func newRefBuilder(s *Store) *refBuilder {
	return &refBuilder{store: s, sh: shredder{frag: &Fragment{}}}
}

func (b *refBuilder) startElem(tag string) {
	b.sh.openNode(KindElem, b.store.tags.Put(tag))
}

func (b *refBuilder) endElem() { b.sh.closeNode() }

// addText appends one text node, or extends the open element's last child
// when that is a text node (the constructor merge rule), found here by
// walking the children rather than by looking at the fragment's tail.
func (b *refBuilder) addText(text string) {
	if text == "" {
		return
	}
	f := b.sh.frag
	if len(b.sh.open) > 0 {
		owner := b.sh.open[len(b.sh.open)-1]
		last := int32(-1)
		for c := owner + 1; c < int32(len(f.Size)); c += f.Size[c] + 1 {
			last = c
		}
		if last >= 0 && f.Kind[last] == KindText {
			f.Prop[last] = b.store.texts.Put(b.store.texts.Get(f.Prop[last]) + text)
			return
		}
	}
	b.sh.openNode(KindText, b.store.texts.Put(text))
	b.sh.closeNode()
}

func (b *refBuilder) addAttr(name, val string) error {
	if len(b.sh.open) == 0 {
		return fmt.Errorf("attribute %q constructed outside an element", name)
	}
	owner := b.sh.open[len(b.sh.open)-1]
	f := b.sh.frag
	if int32(len(f.Size))-1 != owner {
		return fmt.Errorf("XQTY0024: attribute %q follows element content", name)
	}
	id := b.store.attrNames.Put(name)
	for i, o := range f.AttrOwner {
		if o == owner && f.AttrName[i] == id {
			return fmt.Errorf("XQDY0025: duplicate attribute %q", name)
		}
	}
	b.sh.addAttr(owner, id, b.store.attrVals.Put(val))
	return nil
}

func (b *refBuilder) copyNode(src bat.NodeRef) error {
	sf := b.store.Frag(src.Frag)
	if src.Pre >= AttrBase {
		i := src.Pre - AttrBase
		return b.addAttr(b.store.attrNames.Get(sf.AttrName[i]), b.store.attrVals.Get(sf.AttrVal[i]))
	}
	if sf.Kind[src.Pre] != KindDoc {
		return b.copySubtree(sf, src.Pre)
	}
	// Copying a document node copies its children.
	end := src.Pre + sf.Size[src.Pre]
	for c := src.Pre + 1; c <= end; c += sf.Size[c] + 1 {
		if err := b.copySubtree(sf, c); err != nil {
			return err
		}
	}
	return nil
}

func (b *refBuilder) copySubtree(sf *Fragment, root int32) error {
	if sf.Kind[root] == KindText {
		b.addText(b.store.texts.Get(sf.Prop[root]))
		return nil
	}
	end := root + sf.Size[root]
	var opens []int32 // last pre of each open copied element
	for p := root; p <= end; p++ {
		for len(opens) > 0 && p > opens[len(opens)-1] {
			b.sh.closeNode()
			opens = opens[:len(opens)-1]
		}
		switch sf.Kind[p] {
		case KindElem:
			b.sh.openNode(KindElem, sf.Prop[p])
			lo, hi := sf.Attrs(p)
			for i := lo; i < hi; i++ {
				b.sh.addAttr(b.sh.open[len(b.sh.open)-1], sf.AttrName[i], sf.AttrVal[i])
			}
			opens = append(opens, p+sf.Size[p])
		case KindText, KindComment:
			b.sh.openNode(sf.Kind[p], sf.Prop[p])
			b.sh.closeNode()
		case KindDoc:
			return fmt.Errorf("nested document node at pre %d", p)
		}
	}
	for range opens {
		b.sh.closeNode()
	}
	return nil
}

func (b *refBuilder) finish() *Fragment {
	b.sh.frag.sealAttrs()
	return b.sh.frag
}

// forestXML writes a random document with what the copy has to carry:
// nesting, several attributes on inner elements, comments, and text both
// between and at the end of element content.
func forestXML(r *rand.Rand) string {
	var sb strings.Builder
	tags := []string{"a", "b", "c", "d", "e"}
	var emit func(d int)
	emit = func(d int) {
		tag := tags[r.Intn(len(tags))]
		sb.WriteString("<" + tag)
		for i, n := 0, r.Intn(4); i < n; i++ {
			fmt.Fprintf(&sb, ` k%d="v%d"`, i, r.Intn(5))
		}
		sb.WriteString(">")
		for i, n := 0, r.Intn(4); i < n && d < 4; i++ {
			switch r.Intn(4) {
			case 0:
				fmt.Fprintf(&sb, "t%d", r.Intn(10))
			case 1:
				fmt.Fprintf(&sb, "<!--c%d-->", r.Intn(3))
			default:
				emit(d + 1)
			}
		}
		sb.WriteString("</" + tag + ">")
	}
	// Comments beside the root element give the document node several
	// children to copy.
	if r.Intn(2) == 0 {
		sb.WriteString("<!--head-->")
	}
	emit(0)
	if r.Intn(2) == 0 {
		sb.WriteString("<!--tail-->")
	}
	return sb.String()
}

// builderOps drives both builders through one random constructor
// execution: several roots, attributes literal and by reference, text,
// nested literal elements, and node copies drawn from every fragment
// built so far — documents (the document node itself included, which
// copies its children), earlier constructed forests, and the last subtree
// of a fragment, whose range ends at the fragment's end.
type builderOps interface {
	startElem(tag string)
	endElem()
	addText(text string)
	addAttr(name, val string) error
	copyNode(src bat.NodeRef) error
}

type bulkOps struct{ *FragBuilder }

func (b bulkOps) startElem(tag string)           { b.StartElem(tag) }
func (b bulkOps) endElem()                       { b.EndElem() }
func (b bulkOps) addText(text string)            { b.AddText(text) }
func (b bulkOps) addAttr(name, val string) error { return b.AddAttr(name, val) }
func (b bulkOps) copyNode(src bat.NodeRef) error {
	return b.CopyFrom(b.store.Frag(src.Frag), src.Pre)
}

func randomNode(r *rand.Rand, s *Store, sources []int32) bat.NodeRef {
	id := sources[r.Intn(len(sources))]
	f := s.Frag(id)
	switch r.Intn(6) {
	case 0:
		return bat.NodeRef{Frag: id, Pre: 0} // a document node, or a forest's first root
	case 1:
		// The last subtree: a root of the forest's tail, or the last node.
		p := int32(f.NodeCount() - 1)
		for r.Intn(2) == 0 && f.Parent[p] >= 0 {
			p = f.Parent[p]
		}
		return bat.NodeRef{Frag: id, Pre: p}
	}
	return bat.NodeRef{Frag: id, Pre: int32(r.Intn(f.NodeCount()))}
}

func runBuilderOps(r *rand.Rand, s *Store, sources []int32, b builderOps) []string {
	var errs []string
	note := func(err error) {
		if err != nil {
			errs = append(errs, err.Error()[:9])
		}
	}
	var content func(depth int)
	content = func(depth int) {
		for i, n := 0, r.Intn(6); i < n; i++ {
			switch k := r.Intn(8); {
			case k == 0:
				b.addText(fmt.Sprintf("x%d", r.Intn(4)))
			case k == 1 && depth < 3:
				b.startElem("lit")
				if r.Intn(2) == 0 {
					note(b.addAttr("id", "7"))
				}
				content(depth + 1)
				b.endElem()
			default:
				note(b.copyNode(randomNode(r, s, sources)))
			}
		}
	}
	for root, roots := 0, 1+r.Intn(4); root < roots; root++ {
		b.startElem(fmt.Sprintf("r%d", r.Intn(3)))
		for i, n := 0, r.Intn(3); i < n; i++ {
			id := sources[r.Intn(len(sources))]
			if na := s.Frag(id).AttrCount(); na > 0 && r.Intn(2) == 0 {
				// An attribute ref as content; a repeated name is XQDY0025
				// in both builders.
				note(b.copyNode(bat.NodeRef{Frag: id, Pre: AttrBase + int32(r.Intn(na))}))
			} else {
				note(b.addAttr(fmt.Sprintf("n%d", r.Intn(3)), "v"))
			}
		}
		content(0)
		b.endElem()
		if r.Intn(4) == 0 {
			// A copy with no element open lands as roots of the forest.
			note(b.copyNode(randomNode(r, s, sources)))
		}
	}
	return errs
}

// TestBulkBuilderMatchesReference: the column-range copy against the
// per-node builder over seeded random forests, all eight columns and the
// attribute offsets, with the structural invariants checked on every
// output. Each seed builds three generations, so later ones copy from
// constructed fragments that were themselves copies.
func TestBulkBuilderMatchesReference(t *testing.T) {
	forests := 0
	for seed := int64(1); seed <= 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		doc, err := s.LoadDocumentString("f.xml", forestXML(r))
		if err != nil {
			t.Fatal(err)
		}
		sources := []int32{doc.Frag}
		for gen := 0; gen < 3; gen++ {
			progSeed := r.Int63()
			bulk, ref := NewFragBuilder(s), newRefBuilder(s)
			bulkErrs := runBuilderOps(rand.New(rand.NewSource(progSeed)), s, sources, bulkOps{bulk})
			refErrs := runBuilderOps(rand.New(rand.NewSource(progSeed)), s, sources, ref)
			if !reflect.DeepEqual(bulkErrs, refErrs) {
				t.Fatalf("seed %d gen %d: errors differ: bulk %v, reference %v", seed, gen, bulkErrs, refErrs)
			}
			id, err := bulk.Finish()
			if err != nil {
				t.Fatal(err)
			}
			got, want := s.Frag(id), ref.finish()
			if err := got.Validate(); err != nil {
				t.Fatalf("seed %d gen %d: bulk fragment invalid: %v", seed, gen, err)
			}
			for _, col := range []struct {
				name      string
				got, want any
			}{
				{"Size", got.Size, want.Size}, {"Level", got.Level, want.Level},
				{"Kind", got.Kind, want.Kind}, {"Prop", got.Prop, want.Prop},
				{"Parent", got.Parent, want.Parent},
				{"AttrOwner", got.AttrOwner, want.AttrOwner}, {"AttrName", got.AttrName, want.AttrName},
				{"AttrVal", got.AttrVal, want.AttrVal}, {"attrOfs", got.attrOfs, want.attrOfs},
			} {
				if !reflect.DeepEqual(col.got, col.want) {
					t.Fatalf("seed %d gen %d: column %s differs:\n bulk %v\n  ref %v", seed, gen, col.name, col.got, col.want)
				}
			}
			sources = append(sources, id)
			forests++
		}
	}
	if forests < 300 {
		t.Fatalf("only %d forests compared", forests)
	}
}
