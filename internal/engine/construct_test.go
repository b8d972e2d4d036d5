package engine

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// peopleDoc is n <p> subtrees of four nodes and one attribute each under
// one root — the shape ε copies in the XMark join queries.
func peopleDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<p id="p%d"><n>name%d</n><c/></p>`, i, i%50)
	}
	sb.WriteString("</r>")
	return sb.String()
}

func loadPeople(tb testing.TB, n int) (*Engine, *xenc.Fragment, int32) {
	tb.Helper()
	e := New(xenc.NewStore())
	doc, err := e.Store.LoadDocumentString("p.xml", peopleDoc(n))
	if err != nil {
		tb.Fatal(err)
	}
	return e, e.Store.Frag(doc.Frag), doc.Frag
}

// childRefs lists the children of the node at pre as refs.
func childRefs(f *xenc.Fragment, frag, pre int32) bat.NodeVec {
	var out bat.NodeVec
	for c := pre + 1; c <= pre+f.Size[pre]; c += f.Size[c] + 1 {
		out = append(out, bat.NodeRef{Frag: frag, Pre: c})
	}
	return out
}

// wrapEach is the content table giving iteration i the single item i, and
// the qname table naming every element tag.
func wrapEach(tag string, items bat.Vec) (qnames, content *bat.Table) {
	n := items.Len()
	names := make(bat.StrVec, n)
	for i := range names {
		names[i] = tag
	}
	return bat.MustTable("iter", bat.Ramp(1, n), "item", names),
		bat.MustTable("iter", bat.Ramp(1, n), "pos", bat.ConstInt(1, n), "item", items)
}

// TestConstructAllocBudget: ε reserves its fragment once from the size
// pass and copies subtrees as column ranges, so it allocates the same
// handful of slices — the nine columns, the output vector, the tables —
// whether it copies 400 nodes or 40 000: as the binary ε, and as a
// skeleton whose root carries an attribute slot and a child element
// around the copy. (The per-node builder grew five columns by doubling
// and the attribute table with them.)
func TestConstructAllocBudget(t *testing.T) {
	const budget = 24
	// A collection cycle during the count runs the cleanups other
	// packages linked into the test binary registered (unique's, for
	// net/netip), and their allocations are not ε's. The sizes allocate
	// about 30 MB in all.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	skel := mustSkel("<w id=$0><copy>$1</copy></w>")
	for _, shape := range []string{"binary", "skeleton"} {
		first := -1.0
		for _, nodes := range []int{400, 4000, 40000} {
			e, f, frag := loadPeople(t, nodes/4)
			q, c := wrapEach("copy", childRefs(f, frag, 1))
			ids := bat.MustTable("iter", q.MustCol("iter"), "pos", c.MustCol("pos"), "item", q.MustCol("item"))
			got := testing.AllocsPerRun(10, func() {
				var out *bat.Table
				var err error
				if shape == "binary" {
					out, err = e.binaryElem(q, c)
				} else {
					out, err = e.evalElem(q, skel, []*bat.Table{ids, c})
				}
				if err != nil || out.Rows() != nodes/4 {
					t.Fatalf("%s ε: %v", shape, err)
				}
			})
			if first < 0 {
				first = got
			}
			if got > budget || got != first {
				t.Errorf("%s ε copying %d nodes allocates %.0f times, want the %.0f of the smallest size and at most %d", shape, nodes, got, first, budget)
			}
		}
	}
}

// TestElemSizeIsExact: over random content — atomics with empty strings
// among them, text nodes beside atomics and beside each other, elements,
// comments, attribute refs, a document node — the size pass reserves
// exactly what the fill pass appends: every column of the constructed
// fragment is full to its capacity, the fragment validates, and no element
// is left with two adjacent text children.
func TestElemSizeIsExact(t *testing.T) {
	e := New(xenc.NewStore())
	fx := newContentFixture(t, e)
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 400; trial++ {
		var iters, poss bat.IntVec
		var items bat.ItemVec
		elems := 1 + r.Intn(5)
		for it := 1; it <= elems; it++ {
			pos := int64(0)
			add := func(item bat.Item) {
				pos++
				iters, poss, items = append(iters, int64(it)), append(poss, pos), append(items, item)
			}
			for i, n := 0, r.Intn(3); i < n; i++ {
				add(fx.attrRefs[i])
			}
			for i, n := 0, r.Intn(7); i < n; i++ {
				add(fx.item(r))
			}
		}
		names := make(bat.StrVec, elems)
		for i := range names {
			names[i] = "e"
		}
		out, err := e.binaryElem(bat.MustTable("iter", bat.Ramp(1, elems), "item", names), seqTable(iters, poss, items))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertExact(t, fmt.Sprintf("trial %d (content %v)", trial, items), e.Store.Frag(out.MustCol("item").(bat.NodeVec)[0].Frag))
	}
}

// contentFixture is the random constructor content the size and skeleton
// tests draw from: every node of a document whose text sits beside its
// root element (copying the document node puts a text first and last
// among the copied siblings), three constructed texts, atomics with empty
// strings among them, and three attribute refs.
type contentFixture struct {
	pool     []bat.Item
	atoms    []bat.Item
	attrRefs []bat.Item
}

func newContentFixture(t *testing.T, e *Engine) *contentFixture {
	t.Helper()
	doc, err := e.Store.LoadDocumentString("m.xml",
		`head<r><a x="1" y="2">p<b/>q</a>lone<a x="3"><!--c-->s<b z="4">t</b></a><b/></r>tail`)
	if err != nil {
		t.Fatal(err)
	}
	texts, err := e.evalText(bat.MustTable("iter", bat.Ramp(1, 3), "item", bat.StrVec{"τ1", "τ2", "τ3"}))
	if err != nil {
		t.Fatal(err)
	}
	fx := &contentFixture{
		atoms: []bat.Item{bat.Str(""), bat.Str("s"), bat.Untyped(""), bat.Untyped("u"), bat.Int(7), bat.Float(1.5), bat.Bool(true)},
		attrRefs: []bat.Item{
			bat.Node(bat.NodeRef{Frag: doc.Frag, Pre: xenc.AttrBase}),     // x
			bat.Node(bat.NodeRef{Frag: doc.Frag, Pre: xenc.AttrBase + 1}), // y
			bat.Node(bat.NodeRef{Frag: doc.Frag, Pre: xenc.AttrBase + 3}), // z
		},
	}
	f := e.Store.Frag(doc.Frag)
	for p := int32(0); p < int32(f.NodeCount()); p++ {
		fx.pool = append(fx.pool, bat.Node(bat.NodeRef{Frag: doc.Frag, Pre: p}))
	}
	for _, n := range texts.MustCol("item").(bat.NodeVec) {
		fx.pool = append(fx.pool, bat.Node(n))
	}
	return fx
}

// item draws an atomic or a node, evenly.
func (fx *contentFixture) item(r *rand.Rand) bat.Item {
	if r.Intn(2) == 0 {
		return fx.atoms[r.Intn(len(fx.atoms))]
	}
	return fx.pool[r.Intn(len(fx.pool))]
}

// seqTable is an iter|pos|item table, typed even when empty.
func seqTable(iters, poss bat.IntVec, items bat.ItemVec) *bat.Table {
	if len(items) == 0 {
		return bat.MustTable("iter", bat.IntVec{}, "pos", bat.IntVec{}, "item", bat.ItemVec{})
	}
	return bat.MustTable("iter", iters, "pos", poss, "item", items)
}

// assertExact fails unless the constructed fragment validates, every one
// of its columns is full to its capacity — the size pass reserved exactly
// what the fill pass appended — and no element has two adjacent text
// children.
func assertExact(t *testing.T, label string, nf *xenc.Fragment) {
	t.Helper()
	if err := nf.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for name, slack := range map[string]int{
		"Size": cap(nf.Size) - len(nf.Size), "Level": cap(nf.Level) - len(nf.Level),
		"Kind": cap(nf.Kind) - len(nf.Kind), "Prop": cap(nf.Prop) - len(nf.Prop),
		"Parent":    cap(nf.Parent) - len(nf.Parent),
		"AttrOwner": cap(nf.AttrOwner) - len(nf.AttrOwner), "AttrName": cap(nf.AttrName) - len(nf.AttrName),
		"AttrVal": cap(nf.AttrVal) - len(nf.AttrVal),
	} {
		if slack != 0 {
			t.Fatalf("%s: column %s has %d rows of slack (%d nodes, %d attrs): the size pass miscounted",
				label, name, slack, nf.NodeCount(), nf.AttrCount())
		}
	}
	for p := int32(1); p < int32(nf.NodeCount()); p++ {
		if nf.Kind[p] == xenc.KindText && nf.Kind[p-1] == xenc.KindText && nf.Parent[p] == nf.Parent[p-1] {
			t.Fatalf("%s: adjacent text siblings at %d, %d", label, p-1, p)
		}
	}
}

// TestConstructorTextMerge pins the merged string itself: atomics join
// with a space, text nodes join with nothing, in content order.
func TestConstructorTextMerge(t *testing.T) {
	e := New(xenc.NewStore())
	texts, err := e.evalText(bat.MustTable("iter", bat.Ramp(1, 2), "item", bat.StrVec{"a", "b"}))
	if err != nil {
		t.Fatal(err)
	}
	tn := texts.MustCol("item").(bat.NodeVec)
	out, err := e.binaryElem(
		bat.MustTable("iter", bat.IntVec{1}, "item", bat.StrVec{"e"}),
		bat.MustTable("iter", bat.ConstInt(1, 5), "pos", bat.Ramp(1, 5),
			"item", bat.ItemVec{bat.Node(tn[0]), bat.Str("x"), bat.Int(1), bat.Node(tn[1]), bat.Node(tn[0])}))
	if err != nil {
		t.Fatal(err)
	}
	root := out.MustCol("item").(bat.NodeVec)[0]
	if got := e.Store.Serialize(root); got != "<e>ax 1ba</e>" {
		t.Errorf("merged content = %q, want %q", got, "<e>ax 1ba</e>")
	}
	if n := e.Store.Frag(root.Frag).NodeCount(); n != 2 {
		t.Errorf("%d nodes, want the element and one text", n)
	}
}

// TestConstructorTextRunIsLinear: an element built from 30 000 adjacent
// text nodes holds one text whose string is interned once. Interning each
// prefix of the run would leave n²/2 bytes in the store-wide text pool —
// gigabytes here — for good.
func TestConstructorTextRunIsLinear(t *testing.T) {
	const n = 30000
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<t>w%05d</t>", i)
	}
	sb.WriteString("</r>")
	e := New(xenc.NewStore())
	doc, err := e.Store.LoadDocumentString("t.xml", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	f := e.Store.Frag(doc.Frag)
	var texts bat.NodeVec
	for p, k := range f.Kind {
		if k == xenc.KindText {
			texts = append(texts, bat.NodeRef{Frag: doc.Frag, Pre: int32(p)})
		}
	}
	if len(texts) != n {
		t.Fatalf("%d text nodes in the source, want %d", len(texts), n)
	}
	before := e.Store.Report().TextPoolBytes
	out, err := e.binaryElem(
		bat.MustTable("iter", bat.IntVec{1}, "item", bat.StrVec{"e"}),
		bat.MustTable("iter", bat.ConstInt(1, n), "pos", bat.Ramp(1, n), "item", texts))
	if err != nil {
		t.Fatal(err)
	}
	root := out.MustCol("item").(bat.NodeVec)[0]
	if got := e.Store.Frag(root.Frag).NodeCount(); got != 2 {
		t.Errorf("%d nodes, want the element and one text", got)
	}
	merged := e.Store.StringValue(root)
	if len(merged) != 6*n || !strings.HasPrefix(merged, "w00000w00001") || !strings.HasSuffix(merged, "w29999") {
		t.Errorf("merged text has %d bytes, want %d in source order", len(merged), 6*n)
	}
	if grew := e.Store.Report().TextPoolBytes - before; grew > int64(2*len(merged)) {
		t.Errorf("text pool grew by %d bytes for a %d-byte text", grew, len(merged))
	}
}

// TestAttrConstructorPairsByIter: names and values meet by iter, whatever
// order the rows arrive in; a missing value is the empty string.
func TestAttrConstructorPairsByIter(t *testing.T) {
	e := New(xenc.NewStore())
	out, err := e.evalAttrC(
		bat.MustTable("iter", bat.IntVec{3, 1, 2}, "item", bat.StrVec{"c", "a", "b"}),
		bat.MustTable("iter", bat.IntVec{3, 1}, "item", bat.ItemVec{bat.Int(30), bat.Str("x<y")}))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, n := range out.MustCol("item").(bat.NodeVec) {
		got = append(got, e.Store.Serialize(n))
	}
	if want := `a="x&lt;y" b="" c="30"`; strings.Join(got, " ") != want {
		t.Errorf("attributes = %q, want %q", strings.Join(got, " "), want)
	}
	if _, err := e.evalAttrC(
		bat.MustTable("iter", bat.IntVec{1}, "item", bat.StrVec{"a"}),
		bat.MustTable("iter", bat.IntVec{1, 1}, "item", bat.StrVec{"x", "y"})); err == nil {
		t.Error("two values for one iter must fail")
	}
}

var constructSink *bat.Table

// binaryElem runs the paper's binary ε — a name table and one content
// table — through the skeleton kernel.
func (e *Engine) binaryElem(qnames, content *bat.Table) (*bat.Table, error) {
	return e.evalElem(qnames, binarySkel, []*bat.Table{content})
}

var binarySkel = mustSkel("<*>$0</*>")

func mustSkel(src string) algebra.Skeleton {
	s, err := algebra.ParseSkeleton(src)
	if err != nil {
		panic(err)
	}
	return s
}

// BenchmarkElemConstruct measures ε in the three shapes the XMark
// constructor queries have.
//
//	nested       Q10: a three-level skeleton around one copy of document
//	             text, 2 000 iterations
//	many-tiny    Q8/Q9/Q11/Q12: <item person="…">{count}</item>, 2 550
//	             iterations of one attribute slot and one integer
//	one-large    one iteration copying one 40 000-node subtree
func BenchmarkElemConstruct(b *testing.B) {
	b.Run("nested", func(b *testing.B) {
		const people = 2000
		e, f, frag := loadPeople(b, people)
		var leaves bat.NodeVec // the text under each <n>
		for _, p := range childRefs(f, frag, 1) {
			leaves = append(leaves, bat.NodeRef{Frag: frag, Pre: p.Pre + 2})
		}
		loop, content := wrapEach("", leaves)
		skel := mustSkel("<personne><coordonnees><nom>$0</nom></coordonnees></personne>")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if constructSink, err = e.evalElem(loop, skel, []*bat.Table{content}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("many-tiny", func(b *testing.B) {
		const n = 2550
		e := New(xenc.NewStore())
		values, counts := make(bat.ItemVec, n), make(bat.IntVec, n)
		for i := 0; i < n; i++ {
			values[i], counts[i] = bat.Untyped(fmt.Sprintf("Name %d", i)), int64(i%40)
		}
		iters, ones := bat.Ramp(1, n), bat.ConstInt(1, n)
		loop := bat.MustTable("iter", iters)
		slots := []*bat.Table{
			bat.MustTable("iter", iters, "pos", ones, "item", values),
			bat.MustTable("iter", iters, "pos", ones, "item", counts),
		}
		skel := mustSkel("<item person=$0>$1</item>")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if constructSink, err = e.evalElem(loop, skel, slots); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-large", func(b *testing.B) {
		e, _, frag := loadPeople(b, 10000)
		q, c := wrapEach("all", bat.NodeVec{{Frag: frag, Pre: 1}})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if constructSink, err = e.binaryElem(q, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}
