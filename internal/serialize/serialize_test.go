package serialize

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

func TestResultOrdersAndSpaces(t *testing.T) {
	store := xenc.NewStore()
	tbl := bat.MustTable(
		"iter", bat.IntVec{1, 1, 1},
		"pos", bat.IntVec{3, 1, 2}, // deliberately out of order
		"item", bat.ItemVec{bat.Str("c"), bat.Str("a"), bat.Int(5)},
	)
	out, err := Result(store, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if out != "a 5 c" {
		t.Errorf("result = %q, want %q", out, "a 5 c")
	}
}

func TestResultMixesNodesAndAtomics(t *testing.T) {
	store := xenc.NewStore()
	doc, err := store.LoadDocumentString("d.xml", "<a>x</a>")
	if err != nil {
		t.Fatal(err)
	}
	tbl := bat.MustTable(
		"iter", bat.IntVec{1, 1, 1, 1},
		"pos", bat.IntVec{1, 2, 3, 4},
		"item", bat.ItemVec{
			bat.Int(1), bat.Int(2), bat.Node(bat.NodeRef{Frag: doc.Frag, Pre: 1}), bat.Int(3),
		},
	)
	out, err := Result(store, tbl)
	if err != nil {
		t.Fatal(err)
	}
	// Space between adjacent atomics, none around nodes.
	if out != "1 2<a>x</a>3" {
		t.Errorf("result = %q", out)
	}
}

func TestResultRequiresSchema(t *testing.T) {
	store := xenc.NewStore()
	bad := bat.MustTable("x", bat.IntVec{1})
	if _, err := Result(store, bad); err == nil {
		t.Error("missing iter|pos|item must fail")
	}
}

func TestItems(t *testing.T) {
	tbl := bat.MustTable(
		"iter", bat.IntVec{2, 1},
		"pos", bat.IntVec{1, 1},
		"item", bat.ItemVec{bat.Str("second"), bat.Str("first")},
	)
	items, err := Items(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].S != "first" || items[1].S != "second" {
		t.Errorf("items = %v", items)
	}
}

func TestEmptyResult(t *testing.T) {
	store := xenc.NewStore()
	tbl := bat.MustTable("iter", bat.IntVec{}, "pos", bat.IntVec{}, "item", bat.ItemVec{})
	out, err := Result(store, tbl)
	if err != nil || out != "" {
		t.Errorf("empty result: %q, %v", out, err)
	}
}

// TestResultNodeColumn: a node-typed item column (what every constructor
// query returns) serializes like the same refs boxed as items.
func TestResultNodeColumn(t *testing.T) {
	store := xenc.NewStore()
	doc, err := store.LoadDocumentString("d.xml", `<r><a k="&lt;é">x &amp; y</a><b/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	a, b := bat.NodeRef{Frag: doc.Frag, Pre: 2}, bat.NodeRef{Frag: doc.Frag, Pre: 4}
	typed, err := Result(store, bat.MustTable("iter", bat.IntVec{1, 1}, "pos", bat.IntVec{2, 1}, "item", bat.NodeVec{a, b}))
	if err != nil {
		t.Fatal(err)
	}
	boxed, err := Result(store, bat.MustTable("iter", bat.IntVec{1, 1}, "pos", bat.IntVec{2, 1}, "item", bat.ItemVec{bat.Node(a), bat.Node(b)}))
	if err != nil {
		t.Fatal(err)
	}
	if want := `<b/><a k="&lt;é">x &amp; y</a>`; typed != want || boxed != want {
		t.Errorf("typed %q, boxed %q, want %q", typed, boxed, want)
	}
}

// TestResultOwnsItsBytes: the scratch buffer is reused by the next call,
// so a returned string must not alias it — and a warmed-up call allocates
// about its output, not the doublings of a buffer grown from empty.
func TestResultOwnsItsBytes(t *testing.T) {
	store := xenc.NewStore()
	word := func(w string, n int) *bat.Table {
		items := make(bat.StrVec, n)
		for i := range items {
			items[i] = w
		}
		return bat.MustTable("iter", bat.ConstInt(1, n), "pos", bat.Ramp(1, n), "item", items)
	}
	first, err := Result(store, word("first", 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Result(store, word("other", 3)); err != nil {
		t.Fatal(err)
	}
	if first != "first first first" {
		t.Fatalf("a later call rewrote an earlier result: %q", first)
	}

	big := word(strings.Repeat("x", 99), 10000) // 1 MB of output
	if resultSink, err = Result(store, big); err != nil {
		t.Fatal(err)
	}
	// The cheapest of a few runs: a collection (or the race detector,
	// which makes the pool forget a quarter of what it is handed) may cost
	// any one run its pooled buffer.
	cheapest := ^uint64(0)
	for i := 0; i < 8; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if resultSink, err = Result(store, big); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		cheapest = min(cheapest, after.TotalAlloc-before.TotalAlloc)
	}
	// The string itself and the sort's index.
	if limit := uint64(len(resultSink) * 3 / 2); cheapest > limit {
		t.Errorf("Result allocates %d bytes for %d bytes of output (limit %d)", cheapest, len(resultSink), limit)
	}
}

var resultSink string

// BenchmarkSerializeResult renders a result of about 1 MB: 4 000 element
// subtrees with an attribute, nested elements, and text that needs
// escaping now and then — the post-processor's linear scan.
func BenchmarkSerializeResult(b *testing.B) {
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&doc, `<item id="item%d"><name>name of item %d</name><description><text>%s</text></description><n>%d &amp; %d</n></item>`,
			i, i, strings.Repeat("lorem ipsum dolor sit amet ", 6), i, i+1)
	}
	doc.WriteString("</r>")
	store := xenc.NewStore()
	ref, err := store.LoadDocumentString("big.xml", doc.String())
	if err != nil {
		b.Fatal(err)
	}
	f := store.Frag(ref.Frag)
	var items bat.NodeVec
	for c := int32(2); c <= 1+f.Size[1]; c += f.Size[c] + 1 {
		items = append(items, bat.NodeRef{Frag: ref.Frag, Pre: c})
	}
	n := len(items)
	tbl := bat.MustTable("iter", bat.ConstInt(1, n), "pos", bat.Ramp(1, n), "item", items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resultSink, err = Result(store, tbl); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(resultSink)))
}
