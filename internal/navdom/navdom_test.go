package navdom

import (
	"fmt"
	"strings"
	"testing"

	"pathfinder/internal/corpus"
	"pathfinder/internal/xqcore"
)

func newDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if _, err := db.LoadString("auction.xml", corpus.AuctionDoc); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLoadAndSerializeRoundTrip(t *testing.T) {
	db := NewDB()
	src := `<a x="1"><b>hi</b><c/>tail</a>`
	doc, err := db.LoadString("r.xml", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := Serialize(doc); got != src {
		t.Errorf("round trip: %q", got)
	}
}

func TestDocumentOrderAndRoot(t *testing.T) {
	db := newDB(t)
	doc, _ := db.Doc("auction.xml")
	site := doc.Children[0]
	people := site.Children[0]
	if !site.Before(people) {
		t.Error("parent before child")
	}
	deep := people.Children[0].Children[0] // <name>
	if deep.Root() != doc {
		t.Error("root walk")
	}
	if got := people.Children[0].StringValue(); got != "Alice50000" {
		t.Errorf("string value = %q", got)
	}
}

func TestDuplicateLoadAndMissingDoc(t *testing.T) {
	db := newDB(t)
	if _, err := db.LoadString("auction.xml", "<x/>"); err == nil {
		t.Error("duplicate load must fail")
	}
	if _, err := db.Doc("nope.xml"); err == nil {
		t.Error("missing doc must fail")
	}
}

// The loader rejects what the shredder rejects of the well-formedness
// constraints RawToken leaves unchecked: end tags that do not match their
// start tags and repeated attributes. (A reference to a surrogate reaches
// it already decoded to U+FFFD, so only the shredder rejects that.)
func TestLoadRejectsIllFormed(t *testing.T) {
	for _, doc := range []string{`<a></b>`, `<a><b></c></a>`, `</a>`, `<a x="1" x="2"/>`, `<a xmlns:p="1" xmlns:p="2"/>`} {
		if _, err := NewDB().LoadString("bad.xml", doc); err == nil {
			t.Errorf("%s: loaded, want an error", doc)
		}
	}
}

func runNav(t *testing.T, db *DB, src string) string {
	t.Helper()
	ip := NewInterp(db)
	out, err := ip.Run(src, xqcore.Options{ContextDoc: "auction.xml"})
	if err != nil {
		t.Fatalf("navdom run %q: %v", src, err)
	}
	return out
}

// A long run of adjacent text nodes merges into one text, in order; the
// run is assembled once, not re-copied per merge.
func TestConstructorLongTextRun(t *testing.T) {
	const n = 30000
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<t>w%05d</t>", i)
	}
	sb.WriteString("</r>")
	db := NewDB()
	if _, err := db.LoadString("auction.xml", sb.String()); err != nil {
		t.Fatal(err)
	}
	if got := runNav(t, db, `count(<e>{/r/t/text()}</e>/text())`); got != "1" {
		t.Errorf("text children = %s, want 1", got)
	}
	got := runNav(t, db, `string(<e>{"a", /r/t/text(), <i/>, /r/t[1]/text(), text{"z"}}</e>)`)
	if len(got) != 1+6*n+7 || !strings.HasPrefix(got, "aw00000w00001") || !strings.HasSuffix(got, "w29999w00000z") {
		t.Errorf("merged string has %d bytes: %.20s … %s", len(got), got, got[len(got)-20:])
	}
}

// TestRangeEdges: the int64-edge cases of corpus.IntEdges yield the
// relational engine's results, its size-guard error and FOAR0002, without
// wrapping around or allocating the span.
func TestRangeEdges(t *testing.T) {
	for _, c := range corpus.IntEdges {
		got, err := NewInterp(NewDB()).Run(c.Query, xqcore.Options{})
		switch {
		case c.Err != "" && (err == nil || !strings.Contains(err.Error(), c.Err)):
			t.Errorf("%s: got %q, err %v; want an error naming %q", c.Query, got, err, c.Err)
		case c.Err == "" && (err != nil || got != c.Want):
			t.Errorf("%s: got %q, err %v; want %q", c.Query, got, err, c.Want)
		}
	}
}

func TestInterpSmoke(t *testing.T) {
	db := newDB(t)
	cases := map[string]string{
		`1 + 2`:                             "3",
		`(1, 2, 3)`:                         "1 2 3",
		`for $v in (10,20) return $v + 100`: "110 120",
		`count(//person)`:                   "3",
		`//person[@id = "p2"]/name/text()`:  "Bob",
		`<a x="{1+1}">{"t"}</a>`:            `<a x="2">t</a>`,
		`sum(//price)`:                      "110",
		`some $p in //person satisfies $p/income > 80000`: "true",
	}
	for src, want := range cases {
		if got := runNav(t, db, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestValueIndexFastPath(t *testing.T) {
	db := newDB(t)
	q := `for $p in //person
	      return count(for $t in doc("auction.xml")/site/closed_auctions/closed_auction
	             where $t/buyer/@person = $p/@id return $t)`
	plain := runNav(t, db, q)

	db2 := newDB(t)
	db2.AddValueIndex("buyer", "person")
	if !db2.HasIndex("buyer", "person") {
		t.Fatal("index not registered")
	}
	indexed := runNav(t, db2, q)
	if plain != indexed {
		t.Errorf("index fast path changed results: %q vs %q", plain, indexed)
	}
	if plain != "2 1 0" {
		t.Errorf("Q8-shape result = %q", plain)
	}
}

func TestIndexLookup(t *testing.T) {
	db := newDB(t)
	db.AddValueIndex("buyer", "person")
	hits, ok := db.lookupIndex("buyer", "person", "p1")
	if !ok || len(hits) != 2 {
		t.Errorf("index hits = %d, ok=%v", len(hits), ok)
	}
	if _, ok := db.lookupIndex("seller", "person", "p1"); ok {
		t.Error("unindexed path must report !ok")
	}
}
