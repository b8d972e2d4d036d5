package navdom

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/corpus"
	"pathfinder/internal/engine"
	"pathfinder/internal/opt"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

// runOptimized runs the relational pipeline with the optimizer pipeline
// in the loop, for three-way differential checks.
func runOptimized(src string, eng *engine.Engine, opts xqcore.Options) (string, error) {
	plan, _, err := core.CompileQuery(src, opts)
	if err != nil {
		return "", err
	}
	if plan, err = opt.Optimize(plan); err != nil {
		return "", err
	}
	res, err := eng.Eval(plan)
	if err != nil {
		return "", err
	}
	return serialize.Result(eng.Store, res)
}

const testDoc = `<site>
 <people>
  <person id="p1"><name>Alice</name><income>50000</income></person>
  <person id="p2"><name>Bob</name></person>
  <person id="p3"><name>Carol</name><income>90000</income></person>
 </people>
 <open_auctions>
  <open_auction id="a1"><seller person="p1"/><bidder><increase>5</increase></bidder><bidder><increase>20</increase></bidder><current>25</current></open_auction>
  <open_auction id="a2"><seller person="p3"/><current>7</current></open_auction>
 </open_auctions>
 <closed_auctions>
  <closed_auction><buyer person="p1"/><price>40</price></closed_auction>
  <closed_auction><buyer person="p1"/><price>60</price></closed_auction>
  <closed_auction><buyer person="p2"/><price>10</price></closed_auction>
 </closed_auctions>
</site>`

func newDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if _, err := db.LoadString("auction.xml", testDoc); err != nil {
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

// differentialQueries is the shared battery both engines must agree on.
var differentialQueries = []string{
	// literals, sequences, arithmetic
	`42`, `(1, 2, 3)`, `()`, `1 + 2 * 3`, `7 div 2`, `7 idiv 2`, `-(4) + 1`,
	`() + 1`, `1.5 * 2`,
	// comparisons and logic
	`1 < 2`, `(1,2,3) = 2`, `(1,2) != (1,2)`, `() = 1`, `1 eq 1`,
	`1 = 1 and 2 = 3`, `not(1 = 2)`, `"abc" lt "abd"`,
	// FLWOR
	`for $v in (10,20), $w in (100,200) return $v + $w`,
	`for $x in (1,2,3) return if ($x mod 2 = 1) then $x else ()`,
	`let $x := (1,2) return ($x, $x)`,
	`for $x in (3,1,2) order by $x return $x`,
	`for $x in (3,1,2) order by $x descending return $x`,
	`for $x at $i in ("a","b") return ($i, $x)`,
	`for $x in ("a","b","c") return position()`,
	`for $x in ("a","b","c") return last()`,
	// paths
	`count(//person)`, `count(//person/@id)`, `count(//node())`,
	`/site/people/person[1]/name/text()`,
	`/site/people/person[last()]/name/text()`,
	`count(//person[income])`,
	`//person[@id = "p2"]/name/text()`,
	`count(//increase/ancestor::open_auction)`,
	`count(//bidder/following-sibling::*)`,
	`count(//price/preceding::price)`,
	`count(//current/parent::open_auction)`,
	`count(//person/descendant-or-self::node())`,
	`count(//text()/ancestor::site)`,
	`data(//person[@id="p1"]/income)`,
	// functions
	`string(//person[1]/name)`, `string(())`, `string-length("hello")`,
	`concat("a","b","c")`, `contains("gold ring", "gold")`,
	`sum(//price)`, `max(//price)`, `min(//price)`, `avg((2,4))`,
	`count(())`, `sum(())`, `empty(())`, `exists(//person)`,
	`string-join(("a","b"), "-")`,
	// aggregates in loops (defaults)
	`for $p in //person return count($p/income)`,
	`for $p in //person return sum($p/income)`,
	// quantifiers
	`some $x in (1,2,3) satisfies $x > 2`,
	`every $x in (1,2,3) satisfies $x > 1`,
	`some $p in //person satisfies $p/income > 80000`,
	// node comparisons
	`(//person)[1] << (//person)[2]`,
	`(//person)[1] is (//person)[1]`,
	// constructors
	`<a/>`, `<a x="1">t</a>`, `<a>{1 + 1}</a>`, `<a>{(1,2)}</a>`,
	`<out>{//person[1]/name}</out>`,
	`element foo {"bar"}`, `text {"hi"}`, `text {()}`,
	`<e>{attribute n {42}}</e>`,
	`<p name="{//person[1]/name/text()}"/>`,
	`for $i in (1,2) return <n v="{$i}"/>`,
	// typeswitch
	`typeswitch (1) case xs:integer return "int" default return "other"`,
	`typeswitch (//person[1]) case element(person) return "p" default return "o"`,
	`typeswitch ((1,2)) case xs:integer return "one" case xs:integer+ return "many" default return "o"`,
	// where and joins
	`for $p in //person where $p/income > 60000 return $p/name/text()`,
	`for $p in //person where empty($p/income) return string($p/@id)`,
	`for $p in //person
	 return count(for $t in doc("auction.xml")/site/closed_auctions/closed_auction
	        where $t/buyer/@person = $p/@id return $t)`,
	`for $p in //person
	 return count(for $i in doc("auction.xml")/site/open_auctions/open_auction/bidder/increase
	        where $p/income > 5000 * $i return $i)`,
	// order by over nodes with empty keys
	`for $p in //person order by $p/income return string($p/@id)`,
	// order by referencing a let variable (substituted at normalization)
	`for $a in //open_auction
	 let $n := count($a/bidder)
	 order by $n descending, $a/@id
	 return <x b="{$n}"/>`,
	// UDF
	`declare function local:double($v) { 2 * $v };
	 for $p in //price return local:double($p)`,
	// document order / ddo
	`count(fs:distinct-doc-order((//person, //person)))`,
	`root((//name)[1]) is doc("auction.xml")`,
	// extended dialect: ranges, set operators, distinct-values, strings
	`1 to 5`,
	`for $i in 1 to 3 return $i * 10`,
	`count(2 to 1)`,
	`sum(for $p in //person return count(1 to count($p/income)))`,
	`count(//person | //price)`,
	`count(//person union //person)`,
	`count((//person, //price) intersect //person)`,
	`count((//person, //price) except //person)`,
	`//name | //name[1]`,
	`distinct-values((1, 2, 1, 3, 2))`,
	`distinct-values(//closed_auction/type)`,
	`count(distinct-values(//buyer/@person))`,
	`substring("motor car", 6)`,
	`substring("metadata", 4, 3)`,
	`substring("12345", 1.5, 2.6)`,
	`substring((), 2)`,
	`name((//person)[1])`,
	`name((//person)[1]/@id)`,
	`for $n in //person/name order by name($n) return 1`,
	// conjunctive join predicate (compiler unnests on the equi-conjunct)
	`for $p in //person
	 return count(for $t in doc("auction.xml")/site/closed_auctions/closed_auction
	        where $t/buyer/@person = $p/@id and $t/price > 50
	        return $t)`,
}

// TestDifferentialEngines runs every battery query through both the
// relational pipeline (parse → normalize → loop-lift → column engine) and
// the navigational interpreter, and requires byte-identical serialized
// results — the strongest cross-check between the paper's system and its
// baseline.
func TestDifferentialEngines(t *testing.T) {
	db := newDB(t)
	eng := engine.New(xenc.NewStore())
	if _, err := eng.Store.LoadDocumentString("auction.xml", testDoc); err != nil {
		t.Fatal(err)
	}
	opts := xqcore.Options{ContextDoc: "auction.xml"}
	for _, src := range differentialQueries {
		rel, errR := core.Run(src, eng, opts)
		nav, errN := NewInterp(db).Run(src, opts)
		if (errR == nil) != (errN == nil) {
			t.Errorf("%s: error mismatch: relational=%v navigational=%v", src, errR, errN)
			continue
		}
		if errR != nil {
			continue
		}
		if rel != nav {
			t.Errorf("%s:\n relational   = %q\n navigational = %q", src, rel, nav)
			continue
		}
		// Three-way: the optimizer pipeline must not change results.
		optd, errO := runOptimized(src, eng, opts)
		if errO != nil {
			t.Errorf("%s: optimized pipeline error: %v", src, errO)
			continue
		}
		if optd != rel {
			t.Errorf("%s:\n plain     = %q\n optimized = %q", src, rel, optd)
		}
	}
}

func TestCommentsAcrossEngines(t *testing.T) {
	const doc = `<r><!--first--><a/><!--second--><b><!--third--></b></r>`
	db := NewDB()
	if _, err := db.LoadString("c.xml", doc); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(xenc.NewStore())
	if _, err := eng.Store.LoadDocumentString("c.xml", doc); err != nil {
		t.Fatal(err)
	}
	opts := xqcore.Options{ContextDoc: "c.xml"}
	for q, want := range map[string]string{
		`count(//comment())`:              "3",
		`count(/r/comment())`:             "2",
		`/r/b/comment()`:                  "<!--third-->",
		`count(//a/following::comment())`: "2",
	} {
		rel, err1 := core.Run(q, eng, opts)
		nav, err2 := NewInterp(db).Run(q, opts)
		if err1 != nil || err2 != nil {
			t.Errorf("%s: rel err=%v nav err=%v", q, err1, err2)
			continue
		}
		if rel != want || nav != want {
			t.Errorf("%s: rel=%q nav=%q want=%q", q, rel, nav, want)
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

// randQuery emits a random query from a small grammar where both engines
// have identical semantics.
func randQuery(r *rand.Rand) string {
	paths := []string{"//person", "//price", "//name", "//open_auction", "//bidder"}
	atoms := []string{"1", "2", "40", `"x"`, "(1,2)", "()"}
	nums := []string{"1", "2", "40", "3.5"}
	// num yields a numeric singleton — arithmetic over longer sequences is
	// a type error that only the navigational engine detects.
	num := func() string {
		if r.Intn(3) == 0 {
			return fmt.Sprintf("count(%s)", paths[r.Intn(len(paths))])
		}
		return nums[r.Intn(len(nums))]
	}
	var gen func(depth int) string
	gen = func(depth int) string {
		if depth > 2 {
			return atoms[r.Intn(len(atoms))]
		}
		switch r.Intn(12) {
		case 0:
			return fmt.Sprintf("count(%s)", paths[r.Intn(len(paths))])
		case 1:
			return fmt.Sprintf("(%s + %s)", num(), num())
		case 2:
			return fmt.Sprintf("for $v%d in (%s, %s) return ($v%d, %s)",
				depth, gen(depth+1), gen(depth+1), depth, gen(depth+1))
		case 3:
			return fmt.Sprintf("if (%s = %s) then %s else %s",
				gen(depth+1), gen(depth+1), gen(depth+1), gen(depth+1))
		case 4:
			return fmt.Sprintf("sum(for $s%d in %s return 1)", depth, paths[r.Intn(len(paths))])
		case 5:
			return fmt.Sprintf("<w>{%s}</w>", gen(depth+1))
		case 6:
			return fmt.Sprintf("string(%s)", atoms[r.Intn(len(atoms))])
		case 7:
			return fmt.Sprintf("(%s to %s)", num(), num())
		case 8:
			return fmt.Sprintf("count(%s | %s)",
				paths[r.Intn(len(paths))], paths[r.Intn(len(paths))])
		case 9:
			return fmt.Sprintf("count(%s except %s)",
				paths[r.Intn(len(paths))], paths[r.Intn(len(paths))])
		case 10:
			return fmt.Sprintf("distinct-values((%s, %s))", gen(depth+1), gen(depth+1))
		case 11:
			// substring's first argument must be a singleton string.
			return fmt.Sprintf("substring(string(%s), %s)", num(), num())
		default:
			return fmt.Sprintf("(%s)[1]", paths[r.Intn(len(paths))])
		}
	}
	return gen(0)
}

// TestQuickRandomDifferential cross-checks randomly generated queries.
func TestQuickRandomDifferential(t *testing.T) {
	db := newDB(t)
	eng := engine.New(xenc.NewStore())
	if _, err := eng.Store.LoadDocumentString("auction.xml", testDoc); err != nil {
		t.Fatal(err)
	}
	opts := xqcore.Options{ContextDoc: "auction.xml"}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		src := randQuery(r)
		rel, errR := core.Run(src, eng, opts)
		nav, errN := NewInterp(db).Run(src, opts)
		if (errR == nil) != (errN == nil) {
			t.Fatalf("query %d %s: error mismatch rel=%v nav=%v", i, src, errR, errN)
		}
		if errR != nil {
			continue
		}
		if rel != nav {
			t.Fatalf("query %d %s:\n rel = %q\n nav = %q", i, src, rel, nav)
		}
		optd, errO := runOptimized(src, eng, opts)
		if errO != nil || optd != rel {
			t.Fatalf("query %d %s: optimizer divergence: %q vs %q (err %v)",
				i, src, rel, optd, errO)
		}
	}
}
