// Package corpus holds the shared test corpora: the Table 2 dialect
// queries (one per supported construct, plus the extended-dialect forms
// the XMark workload needs), the miniature auction document they run
// against, and the case lists with pinned outcomes. The differential
// runner (internal/difftest) runs them over every evaluator, so a
// dialect regression fails every tier identically. The package is data
// only: navdom's and mil's in-package tests import it.
package corpus

// AuctionDoc mirrors the miniature XMark-shaped document the compiler
// tests use, so the dialect corpus exercises realistic shapes.
const AuctionDoc = `<site>
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

// Dialect is the Table 2 corpus: the XQuery dialect Pathfinder supports,
// one query per construct, expected to run against AuctionDoc loaded as
// "auction.xml" with the context document bound to it.
var Dialect = []string{
	// Table 2: XQuery dialect supported by Pathfinder
	`42`,
	`(1, 2)`,
	`let $v := 7 return $v`,
	`let $v := 3 return $v * $v`,
	`for $v in (1,2) return $v + 1`,
	`if (1 < 2) then "a" else "b"`,
	`typeswitch (1.5) case xs:integer return "i" case xs:double return "d" default return "?"`,
	`element {"x"} {"y"}`,
	`text {"z"}`,
	`for $x in (3,1,2) order by $x return $x`,
	`count(/site/child::people/descendant::name)`,
	`(//person)[1] << (//person)[2]`,
	`(//person)[1] is (//person)[1]`,
	`1 + 2 * 3 - 4`,
	`2 lt 3`,
	`1 = 1 and not(2 = 3)`,
	`count(doc("auction.xml"))`,
	`count(root((//name)[1]))`,
	`data((//income)[1]) + 0`,
	`count(fs:distinct-doc-order((//person, //person)))`,
	`count(//person)`,
	`sum((1, 2, 3))`,
	`empty(())`,
	`for $x in ("a","b") return position()`,
	`for $x in ("a","b") return last()`,
	`declare function local:sq($x) { $x * $x }; local:sq(5)`,
	// extended dialect
	`for $i in 1 to 4 return $i`,
	`count(//person | //price)`,
	`count((//person, //price) intersect //price)`,
	`count((//person, //price) except //price)`,
	`distinct-values((3, 1, 3, 2, 1))`,
	`substring("motor car", 6)`,
	`substring("metadata", 4, 3)`,
	`name((//person)[1])`,
	`name((//person)[1]/@id)`,
	`some $x in (1,2) satisfies $x = 2`,
	`every $x in (1,2) satisfies $x = 2`,
	`string-join(("a","b","c"), "+")`,
	`(//person)[2]/name/text()`,
	`//person[@id = "p3"]/name/text()`,
	`for $x at $i in ("a","b") return $i`,
	// joins and constructors, where the plans fan widest
	`for $p in //person
	 return count(for $t in doc("auction.xml")/site/closed_auctions/closed_auction
	        where $t/buyer/@person = $p/@id return $t)`,
	`for $p in //person order by $p/income return string($p/@id)`,
	`for $i in (1,2) return <n v="{$i}"/>`,
	`<out>{//person[1]/name}</out>`,
}

// ConstructorDoc is the document the constructor cases run against, bound
// as "r.xml": two same-named attributes to collide, and an element whose
// two text children become adjacent once the element between them is left
// behind.
const ConstructorDoc = `<r><a x="1">p<b/>q</a><a x="2">s</a></r>`

// Case is a named query with the outcome every evaluator — sequential,
// parallel, navigational, a front door — must produce: the serialized
// result Want (an empty Want pins the empty sequence), or a dynamic
// error whose message contains Err. A case with Agree set pins nothing:
// every evaluator must agree with the pivot of the matrix it runs in
// (internal/difftest).
type Case struct {
	Name  string
	Query string
	Want  string
	Err   string
	Agree bool
}

// Constructors extends the dialect corpus with the element-constructor
// content rules that have an outcome other than "copy the item": a
// duplicate attribute name is XQDY0025, an attribute after content is
// XQTY0024, and adjacent text nodes merge (XQuery §3.7.1.3). The nested
// cases pin what one ε per constructor tree must keep: atomics join with
// a space across adjacent enclosed expressions of one element (an empty
// one between them too) but not across a child element — a literal in
// braces is literal text, so {1}{2} is 12 — texts merge across them,
// attribute values join their items with a space, an inlined child
// keeps its own attribute rules, a child
// with a computed name or under a for or an if is constructed as before,
// and two constructors are two nodes even when they are spelled alike.
// They are a list of their own because Dialect is also the compile-only
// benchmark workload, which expects every query to succeed and must not
// change under a PR that claims a gain.
var Constructors = []Case{
	{Query: `<e x="1">{attribute x {"2"}}</e>`, Err: "XQDY0025"},
	{Query: `<e>{/r/a/@x}</e>`, Err: "XQDY0025"},
	{Query: `count(<e>{text{"a"}, text{"b"}}</e>/text())`, Want: "1"},
	{Query: `count(<e>{"x", text{"a"}}</e>/text())`, Want: "1"},
	{Query: `count(<e>{/r/a[1]/text()}</e>/text())`, Want: "1"},
	{Query: `let $i := 1 return <a>{$i}{$i + 1}</a>`, Want: "<a>1 2</a>"},
	{Query: `let $i := 1 return <a>{$i}{()}{$i + 1}</a>`, Want: "<a>1 2</a>"},
	{Query: `let $i := 1 return <a>{$i}<b/>{$i + 1}</a>`, Want: "<a>1<b/>2</a>"},
	{Query: `<a>{1}{2}</a>`, Want: "<a>12</a>"},
	{Query: `<a><b>{1}</b>{2}<c>{3, 4}</c></a>`, Want: "<a><b>1</b>2<c>3 4</c></a>"},
	{Query: `<a>x{text{"y"}}{/r/a[2]/text()}</a>`, Want: "<a>xys</a>"},
	{Query: `count(<a><b>{text{"x"}}{text{"y"}}</b></a>/b/text())`, Want: "1"},
	{Query: `<a><b x="1">{attribute x {"2"}}</b></a>`, Err: "XQDY0025"},
	{Query: `<a><b x="{1}">{/r/a[1]/@x}</b></a>`, Err: "XQDY0025"},
	{Query: `<a><b>{1}{attribute y {"2"}}</b></a>`, Err: "XQTY0024"},
	{Query: `<a><b y="{/r/a/@x}" z="{()}">{attribute w {1, 2}}</b></a>`, Want: `<a><b y="1 2" z="" w="1 2"/></a>`},
	{Query: `<a x="{/r/a[1]}" y="v{(1, 2)}w"/>`, Want: `<a x="pq" y="v1 2w"/>`},
	{Query: `<a>{element {concat("b", "c")} {1}}<d/></a>`, Want: "<a><bc>1</bc><d/></a>"},
	{Query: `<a>{for $i in (1, 2) return <b>{$i}</b>}</a>`, Want: "<a><b>1</b><b>2</b></a>"},
	{Query: `<a>{if (1 = 1) then <b/> else ()}<c/></a>`, Want: "<a><b/><c/></a>"},
	{Query: `for $i in (1, 2) return <a n="{$i}"><b>{$i * 10}</b></a>`, Want: `<a n="1"><b>10</b></a><a n="2"><b>20</b></a>`},
	{Query: `let $x := (<a/>, <a/>) return $x[1] is $x[2]`, Want: "false"},
	{Query: `let $x := <a/> return $x is $x`, Want: "true"},
	{Query: `let $t := (text{"a"}, text{"a"}) return $t[1] is $t[2]`, Want: "false"},
}

// SinkCase is a constructor case and the sinks its ε take: Streamed of
// them only reach the serializer, so their trees are written straight
// into the reply; Built are read by something else and build fragments.
type SinkCase struct {
	Case
	Streamed, Built int
}

// StreamBoundary pins, against ConstructorDoc, where an ε stops streaming
// and what a streamed tree serializes as. Streamed: a root constructor; a
// constructor in a content slot of another (XMark Q10's categorie and
// personne); one under an order by, a sequence, a let, a count and a
// positional filter; an element left empty; attributes and text arriving
// through content slots; whitespace a parser would change, written as
// references; the content errors, raised by the query and not by the
// serializer. Built: whatever a step, string(), data(), is or fn:root
// reads, a streamed-shaped child of such a parent, and an element whose
// string value is an attribute value. The outcomes are the XQuery
// semantics, written down by hand.
var StreamBoundary = []SinkCase{
	{Case{Query: `<a><b x="1">{1 + 1}</b></a>`, Want: `<a><b x="1">2</b></a>`}, 1, 0},
	{Case{Query: `for $c in (1, 2) return <c>{for $p in (1, 2, 3) where $p >= $c return <p><v>{$p}</v></p>}</c>`,
		Want: `<c><p><v>1</v></p><p><v>2</v></p><p><v>3</v></p></c><c><p><v>2</v></p><p><v>3</v></p></c>`}, 2, 0},
	{Case{Query: `for $i in (3, 1, 2) order by $i return <i>{$i}</i>`, Want: `<i>1</i><i>2</i><i>3</i>`}, 1, 0},
	{Case{Query: `(<a/>, 1, <b>{2}</b>)`, Want: `<a/>1<b>2</b>`}, 2, 0},
	{Case{Query: `let $x := <a>{1}</a> return $x`, Want: `<a>1</a>`}, 1, 0},
	{Case{Query: `count(<a/>)`, Want: `1`}, 1, 0},
	{Case{Query: `(<a/>, <b/>)[2]`, Want: `<b/>`}, 2, 0},
	{Case{Query: `<a>{()}</a>`, Want: `<a/>`}, 1, 0},
	{Case{Query: `<a>{""}</a>`, Want: `<a/>`}, 1, 0},
	{Case{Query: `<e>{/r/a[1]/@x}{"t"}</e>`, Want: `<e x="1">t</e>`}, 1, 0},
	{Case{Query: `<e>{/r/a[1]/@x, /r/a[2]/text()}</e>`, Want: `<e x="1">s</e>`}, 1, 0},
	{Case{Query: `for $i in (1, 2) return <a>{if ($i = 1) then attribute y {"2"} else ()}{$i}</a>`, Want: `<a y="2">1</a><a>2</a>`}, 1, 0},
	{Case{Query: `<a b="{"x&#10;y&#9;z"}"/>`, Want: `<a b="x&#xA;y&#x9;z"/>`}, 1, 0},
	{Case{Query: `<t>{"c&#13;d"}</t>`, Want: `<t>c&#xD;d</t>`}, 1, 0},
	{Case{Query: `<e x="1">{attribute x {"2"}}</e>`, Err: "XQDY0025"}, 1, 0},
	{Case{Query: `<a>{1}{attribute y {"2"}}</a>`, Err: "XQTY0024"}, 1, 0},
	{Case{Query: `(<a><b/></a>)/b`, Want: `<b/>`}, 0, 1},
	{Case{Query: `string(<a>x</a>)`, Want: `x`}, 0, 1},
	{Case{Query: `data(<a>5</a>) + 1`, Want: `6`}, 0, 1},
	{Case{Query: `let $x := <a/> return $x is $x`, Want: `true`}, 0, 1},
	{Case{Query: `root(<a><b/></a>/b)`, Want: `<a><b/></a>`}, 0, 1},
	{Case{Query: `(<a>{for $i in (1, 2) return <b>{$i}</b>}</a>)/b`, Want: `<b>1</b><b>2</b>`}, 0, 2},
	{Case{Query: `<x>{string(<a>y</a>)}</x>`, Want: `<x>y</x>`}, 1, 1},
	{Case{Query: `<x a="{<b>1</b>}"/>`, Want: `<x a="1"/>`}, 1, 1},
}

// Cases returns the cases of a SinkCase list.
func Cases(list []SinkCase) []Case {
	out := make([]Case, len(list))
	for i, c := range list {
		out[i] = c.Case
	}
	return out
}

// IntEdges are xs:integer cases at the int64 edge, needing no document.
// The `lo to hi` ranges: a two-item range ending at MaxInt64 (where a
// `k <= hi` loop never terminates), a span that overflows int64 (it must
// hit the size guard, not slip under it), one starting at MinInt64 and an
// empty reversed range. The arithmetic: idiv is exact in int64 and
// truncates toward zero, and a result int64 cannot hold — from + - * idiv
// on integers, unary minus, or a double idiv — is FOAR0002, never a
// wrapped value; fn:sum checks only its total, so an intermediate sum
// beyond int64 is not an error. The range-driven cases, whose operands
// are all range columns, reach the typed int kernels; the others the
// boxed path. A list of its own for the same reason as Constructors.
var IntEdges = []Case{
	{Query: `count(9223372036854775806 to 9223372036854775807)`, Want: "2"},
	{Query: `count(-9223372036854775807 to 9223372036854775807)`, Err: "too large"},
	{Query: `(-9223372036854775807 - 1) to -9223372036854775806`, Want: "-9223372036854775808 -9223372036854775807 -9223372036854775806"},
	{Query: `count(5 to 1)`, Want: "0"},
	{Query: `9223372036854775807 idiv 1`, Want: "9223372036854775807"},
	{Query: `9007199254740993 idiv 3`, Want: "3002399751580331"},
	{Query: `9223372036854775807 + 1`, Err: "FOAR0002"},
	{Query: `4611686018427387904 * 2`, Err: "FOAR0002"},
	{Query: `(-9223372036854775807 - 1) idiv -1`, Err: "FOAR0002"},
	{Query: `-(-9223372036854775807 - 1)`, Err: "FOAR0002"},
	{Query: `1e300 idiv 1`, Err: "FOAR0002"},
	{Query: `-7 idiv 2`, Want: "-3"},
	{Query: `7.5 idiv 2`, Want: "3"},
	{Query: `(-9223372036854775807 - 1) mod -1`, Want: "0"},
	{Query: `(-9223372036854775807 - 1) * -1`, Err: "FOAR0002"},
	{Query: `for $i in 1 to 3 return ($i - $i - $i - $i - $i) idiv ($i + $i)`, Want: "-1 -1 -1"},
	{Query: `for $i in 4611686018427387903 to 4611686018427387904 return $i + $i`, Err: "FOAR0002"},
	{Query: `for $i in 4611686018427387904 to 4611686018427387905 return $i - $i - $i - $i`, Err: "FOAR0002"},
	{Query: `for $i in 3037000499 to 3037000500 return $i * $i`, Err: "FOAR0002"},
	{Query: `sum((9223372036854775807, 1))`, Err: "FOAR0002"},
	{Query: `sum((-9223372036854775807 - 1, -1))`, Err: "FOAR0002"},
	{Query: `sum((9223372036854775807, -1))`, Want: "9223372036854775806"},
	{Query: `sum((9223372036854775807, 1, -1))`, Want: "9223372036854775807"},
}

// UntypedCompareDoc is the document the UntypedCompare cases run
// against, bound as "r.xml": attribute values that are equal as numbers
// but not as strings ("1" and "1.0"), and equal as both ("2").
const UntypedCompareDoc = `<r><a x="1"/><a x="2"/><b y="1.0"/><b y="2"/></r>`

// UntypedCompare pins the general comparison of two untyped atomics —
// attribute values, atomized — whatever plan evaluates it: a hash join,
// a semijoin, a ⊛ over one pair, a band join. XQuery 1.0 §3.5.2 casts
// both operands to xs:string, so "1" = "1.0" is false and "1" < "1.0"
// holds; against a number an untyped atomic is still cast to xs:double.
// The expected values are the specification's, written down by hand. A
// list of its own for the same reason as Constructors.
var UntypedCompare = []Case{
	{Name: "equi-join", Query: `count(for $p in /r/a, $q in /r/b where $p/@x = $q/@y return 1)`, Want: "1"},
	{Name: "existential filter", Query: `count(/r/a[@x = /r/b/@y])`, Want: "1"},
	{Name: "one pair", Query: `/r/a[1]/@x = /r/b[1]/@y`, Want: "false"},
	{Name: "one equal pair", Query: `/r/a[2]/@x = /r/b[2]/@y`, Want: "true"},
	{Name: "band join", Query: `for $p in /r/a return count(for $q in /r/b where $p/@x < $q/@y return 1)`, Want: "2 0"},
	{Name: "against a number", Query: `/r/b[1]/@y = 1`, Want: "true"},
	{Name: "against a string", Query: `/r/b[1]/@y = "1"`, Want: "false"},
}

// StepPredicatesDoc is the document the StepPredicates cases run
// against, bound as "sp.xml": XMark's shape, with regions and people
// that hold none, one or several of the children a predicate picks from.
const StepPredicatesDoc = `<site><regions>` +
	`<africa><item id="i1"><name>a1</name></item><item id="i2"><name>a2</name></item><item id="i3"/></africa>` +
	`<asia><item id="i4"><name>b1</name><name>b2</name></item></asia><europe/>` +
	`</regions><people>` +
	`<person id="p1"><name>Alice</name></person><person id="p2"><name>Bob</name><name>Robert</name></person><person id="p3"/>` +
	`</people></site>`

// StepPredicates pins positional step predicates — an integer, last(),
// position() — over a step with several context nodes per iteration. A
// step's predicate sees the step's result per context node (XQuery 1.0
// §3.2.2), so item[1] is the first item of each region, not of the
// path, and counts in reverse document order on a reverse axis; a
// parenthesized path is one sequence and is filtered as one, in
// document order.
// The expected values are the specification's, written down by hand. A
// list of its own for the same reason as Constructors.
var StepPredicates = []Case{
	{Name: "first per region", Query: `count(/site/regions/*/item[1])`, Want: "2"},
	{Name: "last per region", Query: `count(/site/regions/*/item[last()])`, Want: "2"},
	{Name: "position below 3 per region", Query: `count(/site/regions/*/item[position() < 3])`, Want: "3"},
	{Name: "first name per person", Query: `count(/site/people/person/name[1])`, Want: "2"},
	{Name: "values of the first names", Query: `for $n in /site/people/person/name[1] return string($n)`, Want: "Alice Bob"},
	{Name: "last names", Query: `data(/site/people/person/name[last()])`, Want: "Alice Robert"},
	{Name: "second per region", Query: `data(/site/regions/*/item[2]/@id)`, Want: "i2"},
	{Name: "position equals last", Query: `data(/site/regions/*/item[position() = last()]/@id)`, Want: "i3 i4"},
	{Name: "position equals 2", Query: `data(/site/people/person/name[position() = 2])`, Want: "Robert"},
	{Name: "filter then position", Query: `data(/site/regions/*/item[@id][1]/@id)`, Want: "i1 i4"},
	{Name: "filter then last", Query: `data(/site/regions/*/item[name][last()]/@id)`, Want: "i2 i4"},
	{Name: "double slash", Query: `data(/site//item[1]/@id)`, Want: "i1 i4"},
	{Name: "descendant per child", Query: `count(/site/*/descendant::*[1])`, Want: "2"},
	{Name: "steps after the predicate", Query: `data(/site/regions/*/item/name[1])`, Want: "a1 a2 b1"},
	{Name: "predicate mid-path", Query: `count(/site/people/person[1]/name)`, Want: "1"},
	{Name: "inside a for", Query: `for $r in /site/regions/* return count($r/item/name[1])`, Want: "2 1 0"},
	{Name: "over a let-bound sequence", Query: `let $ps := /site/people/person return count($ps/name[1])`, Want: "2"},
	{Name: "one context per iteration", Query: `for $p in /site/people/person return count($p/name[1])`, Want: "1 1 0"},
	{Name: "not positional", Query: `count(/site/people/person/name[. = "Bob"])`, Want: "1"},
	{Name: "parenthesized path", Query: `data((/site/people/person/name)[1])`, Want: "Alice"},
	{Name: "parenthesized path, last", Query: `data((/site/regions/*/item)[last()]/@id)`, Want: "i4"},
	// A reverse axis counts in reverse document order: ancestor::*[1] is
	// the nearest ancestor.
	{Name: "nearest ancestor", Query: `data(/site/people/person/name/ancestor::*[1]/@id)`, Want: "p1 p2"},
	{Name: "nearest ancestor by position()", Query: `data(/site/people/person/name/ancestor::*[position() = 1]/@id)`, Want: "p1 p2"},
	{Name: "farthest ancestor", Query: `for $n in /site/people/person/name return name($n/ancestor::*[last()])`, Want: "site site site"},
	{Name: "second ancestor-or-self", Query: `for $n in /site/people/person/name return name($n/ancestor-or-self::*[2])`, Want: "person person person"},
	{Name: "nearest preceding sibling", Query: `data(/site/regions/africa/item[3]/preceding-sibling::item[1]/@id)`, Want: "i2"},
	{Name: "nearest preceding", Query: `data(/site/people/person[2]/name[2]/preceding::name[1])`, Want: "Bob"},
	{Name: "farthest preceding", Query: `data(/site/people/person[2]/name[2]/preceding::name[last()])`, Want: "a1"},
	{Name: "two nearest preceding", Query: `data(/site/people/person[2]/name[2]/preceding::name[position() < 3])`, Want: "Alice Bob"},
	{Name: "parenthesized reverse path", Query: `data((/site/people/person[2]/name[2]/preceding::name)[1])`, Want: "a1"},
	// A step over an atomic item is the type error XPTY0019: at compile
	// time when the context is statically atomic and never empty, at run
	// time when an atomic item turns up among nodes or in a context that
	// may be empty. An empty one steps to the empty sequence.
	{Name: "step over an integer, then an element", Query: `for $x in (3, <a><b/><c/></a>) return $x/*`, Err: "XPTY0019"},
	{Name: "step over an element, then an integer", Query: `count((<a><b/></a>, 7)/b)`, Err: "XPTY0019"},
	{Name: "step over a string literal", Query: `("x")/b`, Err: "XPTY0019"},
	{Name: "step over integer literals", Query: `(1,2)/A`, Err: "XPTY0019"},
	{Name: "step over a range variable", Query: `for $i in 0 to 0 return $i/A`, Err: "XPTY0019"},
	{Name: "step over an empty range", Query: `count((1 to 0)/A)`, Want: "0"},
	{Name: "step over a range", Query: `(1 to 3)/A`, Err: "XPTY0019"},
}

// CountJoinDoc is the document the CountJoin cases run against, bound as
// "cj.xml": person p2 has two profiles with different incomes (one
// existential comparison per person and auction, not one per profile),
// p3 has none and p4's income is below every threshold (the 0 a count
// owes an iteration without a partner); 5000 × a2's and a4's initial equal
// p1's income (the tie that tells > from >=).
const CountJoinDoc = `<db>
 <people>
  <person id="p1"><profile income="50000"/></person>
  <person id="p2"><profile income="45000"/><profile income="95000"/></person>
  <person id="p3"/>
  <person id="p4"><profile income="100"/></person>
 </people>
 <auctions>
  <auction id="a1"><initial>4</initial><bidder/><bidder/></auction>
  <auction id="a2"><initial>10</initial><bidder/><seller person="p2"/></auction>
  <auction id="a3"><initial>18</initial><seller person="p1"/></auction>
  <auction id="a4"><initial>10</initial><seller person="p1"/></auction>
 </auctions>
</db>`

func countJoinQuery(inner, ret string) string {
	return `for $p in /db/people/person let $l := ` + inner + ` return ` + ret
}

const countJoinInner = `for $i in /db/auctions/auction/initial where $p/profile/@income > 5000 * $i return $i`

// CountJoin is the corpus for fn:count over an unnested join: where the
// count-only shape must fire, and the neighbouring queries where it must
// not (the engine tests pin the shape per case name). Like Constructors
// it is a list of its own — Dialect is the compile-only benchmark
// workload and stays as it is.
var CountJoin = []Case{
	{Name: "count in the binding scope", Query: countJoinQuery(countJoinInner, `<n id="{$p/@id}">{count($l)}</n>`),
		Want: `<n id="p1">1</n><n id="p2">4</n><n id="p3">0</n><n id="p4">0</n>`},
	{Name: "counted twice, compiled once", Query: countJoinQuery(countJoinInner, `<n c="{count($l)}">{count($l)}</n>`),
		Want: `<n c="1">1</n><n c="4">4</n><n c="0">0</n><n c="0">0</n>`},
	{Name: "counted and returned", Query: countJoinQuery(countJoinInner, `<n c="{count($l)}">{$l}</n>`),
		Want: `<n c="1"><initial>4</initial></n><n c="4"><initial>4</initial><initial>10</initial><initial>18</initial><initial>10</initial></n><n c="0"/><n c="0"/>`},
	{Name: "counted inside a nested for", Query: countJoinQuery(countJoinInner, `for $k in (10, 20) return count($l) + $k`),
		Want: `11 21 14 24 10 20 10 20`},
	{Name: "counted under a conditional", Query: countJoinQuery(countJoinInner, `if ($p/@id = "p3") then "none" else count($l)`),
		Want: `1 4 none 0`},
	{Name: "name rebound below the count", Query: countJoinQuery(countJoinInner, `(count($l), let $l := (1, 2, 3) return count($l))`),
		Want: `1 3 4 3 0 3 0 3`},
	{Name: "count applied directly", Query: `for $p in /db/people/person return count(` + countJoinInner + `)`,
		Want: `1 4 0 0`},
	{Name: "two items per pair", Query: countJoinQuery(`for $i in /db/auctions/auction/initial where $p/profile/@income > 5000 * $i return ($i, $i)`, `count($l)`),
		Want: `2 8 0 0`},
	{Name: "a path per pair", Query: countJoinQuery(`for $a in /db/auctions/auction where $p/profile/@income > 5000 * $a/initial return $a/bidder`, `count($l)`),
		Want: `2 3 0 0`},
	{Name: "residual conjunct", Query: countJoinQuery(`for $i in /db/auctions/auction/initial where $p/profile/@income > 5000 * $i and $i > 5 return $i`, `count($l)`),
		Want: `0 3 0 0`},
	{Name: "greater or equal counts the tie", Query: countJoinQuery(`for $i in /db/auctions/auction/initial where $p/profile/@income >= 5000 * $i return $i`, `count($l)`),
		Want: `3 4 0 0`},
	{Name: "less or equal, sides swapped", Query: countJoinQuery(`for $i in /db/auctions/auction/initial where 5000 * $i <= $p/profile/@income return $i`, `count($l)`),
		Want: `3 4 0 0`},
	{Name: "string keys", Query: countJoinQuery(`for $a in /db/auctions/auction where $a/@id < concat("a", substring(string($p/@id), 2)) return $a`, `count($l)`),
		Want: `0 1 2 3`},
	{Name: "equi-join (Q8 shape)", Query: countJoinQuery(`for $t in /db/auctions/auction where $t/seller/@person = $p/@id return $t`, `<n id="{$p/@id}">{count($l)}</n>`),
		Want: `<n id="p1">2</n><n id="p2">1</n><n id="p3">0</n><n id="p4">0</n>`},
	{Name: "positional variable", Query: countJoinQuery(`for $i at $pos in /db/auctions/auction/initial where $p/profile/@income > 5000 * $i return $i`, `count($l)`),
		Want: `1 4 0 0`},
	{Name: "order by", Query: countJoinQuery(`for $i in /db/auctions/auction/initial where $p/profile/@income > 5000 * $i order by $i return $i`, `count($l)`),
		Want: `1 4 0 0`},
	{Name: "second where clause (Q12 shape)", Query: `for $p in /db/people/person let $l := ` + countJoinInner +
		` where $p/profile/@income > 40000 return <n id="{$p/@id}">{count($l)}</n>`,
		Want: `<n id="p1">1</n><n id="p2">4</n>`},
}

// Navigational is the battery navdom has been differenced against the
// relational engine with since the first tier: literals, comparisons,
// FLWOR, every axis, functions, quantifiers, constructors, typeswitch,
// joins, ranges and set operators, over AuctionDoc bound as
// "auction.xml". A list of its own for the same reason as Constructors.
var Navigational = []string{
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
