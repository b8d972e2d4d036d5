// Package corpus holds the shared test corpora: the Table 2 dialect
// queries (one per supported construct, plus the extended-dialect forms
// the XMark workload needs) and the miniature auction document they run
// against. The engine differential tests, the service-path differential
// tests, and any future front end all difference against the same set, so
// a dialect regression fails every tier identically.
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

// Case is a query with the outcome every evaluator — sequential, parallel,
// navigational — must agree on: the serialized result, or a dynamic error
// whose message contains Err.
type Case struct {
	Query string
	Want  string
	Err   string
}

// Constructors extends the dialect corpus with the element-constructor
// content rules that have an outcome other than "copy the item": a
// duplicate attribute name is XQDY0025, and adjacent text nodes merge
// (XQuery §3.7.1.3). They are a list of their own because Dialect is also
// the compile-only benchmark workload, which expects every query to
// succeed and must not change under a PR that claims a gain.
var Constructors = []Case{
	{Query: `<e x="1">{attribute x {"2"}}</e>`, Err: "XQDY0025"},
	{Query: `<e>{/r/a/@x}</e>`, Err: "XQDY0025"},
	{Query: `count(<e>{text{"a"}, text{"b"}}</e>/text())`, Want: "1"},
	{Query: `count(<e>{"x", text{"a"}}</e>/text())`, Want: "1"},
	{Query: `count(<e>{/r/a[1]/text()}</e>/text())`, Want: "1"},
}
