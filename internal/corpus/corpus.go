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

// CountJoinCase is a query over CountJoinDoc with the result every
// evaluator must produce and the shape the compiler must give it: Joins
// nested FLWORs unnested into joins, Counted of them compiled to the
// count-only shape (core.Stats.CountJoins).
type CountJoinCase struct {
	Name, Query, Want string
	Joins, Counted    int
}

func countJoinQuery(inner, ret string) string {
	return `for $p in /db/people/person let $l := ` + inner + ` return ` + ret
}

const countJoinInner = `for $i in /db/auctions/auction/initial where $p/profile/@income > 5000 * $i return $i`

// CountJoin is the corpus for fn:count over an unnested join: where the
// count-only shape must fire, and the neighbouring queries where it must
// not. Like Constructors it is a list of its own — Dialect is the
// compile-only benchmark workload and stays as it is.
var CountJoin = []CountJoinCase{
	{"count in the binding scope", countJoinQuery(countJoinInner, `<n id="{$p/@id}">{count($l)}</n>`),
		`<n id="p1">1</n><n id="p2">4</n><n id="p3">0</n><n id="p4">0</n>`, 1, 1},
	{"counted twice, compiled once", countJoinQuery(countJoinInner, `<n c="{count($l)}">{count($l)}</n>`),
		`<n c="1">1</n><n c="4">4</n><n c="0">0</n><n c="0">0</n>`, 1, 1},
	{"counted and returned", countJoinQuery(countJoinInner, `<n c="{count($l)}">{$l}</n>`),
		`<n c="1"><initial>4</initial></n><n c="4"><initial>4</initial><initial>10</initial><initial>18</initial><initial>10</initial></n><n c="0"/><n c="0"/>`, 1, 0},
	{"counted inside a nested for", countJoinQuery(countJoinInner, `for $k in (10, 20) return count($l) + $k`),
		`11 21 14 24 10 20 10 20`, 1, 1},
	{"counted under a conditional", countJoinQuery(countJoinInner, `if ($p/@id = "p3") then "none" else count($l)`),
		`1 4 none 0`, 1, 1},
	{"name rebound below the count", countJoinQuery(countJoinInner, `(count($l), let $l := (1, 2, 3) return count($l))`),
		`1 3 4 3 0 3 0 3`, 1, 1},
	{"count applied directly", `for $p in /db/people/person return count(` + countJoinInner + `)`,
		`1 4 0 0`, 1, 1},
	{"two items per pair", countJoinQuery(`for $i in /db/auctions/auction/initial where $p/profile/@income > 5000 * $i return ($i, $i)`, `count($l)`),
		`2 8 0 0`, 1, 0},
	{"a path per pair", countJoinQuery(`for $a in /db/auctions/auction where $p/profile/@income > 5000 * $a/initial return $a/bidder`, `count($l)`),
		`2 3 0 0`, 1, 0},
	{"residual conjunct", countJoinQuery(`for $i in /db/auctions/auction/initial where $p/profile/@income > 5000 * $i and $i > 5 return $i`, `count($l)`),
		`0 3 0 0`, 1, 0},
	{"greater or equal counts the tie", countJoinQuery(`for $i in /db/auctions/auction/initial where $p/profile/@income >= 5000 * $i return $i`, `count($l)`),
		`3 4 0 0`, 1, 1},
	{"less or equal, sides swapped", countJoinQuery(`for $i in /db/auctions/auction/initial where 5000 * $i <= $p/profile/@income return $i`, `count($l)`),
		`3 4 0 0`, 1, 1},
	{"string keys", countJoinQuery(`for $a in /db/auctions/auction where $a/@id < concat("a", substring(string($p/@id), 2)) return $a`, `count($l)`),
		`0 1 2 3`, 1, 1},
	{"equi-join (Q8 shape)", countJoinQuery(`for $t in /db/auctions/auction where $t/seller/@person = $p/@id return $t`, `<n id="{$p/@id}">{count($l)}</n>`),
		`<n id="p1">2</n><n id="p2">1</n><n id="p3">0</n><n id="p4">0</n>`, 1, 1},
	{"positional variable", countJoinQuery(`for $i at $pos in /db/auctions/auction/initial where $p/profile/@income > 5000 * $i return $i`, `count($l)`),
		`1 4 0 0`, 0, 0},
	{"order by", countJoinQuery(`for $i in /db/auctions/auction/initial where $p/profile/@income > 5000 * $i order by $i return $i`, `count($l)`),
		`1 4 0 0`, 0, 0},
	{"second where clause (Q12 shape)", `for $p in /db/people/person let $l := ` + countJoinInner +
		` where $p/profile/@income > 40000 return <n id="{$p/@id}">{count($l)}</n>`,
		`<n id="p1">1</n><n id="p2">4</n>`, 2, 1},
}
