package core

import (
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/engine"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

// auctionDoc is a miniature XMark-shaped document used across the
// compiler tests.
const auctionDoc = `<site>
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

func newEng(t *testing.T) *engine.Engine {
	t.Helper()
	eng := engine.New(xenc.NewStore())
	if _, err := eng.Store.LoadDocumentString("auction.xml", auctionDoc); err != nil {
		t.Fatal(err)
	}
	return eng
}

func run(t *testing.T, eng *engine.Engine, src string) string {
	t.Helper()
	out, err := Run(src, eng, xqcore.Options{ContextDoc: "auction.xml"})
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	return out
}

func runErr(t *testing.T, eng *engine.Engine, src string) error {
	t.Helper()
	_, err := Run(src, eng, xqcore.Options{ContextDoc: "auction.xml"})
	if err == nil {
		t.Fatalf("run %q: expected error", src)
	}
	return err
}

func TestLiteralAndSequence(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`42`:              "42",
		`"hello"`:         "hello",
		`3.5`:             "3.5",
		`(1, 2, 3)`:       "1 2 3",
		`()`:              "",
		`(1, (2, 3), ())`: "1 2 3",
		`(5, "x", "x")`:   "5 x x",
		`true()`:          "true",
		`false()`:         "false",
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`1 + 2`:      "3",
		`10 - 2 * 3`: "4",
		`7 div 2`:    "3.5",
		`7 idiv 2`:   "3",
		`7 mod 2`:    "1",
		`-5 + 2`:     "-3",
		`1 + 2.5`:    "3.5",
		`() + 1`:     "",
		`1 + ()`:     "",
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestFigure3ForLoop(t *testing.T) {
	eng := newEng(t)
	// The paper's running example, Figure 3.
	got := run(t, eng, `for $v in (10,20), $w in (100,200) return $v + $w`)
	if got != "110 210 120 220" {
		t.Errorf("figure 3 result = %q, want %q", got, "110 210 120 220")
	}
	// And Figure 5's query.
	if got := run(t, eng, `for $v in (10,20) return $v + 100`); got != "110 120" {
		t.Errorf("figure 5 result = %q", got)
	}
}

func TestLetAndShadowing(t *testing.T) {
	eng := newEng(t)
	if got := run(t, eng, `let $x := (1,2) return ($x, $x)`); got != "1 2 1 2" {
		t.Errorf("let = %q", got)
	}
	if got := run(t, eng, `for $x in (1,2) return let $x := $x + 10 return $x`); got != "11 12" {
		t.Errorf("shadowing = %q", got)
	}
}

func TestConditionals(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`if (1 = 1) then "yes" else "no"`:                             "yes",
		`if (1 = 2) then "yes" else "no"`:                             "no",
		`if (()) then "yes" else "no"`:                                "no",
		`if ((1)) then "yes" else "no"`:                               "yes",
		`if ("") then "yes" else "no"`:                                "no",
		`if (0) then "yes" else "no"`:                                 "no",
		`for $x in (1,2,3) return if ($x mod 2 = 1) then $x else ()`:  "1 3",
		`for $x in (1,2,3) return if ($x mod 2 = 1) then $x else -$x`: "1 -2 3",
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestBranchRestrictionOnVariables(t *testing.T) {
	eng := newEng(t)
	// $v must only appear in iterations where the branch is live.
	got := run(t, eng, `for $v in (1,2,3,4) return if ($v > 2) then $v else "no"`)
	if got != "no no 3 4" {
		t.Errorf("restricted branches = %q", got)
	}
}

func TestComparisons(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`1 < 2`:          "true",
		`2 <= 1`:         "false",
		`(1,2,3) = 2`:    "true",
		`(1,2,3) = 9`:    "false",
		`(1,2) != (1,2)`: "true", // existential: 1 != 2
		`(1,1) != (1,1)`: "false",
		`() = 1`:         "false",
		`1 eq 1`:         "true",
		`"a" lt "b"`:     "true",
		`2 ge 3`:         "false",
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestBooleanConnectives(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`1 = 1 and 2 = 2`:   "true",
		`1 = 1 and 2 = 3`:   "false",
		`1 = 2 or 2 = 2`:    "true",
		`not(1 = 2)`:        "true",
		`empty(())`:         "true",
		`empty((1))`:        "false",
		`exists(//person)`:  "true",
		`exists(//nothing)`: "false",
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestPathsAndSteps(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`count(/site/people/person)`:                 "3",
		`count(//person)`:                            "3",
		`count(//person/@id)`:                        "3",
		`/site/people/person[1]/name/text()`:         "Alice",
		`/site/people/person[last()]/name/text()`:    "Carol",
		`count(//person/name/..)`:                    "3",
		`count(/site/*)`:                             "3",
		`count(//node())`:                            "43",
		`(//person)[2]/name/text()`:                  "Bob",
		`count(//person[income])`:                    "2",
		`//person[@id = "p2"]/name/text()`:           "Bob",
		`count(//increase/ancestor::open_auction)`:   "1",
		`//increase/ancestor::open_auction/@id`:      `id="a1"`,
		`count(//bidder/following-sibling::*)`:       "2",
		`count(//person/descendant-or-self::node())`: "13",
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestStepsDeduplicateAcrossContexts(t *testing.T) {
	eng := newEng(t)
	// Two paths to the same ancestors: ddo semantics must deduplicate.
	got := run(t, eng, `count(//text()/ancestor::site)`)
	if got != "1" {
		t.Errorf("ancestor dedup = %q", got)
	}
}

func TestAtomizationAndData(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`data(//person[@id="p1"]/income)`:  "50000",
		`//person[@id="p1"]/income + 1`:    "50001",
		`string(//person[1]/name)`:         "Alice",
		`string(())`:                       "",
		`number("4.5") * 2`:                "9",
		`string-length("hello")`:           "5",
		`string-length(())`:                "0",
		`concat("a", "b", "c")`:            "abc",
		`contains("gold ring", "gold")`:    "true",
		`starts-with("gold ring", "ring")`: "false",
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestAggregatesEndToEnd(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`count(//closed_auction)`: "3",
		`sum(//price)`:            "110",
		`sum(())`:                 "0",
		`count(())`:               "0",
		`max(//price)`:            "60",
		`min(//price)`:            "10",
		`avg((2, 4))`:             "3",
		// Aggregates inside loops get per-iteration defaults.
		`for $p in //person return count($p/income)`: "1 0 1",
		`for $p in //person return sum($p/income)`:   "50000 0 90000",
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestQuantifiers(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`some $x in (1,2,3) satisfies $x > 2`:             "true",
		`some $x in (1,2,3) satisfies $x > 5`:             "false",
		`every $x in (1,2,3) satisfies $x > 0`:            "true",
		`every $x in (1,2,3) satisfies $x > 1`:            "false",
		`some $x in () satisfies $x > 0`:                  "false",
		`every $x in () satisfies $x > 0`:                 "true",
		`some $p in //person satisfies $p/income > 80000`: "true",
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestNodeComparisons(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`(//person)[1] << (//person)[2]`: "true",
		`(//person)[2] << (//person)[1]`: "false",
		`(//person)[1] >> (//person)[2]`: "false",
		`(//person)[1] is (//person)[1]`: "true",
		`(//person)[1] is (//person)[2]`: "false",
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestConstructors(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`<a/>`:                                  `<a/>`,
		`<a x="1">t</a>`:                        `<a x="1">t</a>`,
		`<a>{1 + 1}</a>`:                        `<a>2</a>`,
		`<a>{(1,2)}</a>`:                        `<a>1 2</a>`,
		`<a>x{1}y</a>`:                          `<a>x1y</a>`,
		`<out>{//person[1]/name}</out>`:         `<out><name>Alice</name></out>`,
		`element foo {"bar"}`:                   `<foo>bar</foo>`,
		`element {concat("a","b")} {1}`:         `<ab>1</ab>`,
		`text {"hi"}`:                           `hi`,
		`text {()}`:                             ``,
		`<e>{attribute n {42}}</e>`:             `<e n="42"/>`,
		`<p name="{//person[1]/name/text()}"/>`: `<p name="Alice"/>`,
		`<w>{//person[2]}</w>`:                  `<w><person id="p2"><name>Bob</name></person></w>`,
		`for $i in (1,2) return <n v="{$i}"/>`:  `<n v="1"/><n v="2"/>`,
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestConstructedNodesAreCopies(t *testing.T) {
	eng := newEng(t)
	// The copied subtree has a new identity: parent of copy is the new element.
	got := run(t, eng, `count((<w>{//person[1]/name}</w>)/name/ancestor::w)`)
	if got != "1" {
		t.Errorf("navigating constructed tree = %q", got)
	}
	got2 := run(t, eng, `(<w>{//person[1]/name}</w>)/name is (//person)[1]/name`)
	if got2 != "false" {
		t.Errorf("copy identity = %q", got2)
	}
}

func TestDocAndRoot(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`count(doc("auction.xml")/site)`:          "1",
		`count(root((//name)[1])/site)`:           "1",
		`root((//name)[1]) is doc("auction.xml")`: "true",
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestOrderBy(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`for $x in (3,1,2) order by $x return $x`:                                    "1 2 3",
		`for $x in (3,1,2) order by $x descending return $x`:                         "3 2 1",
		`for $p in //person order by $p/name/text() descending return data($p/name)`: "Carol Bob Alice",
		// Empty keys sort first (empty least).
		`for $p in //person order by $p/income return string($p/@id)`: "p2 p1 p3",
		// Multiple keys.
		`for $x in (3,1,2,1) order by $x mod 2, $x return $x`: "2 1 1 3",
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestPositionAndLast(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`for $x in ("a","b","c") return position()`:                            "1 2 3",
		`for $x in ("a","b","c") return last()`:                                "3 3 3",
		`for $x at $i in ("a","b") return ($i, $x)`:                            "1 a 2 b",
		`for $x in (10,20,30) return if (position() = last()) then $x else ()`: "30",
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestTypeswitchEndToEnd(t *testing.T) {
	eng := newEng(t)
	cases := map[string]string{
		`typeswitch (1) case xs:integer return "int" default return "other"`:                                "int",
		`typeswitch ("s") case xs:integer return "int" case xs:string return "str" default return "other"`:  "str",
		`typeswitch (//person[1]) case element(person) return "p" default return "o"`:                       "p",
		`typeswitch (//person[1]) case element(item) return "i" default return "o"`:                         "o",
		`typeswitch ((1,2)) case xs:integer return "one" case xs:integer+ return "many" default return "o"`: "many",
		`typeswitch (()) case xs:integer? return "opt" default return "o"`:                                  "opt",
		`typeswitch (1.5) case $d as xs:double return $d * 2 default return 0`:                              "3",
	}
	for src, want := range cases {
		if got := run(t, eng, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestWhereClause(t *testing.T) {
	eng := newEng(t)
	got := run(t, eng, `for $p in //person where $p/income > 60000 return $p/name/text()`)
	if got != "Carol" {
		t.Errorf("where = %q", got)
	}
	got2 := run(t, eng, `for $p in //person where empty($p/income) return string($p/@id)`)
	if got2 != "p2" {
		t.Errorf("where empty = %q", got2)
	}
}

func TestUDFConvert(t *testing.T) {
	eng := newEng(t)
	got := run(t, eng, `
		declare function local:double($v) { 2 * $v };
		for $p in //price return local:double($p)`)
	if got != "80 120 20" {
		t.Errorf("udf = %q", got)
	}
}

// Join recognition ------------------------------------------------------------------

func q8Query() string {
	return `for $p in doc("auction.xml")/site/people/person
	 let $a := for $t in doc("auction.xml")/site/closed_auctions/closed_auction
	           where $t/buyer/@person = $p/@id
	           return $t
	 return <item person="{$p/name/text()}">{count($a)}</item>`
}

func TestQ8ShapeJoinRecognition(t *testing.T) {
	eng := newEng(t)
	got := run(t, eng, q8Query())
	want := `<item person="Alice">2</item><item person="Bob">1</item><item person="Carol">0</item>`
	if got != want {
		t.Errorf("Q8 = %q, want %q", got, want)
	}
	// The compiler's join recognition must turn the nested FLWOR into a
	// value equi-join (the paper's [3]).
	coreExpr, err := xqcore.NormalizeExpr(q8Query(), xqcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := CompileWithStats(coreExpr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EquiJoins != 1 || stats.ThetaJoins != 0 {
		t.Errorf("join recognition stats = %+v, want one equi-join", stats)
	}
}

func TestThetaJoinShape(t *testing.T) {
	eng := newEng(t)
	// Q11-style theta join: income > 5000 * increase.
	got := run(t, eng, `
	 for $p in doc("auction.xml")/site/people/person
	 let $l := for $i in doc("auction.xml")/site/open_auctions/open_auction/bidder/increase
	           where $p/income > 5000 * $i
	           return $i
	 return <r n="{$p/name/text()}">{count($l)}</r>`)
	// incomes: Alice 50000 (5000*5=25000 yes, 5000*20=100000 no → 1),
	// Bob none (comparison false → 0), Carol 90000 (25000 yes, 100000 no → 1).
	want := `<r n="Alice">1</r><r n="Bob">0</r><r n="Carol">1</r>`
	if got != want {
		t.Errorf("theta join = %q, want %q", got, want)
	}
}

func TestUnnestPreservesOrderAndDuplicates(t *testing.T) {
	eng := newEng(t)
	// Multiple matches per outer binding: both closed auctions of p1, in
	// document order.
	got := run(t, eng, `
	 for $p in //person
	 return for $t in doc("auction.xml")/site/closed_auctions/closed_auction
	        where $t/buyer/@person = $p/@id
	        return data($t/price)`)
	if got != "40 60 10" {
		t.Errorf("unnested result order = %q", got)
	}
}

func TestConjunctiveJoinRecognition(t *testing.T) {
	eng := newEng(t)
	// A conjunction: the equi-comparison becomes the join predicate, the
	// price filter a residual condition in the post-join scope.
	q := `for $p in //person
	 return count(for $t in doc("auction.xml")/site/closed_auctions/closed_auction
	        where $t/buyer/@person = $p/@id and $t/price > 50
	        return $t)`
	got := run(t, eng, q)
	if got != "1 0 0" {
		t.Errorf("conjunctive where = %q", got)
	}
	coreExpr, err := xqcore.NormalizeExpr(q, xqcore.Options{ContextDoc: "auction.xml"})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := CompileWithStats(coreExpr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EquiJoins != 1 {
		t.Errorf("conjunctive condition must still unnest: %+v", stats)
	}
}

func TestUnnestFallbacksStillCorrect(t *testing.T) {
	eng := newEng(t)
	// Both variables appear on one comparison side → not separable → the
	// generic lifted plan runs, and must still be correct.
	q := `for $p in //person
	 return count(for $t in doc("auction.xml")/site/closed_auctions/closed_auction
	        where (if ($t/buyer/@person = $p/@id) then 1 else ()) = 1
	        return $t)`
	got := run(t, eng, q)
	if got != "2 1 0" {
		t.Errorf("fallback nested loop = %q", got)
	}
	coreExpr, err := xqcore.NormalizeExpr(q, xqcore.Options{ContextDoc: "auction.xml"})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := CompileWithStats(coreExpr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EquiJoins != 0 || stats.ThetaJoins != 0 {
		t.Errorf("non-separable condition must not unnest: %+v", stats)
	}
}

func TestErrorsPropagate(t *testing.T) {
	eng := newEng(t)
	runErr(t, eng, `"a" < 1`)
	runErr(t, eng, `sum(//name)`) // non-numeric strings
	runErr(t, eng, `doc("missing.xml")`)
	runErr(t, eng, `$unbound`)
	runErr(t, eng, `position()`)
	runErr(t, eng, `1 div 0`)
}

// TestStepOverAtomicContext: a step over an atomic context is the static
// XPTY0019 only when the context is never empty. One that may be empty
// compiles; corpus.StepPredicates pins what it evaluates to.
func TestStepOverAtomicContext(t *testing.T) {
	for _, src := range []string{`(1,2)/A`, `("x")/b`, `for $i in 0 to 0 return $i/A`} {
		if _, _, err := CompileQuery(src, xqcore.Options{}); err == nil || !strings.Contains(err.Error(), "XPTY0019") {
			t.Errorf("%s: err = %v, want the static XPTY0019", src, err)
		}
	}
	for _, src := range []string{`count((1 to 0)/A)`, `(1 to 3)/A`} {
		if _, _, err := CompileQuery(src, xqcore.Options{}); err != nil {
			t.Errorf("%s: %v; a context that may be empty compiles", src, err)
		}
	}
}

func TestCompileQueryPlanArtifacts(t *testing.T) {
	plan, coreExpr, err := CompileQuery(`for $v in (10,20) return $v + 100`, xqcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := algebra.Validate(plan); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	if got := strings.Join(plan.Schema(), "|"); got != "iter|pos|item" {
		t.Errorf("plan schema = %s", got)
	}
	if n := algebra.CountOps(plan); n < 10 {
		t.Errorf("figure-5 query plan has %d ops; expected a nontrivial DAG", n)
	}
	if xqcore.Print(coreExpr) == "" {
		t.Error("core printing")
	}
	dot := algebra.Dot(plan)
	if !strings.Contains(dot, "ϱ") || !strings.Contains(dot, "⋈") {
		t.Error("plan dot output must show ϱ and ⋈ (figure 5 shape)")
	}
}

func TestPlanSizeQuote(t *testing.T) {
	// The paper quotes ~120 operators for XMark Q8 before optimization;
	// our Q8-shaped query should land in the same order of magnitude.
	plan, _, err := CompileQuery(q8Query(), xqcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := algebra.CountOps(plan)
	if n < 40 || n > 400 {
		t.Errorf("Q8 plan has %d operators; expected the paper's order of magnitude (~120)", n)
	}
}

// TestFigure2SequenceEncoding checks the paper's Figure 2: the sequence
// (5, "x", <a/>, "x") is encoded as a pos|item table with positions 1–4
// and a polymorphic item column.
func TestFigure2SequenceEncoding(t *testing.T) {
	eng := newEng(t)
	plan, _, err := CompileQuery(`(5, "x", <a/>, "x")`, xqcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := res.SortBy("iter", "pos")
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Rows() != 4 {
		t.Fatalf("rows = %d, want 4", sorted.Rows())
	}
	pos, _ := sorted.Ints("pos")
	for i, p := range pos {
		if p != int64(i+1) {
			t.Errorf("pos[%d] = %d", i, p)
		}
	}
	items := sorted.MustCol("item")
	if items.ItemAt(0).I != 5 || items.ItemAt(1).S != "x" ||
		items.ItemAt(2).Kind != bat.KNode || items.ItemAt(3).S != "x" {
		t.Errorf("figure 2 items wrong: %v", sorted)
	}
	// Only the serializer reads the constructed element, so it is
	// streamed: its node has bytes, not a fragment to ask its name.
	if got := eng.Store.Serialize(items.ItemAt(2).N); got != "<a/>" {
		t.Errorf("constructed node serializes as %q, want <a/>", got)
	}
}

func TestDistinctDocOrderFunction(t *testing.T) {
	eng := newEng(t)
	got := run(t, eng, `count(fs:distinct-doc-order((//person, //person)))`)
	if got != "3" {
		t.Errorf("ddo = %q", got)
	}
}

func TestStringJoinAndAttrValueSpacing(t *testing.T) {
	eng := newEng(t)
	got := run(t, eng, `<e a="{(1,2,3)}"/>`)
	if got != `<e a="1 2 3"/>` {
		t.Errorf("attr value spacing = %q", got)
	}
	got2 := run(t, eng, `string-join(("a","b","c"), "-")`)
	if got2 != "a-b-c" {
		t.Errorf("string-join = %q", got2)
	}
}
