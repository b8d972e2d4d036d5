package check_test

// The validator's zero-false-positive guarantee: every plan the compiler
// actually emits — all 20 XMark queries and the Table 2 dialect corpus,
// both before and after optimization — must validate clean at every
// layer. A finding on a legitimate plan means the re-derivation is
// weaker than an invariant the compiler relies on, which would force
// users to ignore the validator.

import (
	"fmt"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/check"
	"pathfinder/internal/core"
	"pathfinder/internal/opt"
	"pathfinder/internal/physical"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// corpusQueries is the Table 2 dialect corpus plus the join/constructor
// shapes the differential tests pin — one query per supported construct.
var corpusQueries = []string{
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
	`for $p in //person
	 return count(for $t in doc("auction.xml")/site/closed_auctions/closed_auction
	        where $t/buyer/@person = $p/@id return $t)`,
	`for $p in //person order by $p/income return string($p/@id)`,
	`for $i in (1,2) return <n v="{$i}"/>`,
	`<out>{//person[1]/name}</out>`,
}

// checkClean runs every validation layer on one plan and reports findings.
func checkClean(t *testing.T, label string, root *algebra.Op) {
	t.Helper()
	if diags := check.Plan(root); len(diags) > 0 {
		t.Errorf("%s: validator flagged a legitimate plan:\n%s", label, check.Render(diags))
	}
}

func TestCorpusPlansValidate(t *testing.T) {
	opts := xqcore.Options{ContextDoc: "auction.xml"}
	for i, src := range corpusQueries {
		label := fmt.Sprintf("dialect[%d] %.60s", i, src)
		plan, _, err := core.CompileQuery(src, opts)
		if err != nil {
			t.Errorf("%s: compile: %v", label, err)
			continue
		}
		checkClean(t, label+" (pre-opt)", plan)
		optPlan, err := opt.Optimize(plan)
		if err != nil {
			t.Errorf("%s: optimize: %v", label, err)
			continue
		}
		checkClean(t, label+" (post-opt)", optPlan)
	}
}

func TestXMarkPlansValidate(t *testing.T) {
	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	for n := 1; n <= xmark.NumQueries; n++ {
		label := fmt.Sprintf("xmark q%02d", n)
		plan, _, err := core.CompileQuery(xmark.Query(n), opts)
		if err != nil {
			t.Errorf("%s: compile: %v", label, err)
			continue
		}
		checkClean(t, label+" (pre-opt)", plan)
		optPlan, err := opt.Optimize(plan)
		if err != nil {
			t.Errorf("%s: optimize: %v", label, err)
			continue
		}
		checkClean(t, label+" (post-opt)", optPlan)
	}
}

// TestXMarkElemsStream: every XMark constructor only builds the result,
// so every ε of the twenty optimized plans streams — and the stream
// class proves each one.
func TestXMarkElemsStream(t *testing.T) {
	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	streamed := 0
	for n := 1; n <= xmark.NumQueries; n++ {
		plan, _, err := core.CompileQuery(xmark.Query(n), opts)
		if err != nil {
			t.Fatal(err)
		}
		if plan, err = opt.Optimize(plan); err != nil {
			t.Fatal(err)
		}
		p := physical.Lower(plan)
		for _, nd := range p.Nodes {
			if nd.Op.Kind != algebra.OpElem {
				continue
			}
			if !nd.Stream {
				t.Errorf("q%02d: ε %s builds a fragment", n, nd.Op.Skel)
			}
			streamed++
		}
		if diags := check.Physical(p); len(diags) > 0 {
			t.Errorf("q%02d:\n%s", n, check.Render(diags))
		}
	}
	if streamed == 0 {
		t.Error("no XMark plan has an ε")
	}
}
