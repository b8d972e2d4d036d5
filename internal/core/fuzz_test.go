package core

import (
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/check"
	"pathfinder/internal/opt"
	"pathfinder/internal/xqcore"
	"pathfinder/internal/xquery"
)

// FuzzCompile drives the full front end — parse, normalize, loop-lift,
// optimize — over arbitrary input: whatever compiles must validate as a
// well-formed plan with the iter|pos|item root schema, the optimizer must
// accept it, and every layer of internal/check must pass the optimized
// plan — the ε skeleton rules among them; nothing may panic.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		`for $v in (10,20), $w in (100,200) return $v + $w`,
		`for $p in //person
		 let $a := for $t in doc("ctx.xml")/a/b where $t/@x = $p/@y return $t
		 return count($a)`,
		`//a[1]/b[last()]/@c`,
		`typeswitch (//a) case element(b)* return 1 default return 2`,
		`<e a="{1 to 3}">{distinct-values((1,1))}</e>`,
		`for $x in (3,1) order by substring(string($x), 1) descending return $x`,
		`some $x in //a satisfies $x is (//b)[1]`,
		`sum(for $i in 1 to 5 return $i * $i)`,
		`<a x="{1}"><b>{2}<c y="3">{4, text{"t"}}</c></b>{5}<d/></a>`,
		`for $i in (1, 2) return <p n="{$i}"><q>{$i}</q>{element {concat("r", $i)} {<s/>}}</p>`,
		`<a>{for $i in (1, 2) return <b>{$i}</b>}{if (1 = 1) then <c/> else ()}{attribute z {()}}</a>`,
		`let $x := (<a/>, <a/>) return $x[1] is $x[2]`,
		`(1, (), (2, 3), <e>{(4, 5), ()}</e>)`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := xquery.Parse(src)
		if err != nil {
			return
		}
		coreExpr, err := xqcore.Normalize(q, xqcore.Options{ContextDoc: "ctx.xml"})
		if err != nil {
			return
		}
		plan, err := Compile(coreExpr)
		if err != nil {
			return
		}
		if err := algebra.Validate(plan); err != nil {
			t.Fatalf("compiled plan invalid: %v", err)
		}
		if got := strings.Join(plan.Schema(), "|"); got != "iter|pos|item" {
			t.Fatalf("root schema = %s", got)
		}
		oplan, err := opt.Optimize(plan)
		if err != nil {
			t.Fatalf("optimizer rejected a compiled plan: %v", err)
		}
		if algebra.CountOps(oplan) > algebra.CountOps(plan) {
			t.Fatal("optimizer grew the plan")
		}
		if diags := check.Plan(oplan); len(diags) > 0 {
			t.Fatalf("optimized plan fails validation:\n%s", check.Render(diags))
		}
	})
}
