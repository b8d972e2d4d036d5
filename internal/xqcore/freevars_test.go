package xqcore

import (
	"sort"
	"strings"
	"testing"

	"pathfinder/internal/xquery"
)

func freeOf(t *testing.T, src string) []string {
	t.Helper()
	// Bind the referenced variables in an outer wrapper so normalization
	// succeeds, then inspect the body's free variables.
	wrapped := `for $p in (1,2) return for $q in (3,4) return ` + src
	e, err := NormalizeExpr(wrapped, Options{ContextDoc: "ctx.xml"})
	if err != nil {
		t.Fatalf("normalize %q: %v", src, err)
	}
	body := e.(*For).Body.(*For).Body
	var out []string
	for v := range FreeVars(body) {
		if !strings.Contains(v, "#") { // ignore compiler-generated names
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

func TestFreeVarsAcrossConstructs(t *testing.T) {
	cases := map[string][]string{
		`$p + $q`:                         {"p", "q"},
		`let $x := $p return $x`:          {"p"},
		`for $x in $p return ($x, $q)`:    {"p", "q"},
		`if ($p = 1) then $q else ()`:     {"p", "q"},
		`some $x in $p satisfies $x = $q`: {"p", "q"},
		`<e a="{$p}">{$q}</e>`:            {"p", "q"},
		`typeswitch ($p) case xs:integer return $q default return 0`: {"p", "q"},
		`count($p) + sum($q)`:  {"p", "q"},
		`($p, 1)[1]`:           {"p"},
		`string-join($p, "-")`: {"p"},
		`element {"x"} {$q}`:   {"q"},
		`attribute a {$p}`:     {"p"},
		`text {$q}`:            {"q"},
		`$p << $q`:             {"p", "q"},
		`//a`:                  nil, // context doc, no vars
	}
	for src, want := range cases {
		got := freeOf(t, src)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("FreeVars(%s) = %v, want %v", src, got, want)
		}
	}
}

func TestFreeVarsShadowing(t *testing.T) {
	// $x is bound by the inner for; only $p is free.
	got := freeOf(t, `for $x in (1,2) return $x + $p`)
	if strings.Join(got, ",") != "p" {
		t.Errorf("shadowed: %v", got)
	}
	// A let that rebinds $p hides the outer one in its body, but the
	// bound expression still references it.
	got2 := freeOf(t, `let $p := $p + 1 return $p`)
	if strings.Join(got2, ",") != "p" {
		t.Errorf("let rebinding: %v", got2)
	}
}

func TestUsesPositionOrLastScoping(t *testing.T) {
	mk := func(src string) Expr {
		e, err := NormalizeExpr(`for $x in (1,2) return `+src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return e.(*For).Body
	}
	if !UsesPositionOrLast(mk(`position()`)) {
		t.Error("direct position()")
	}
	if !UsesPositionOrLast(mk(`if (position() = 1) then 1 else 2`)) {
		t.Error("position() in a condition")
	}
	if !UsesPositionOrLast(mk(`(last(), 1)`)) {
		t.Error("last() in a sequence")
	}
	// A nested for rebinds the context: its body's position() is not the
	// outer one's concern.
	if UsesPositionOrLast(mk(`for $y in (1,2) return position()`)) {
		t.Error("nested for shields position()")
	}
	// ... but position() in the nested In still refers to the outer loop.
	if !UsesPositionOrLast(mk(`for $y in (position()) return $y`)) {
		t.Error("position() in a nested In")
	}
	if UsesPositionOrLast(mk(`1 + 2`)) {
		t.Error("plain arithmetic")
	}
}

func TestResolveSeqTypeVariants(t *testing.T) {
	ok := []string{
		"item()", "node()", "element()", "element(a)", "attribute()",
		"text()", "document-node()", "xs:integer", "xs:int", "xs:long",
		"xs:double", "xs:decimal", "xs:float", "xs:string", "xs:boolean",
		"xs:untypedAtomic", "xs:anyAtomicType",
	}
	for _, ty := range ok {
		src := `typeswitch (1) case ` + ty + ` return 1 default return 2`
		if _, err := NormalizeExpr(src, Options{}); err != nil {
			t.Errorf("%s: %v", ty, err)
		}
	}
	if _, err := NormalizeExpr(
		`typeswitch (1) case xs:gYearMonth return 1 default return 2`, Options{}); err == nil {
		t.Error("unsupported sequence type must fail")
	}
}

func TestTypeHelpers(t *testing.T) {
	if !(Type{IInt, COne}).AtMostOne() || !(Type{IInt, COpt}).AtMostOne() {
		t.Error("AtMostOne for one/opt")
	}
	if (Type{IInt, CMany}).AtMostOne() || (Type{IInt, CPlus}).AtMostOne() {
		t.Error("AtMostOne for many/plus")
	}
	if !(Type{IInt, COpt}).MaybeEmpty() || (Type{IInt, CPlus}).MaybeEmpty() {
		t.Error("MaybeEmpty")
	}
	if (Type{IInt, CEmpty}).String() != "empty-sequence()" {
		t.Error("empty type string")
	}
	if got := (Type{IElem, CMany}).String(); got != "element()*" {
		t.Errorf("type string = %q", got)
	}
}

// substVars is exercised indirectly by order-by-let substitution; check
// the binder-respecting branches directly over a rich AST.
func TestSubstVarsBranches(t *testing.T) {
	q, err := xquery.Parse(`
		for $a in (1,2)
		let $n := $a + 1
		order by (typeswitch ($n)
		          case $c as xs:integer return some $s in (1, $n) satisfies $s = $c
		          default $d return exists($d)),
		         <k v="{$n}">{.}</k>,
		         (//x)[$n]
		return $a`)
	if err != nil {
		t.Fatal(err)
	}
	// Normalization performs the substitution; it must succeed and leave
	// no reference to $n in the keys.
	e, err := Normalize(q, Options{ContextDoc: "c.xml"})
	_ = e
	// The context item `.` inside the constructor has no binding at the
	// key position — that is a legitimate error; what matters is that the
	// failure is NOT an unbound $n.
	if err != nil && strings.Contains(err.Error(), "$n") {
		t.Errorf("substitution left $n unresolved: %v", err)
	}
}

func TestOnlyCounted(t *testing.T) {
	cases := map[string]bool{
		`count($l)`:                                     true,
		`<n a="{count($l)}">{count($l) + 1}</n>`:        true,
		`for $x in (1,2) return count($l) + $x`:         true,
		`if (count($l) > 1) then "many" else count($l)`: true,
		`42`:                                        true, // never read at all
		`(count($l), let $l := (1,2) return $l)`:    true, // the inner $l is another variable
		`(count($l), for $l in (1,2) return $l)`:    true,
		`for $x at $l in ("a","b") return $l`:       true,
		`$l`:                                        false,
		`(count($l), $l)`:                           false,
		`count(($l, 1))`:                            false,
		`sum($l)`:                                   false,
		`for $x in $l return 1`:                     false,
		`let $l := $l return 1`:                     false, // the bound expression still sees the outer $l
		`for $x in (1,2) order by $l return $x`:     false,
		`for $x in (1,2) return <e>{$l}</e>`:        false,
		`some $x in (1,2) satisfies $x = count($l)`: true,
		`typeswitch ($l) case xs:integer return 1 default return 0`: false,
	}
	for src, want := range cases {
		e, err := NormalizeExpr(`let $l := (7, 8, 9) return `+src, Options{})
		if err != nil {
			t.Fatalf("normalize %q: %v", src, err)
		}
		if got := OnlyCounted(e.(*Let).Body, "l"); got != want {
			t.Errorf("OnlyCounted(%s) = %v, want %v", src, got, want)
		}
	}
}
