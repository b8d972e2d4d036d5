package core

import (
	"fmt"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/check"
	"pathfinder/internal/opt"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// TestConstructorTreesAreOneElem pins one ε per constructor tree on the
// XMark queries, as compiled and as optimized: Q10 — a three-level
// element per person inside a two-slot category — has exactly two ε, the
// attributes of Q8/Q11/Q12 are skeleton attributes (no attr operator),
// Q20's four counts fill one element, and no ε reads a slot renumbered by
// a ϱ over an ord tag, the content-sequence scaffolding a skeleton
// replaces.
func TestConstructorTreesAreOneElem(t *testing.T) {
	for _, c := range []struct{ query, elems int }{{8, 1}, {10, 2}, {11, 1}, {12, 1}, {20, 1}} {
		plan, _, err := CompileQuery(xmark.Query(c.query), xqcore.Options{ContextDoc: "xmark.xml"})
		if err != nil {
			t.Fatal(err)
		}
		optimized, err := opt.Optimize(plan)
		if err != nil {
			t.Fatal(err)
		}
		for stage, p := range map[string]*algebra.Op{"compiled": plan, "optimized": optimized} {
			name := fmt.Sprintf("Q%d %s", c.query, stage)
			h := algebra.OpHistogram(p)
			if h["elem"] != c.elems || h["attr"] != 0 {
				t.Errorf("%s: %d ε and %d attr, want %d and 0", name, h["elem"], h["attr"], c.elems)
			}
			for _, o := range algebra.Topo(p) {
				if o.Kind != algebra.OpElem {
					continue
				}
				for k, slot := range o.In[1:] {
					for slot.Kind == algebra.OpProject {
						slot = slot.In[0]
					}
					if slot.Kind == algebra.OpRowNum && len(slot.Order) > 0 && slot.Order[0].Col == "ord" {
						t.Errorf("%s: slot %d of ε %s is a ϱ over ord", name, k, o.Skel)
					}
				}
			}
			if diags := check.Plan(p); len(diags) > 0 {
				t.Errorf("%s:\n%s", name, check.Render(diags))
			}
		}
	}
}

// TestSkeletonInlining pins which constructors a skeleton inlines: direct
// children with literal names, recursively, and literal-named attributes;
// not a computed name, not a constructor under a for or an if.
func TestSkeletonInlining(t *testing.T) {
	for _, c := range []struct{ query, skel string }{
		{`<a x="1"><b>{2}</b><c/></a>`, `<a x=$0><b>$1</b><c/></a>`},
		{`<a>{1, <b/>}{attribute y {2}}</a>`, `<a>$0<b/> y=$1</a>`},
		{`element {"a"} {element b {()}}`, `<a><b/></a>`},
		{`<a>{element {concat("b", "")} {()}}</a>`, `<a>$0</a>`},
		{`<a>{for $i in (1, 2) return <b/>}</a>`, `<a>$0</a>`},
		{`<a>{if (1 = 1) then <b/> else ()}</a>`, `<a>$0</a>`},
		{`element {concat("a", "")} {<b/>}`, `<*><b/></*>`},
	} {
		plan, _, err := CompileQuery(c.query, xqcore.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		var root *algebra.Op
		for _, o := range algebra.Topo(plan) {
			if o.Kind == algebra.OpElem {
				root = o // the last ε in topological order is the outermost
			}
		}
		if root == nil || root.Skel.String() != c.skel {
			got := "no ε"
			if root != nil {
				got = root.Skel.String()
			}
			t.Errorf("%s: outermost ε is %s, want %s", c.query, got, c.skel)
		}
	}
}
