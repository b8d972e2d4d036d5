package core

import (
	"fmt"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/corpus"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// TestEmissionNormalForm: the compiler emits no scaffolding the optimizer
// would only delete. No compiled XMark or Table 2 plan has a π over a π,
// a π that keeps its input as it is, or a ϱ between two steps of one
// path.
func TestEmissionNormalForm(t *testing.T) {
	check := func(name, src, doc string) {
		plan, _, err := CompileQuery(src, xqcore.Options{ContextDoc: doc})
		if err != nil {
			return // the dialect corpus holds queries that fail on purpose
		}
		for _, o := range algebra.Topo(plan) {
			switch o.Kind {
			case algebra.OpProject:
				if in := o.In[0]; in.Kind == algebra.OpProject {
					t.Errorf("%s: π over π:\n%s", name, algebra.TreeString(o))
				} else if algebra.IdentityPairs(o.Proj, in.Schema()) {
					t.Errorf("%s: identity π:\n%s", name, algebra.TreeString(o))
				}
			case algebra.OpStep:
				if ctx := stepContext(o); ctx.Kind == algebra.OpRowNum && ctx.In[0].Kind == algebra.OpStep {
					t.Errorf("%s: ϱ between two steps:\n%s", name, algebra.TreeString(o))
				}
			}
		}
	}
	for n := 1; n <= xmark.NumQueries; n++ {
		check(fmt.Sprintf("Q%d", n), xmark.Query(n), "xmark.xml")
	}
	for _, q := range corpus.Dialect {
		check(q, q, "auction.xml")
	}
}

// stepContext is what step o reads its context nodes from, under the π
// that picks iter|item.
func stepContext(o *algebra.Op) *algebra.Op {
	ctx := o.In[0]
	if ctx.Kind == algebra.OpProject {
		ctx = ctx.In[0]
	}
	return ctx
}

// TestStepChains: a step whose context is another step reads that step
// directly, but never across the for a positional predicate over several
// context nodes puts between them (corpus.StepPredicates).
func TestStepChains(t *testing.T) {
	contexts := func(src string) map[string]algebra.OpKind {
		plan, _, err := CompileQuery(src, xqcore.Options{ContextDoc: "auction.xml"})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]algebra.OpKind{}
		for _, o := range algebra.Topo(plan) {
			if o.Kind == algebra.OpStep {
				out[o.Test.Name] = stepContext(o).Kind
			}
		}
		return out
	}
	for _, tc := range []struct {
		src     string
		name    string
		chained bool
	}{
		{`count(/site/people/person/name)`, "name", true},
		{`count(/site/people/person/name)`, "person", true},
		{`count(/site/people/person/name[1])`, "person", true},
		{`count(/site/people/person/name[1])`, "name", false},
		{`count(/site/people/person/name[last()])`, "name", false},
		{`count(/site/people/person/name[position() < 2])`, "name", false},
		{`count(/site/people/person/name[1]/text())`, "name", false},
		{`count(/site/people/person[1]/name)`, "person", false},
		{`for $p in /site/people/person return count($p/name[1])`, "name", false},
		{`count(/site/people/person/name[. = "Bob"])`, "name", true},
	} {
		got, ok := contexts(tc.src)[tc.name]
		if !ok {
			t.Fatalf("%s: no step ::%s", tc.src, tc.name)
		}
		if chained := got == algebra.OpStep; chained != tc.chained {
			t.Errorf("%s: step ::%s reads a %s, chained = %v, want %v", tc.src, tc.name, got, chained, tc.chained)
		}
	}
}
