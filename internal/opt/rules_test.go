package opt_test

import (
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/corpus"
	"pathfinder/internal/opt"
)

// census is what a plan shows of the rewrites that made it: operators by
// kind, the narrowest schema per label of the operators that are not π,
// and the π under a ∪ that drop columns of their input and rename none.
type census struct {
	kinds   map[algebra.OpKind]int
	narrow  map[string]int
	aligned int
}

func takeCensus(root *algebra.Op) census {
	c := census{kinds: map[algebra.OpKind]int{}, narrow: map[string]int{}}
	for _, o := range algebra.Topo(root) {
		c.kinds[o.Kind]++
		if o.Kind != algebra.OpProject {
			if w, ok := c.narrow[o.Label()]; !ok || len(o.Schema()) < w {
				c.narrow[o.Label()] = len(o.Schema())
			}
		}
		if o.Kind == algebra.OpUnion {
			for _, in := range o.In {
				if in.Kind == algebra.OpProject && keeps(in) && len(in.Schema()) < len(in.In[0].Schema()) {
					c.aligned++
				}
			}
		}
	}
	return c
}

// keeps reports that π o renames none of the columns it keeps.
func keeps(o *algebra.Op) bool {
	for _, p := range o.Proj {
		if p.New != p.Old {
			return false
		}
	}
	return true
}

// TestEveryRuleFires: each rewrite the optimizer keeps changes at least
// one plan of XMark q01–q20 ∪ the Table 2 corpus. The rewrites are told
// apart by walking the CSE-shared compiled plan and the optimized one:
// the compiler emits no mark, so only ϱ → mark makes one; only isolation
// removes a ϱ; only δ elimination removes a δ; only demand pruning
// narrows an operator that is not a π; and only union alignment puts a π
// that drops columns without renaming any under a ∪ more often than the
// compiler does.
func TestEveryRuleFires(t *testing.T) {
	fired := map[string]int{}
	plans := append(compileAll(t, xmarkTexts(), "xmark.xml"), compileAll(t, corpus.Dialect, "auction.xml")...)
	for _, plan := range plans {
		in := takeCensus(opt.CSE(plan))
		if in.kinds[algebra.OpRowID] > 0 {
			t.Fatalf("the compiler emitted a mark:\n%s", algebra.TreeString(plan))
		}
		res, err := opt.Optimize(plan)
		if err != nil {
			t.Fatal(err)
		}
		out := takeCensus(res)
		if out.kinds[algebra.OpRowID] > 0 {
			fired["ϱ → mark"]++
		}
		if out.kinds[algebra.OpRowNum]+out.kinds[algebra.OpRowID] < in.kinds[algebra.OpRowNum] {
			fired["isolation splice"]++
		}
		if out.kinds[algebra.OpDistinct] < in.kinds[algebra.OpDistinct] {
			fired["δ elimination"]++
		}
		for label, w := range out.narrow {
			if w < in.narrow[label] {
				fired["demand pruning"]++
				break
			}
		}
		if out.aligned > in.aligned {
			fired["union alignment"]++
		}
	}
	for _, rule := range []string{"demand pruning", "δ elimination", "ϱ → mark", "isolation splice", "union alignment"} {
		if fired[rule] == 0 {
			t.Errorf("%s changed none of the %d plans", rule, len(plans))
		}
	}
	t.Logf("plans changed per rule: %v", fired)
}
