package engine_test

// Differential tier for fn:count over an unnested join (corpus.CountJoin):
// every case pins its result, which the physical executors (runtime
// checking on), the same executor forced to run every theta unit member
// by member and the navigational baseline must all produce, and which
// shape the compiler gave it — read off core.Stats after the runner. The
// forged-plan test at the end takes the count-only kernel away from
// XMark Q11 and Q12 and expects the golden bytes from what is left.

import (
	"context"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/core"
	"pathfinder/internal/corpus"
	"pathfinder/internal/difftest"
	"pathfinder/internal/opt"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
	"pathfinder/internal/xquery"
)

func compileStats(t *testing.T, src string, opts xqcore.Options) (*algebra.Op, core.Stats) {
	t.Helper()
	ast, err := xquery.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	expr, err := xqcore.Normalize(ast, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, stats, err := core.CompileWithStats(expr)
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = opt.Optimize(plan); err != nil {
		t.Fatal(err)
	}
	return plan, stats
}

// countJoinShapes pins, per corpus.CountJoin case, the joins the
// compiler unnests and how many of them compile to the count-only shape
// (core.Stats).
var countJoinShapes = map[string]struct{ joins, counted int }{
	"count in the binding scope":      {1, 1},
	"counted twice, compiled once":    {1, 1},
	"counted and returned":            {1, 0},
	"counted inside a nested for":     {1, 1},
	"counted under a conditional":     {1, 1},
	"name rebound below the count":    {1, 1},
	"count applied directly":          {1, 1},
	"two items per pair":              {1, 0},
	"a path per pair":                 {1, 0},
	"residual conjunct":               {1, 0},
	"greater or equal counts the tie": {1, 1},
	"less or equal, sides swapped":    {1, 1},
	"string keys":                     {1, 1},
	"equi-join (Q8 shape)":            {1, 1},
	"positional variable":             {0, 0},
	"order by":                        {0, 0},
	"second where clause (Q12 shape)": {2, 1},
}

func TestCountJoinCorpus(t *testing.T) {
	docs := []difftest.Doc{{URI: "cj.xml", Text: corpus.CountJoinDoc}}
	matrix(docs, difftest.Check, demoted, navdomEval).Run(t, corpus.CountJoin)
	seq := difftest.LoadEngine(t, difftest.CheckConfig, docs)
	opts := xqcore.Options{ContextDoc: "cj.xml"}
	fired := 0
	for _, c := range corpus.CountJoin {
		want, ok := countJoinShapes[c.Name]
		if !ok {
			t.Fatalf("%s: no shape pinned", c.Name)
		}
		plan, stats := compileStats(t, c.Query, opts)
		if got := stats.EquiJoins + stats.ThetaJoins; got != want.joins || stats.CountJoins != want.counted {
			t.Errorf("%s: compiled %d join(s), %d of them count-only; want %d and %d", c.Name, got, stats.CountJoins, want.joins, want.counted)
		}
		// A counted theta join must reach the executor as a count-only
		// unit and be answered without a pair.
		_, tr, err := seq.EvalTrace(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		counting := 0
		for _, tj := range seq.Lowered(plan).ThetaJoins {
			if tj.Count == nil {
				continue
			}
			counting++
			if st := tr.Stats[tj.Count.Op]; !strings.HasPrefix(st.Kernel, "merge-thetacount[") || tr.Stats[tj.Select.Op].RowsOut != 0 {
				t.Errorf("%s: count-only unit ran as %q and emitted %d pairs", c.Name, st.Kernel, tr.Stats[tj.Select.Op].RowsOut)
			}
		}
		if want := min(want.counted, stats.ThetaJoins); counting != want {
			t.Errorf("%s: %d count-only theta unit(s) in the physical plan, want %d", c.Name, counting, want)
		}
		fired += counting
	}
	if fired < 8 {
		t.Errorf("only %d count-only units ran across the corpus", fired)
	}
}

// TestCountJoinDemotionKeepsGoldens: XMark Q11 and Q12 with the count-only
// kernel taken away through the plan cache — the lowered plan claims the
// untyped income column as the count's partition column, which the kernel
// refuses — run their six members one by one, runtime checking on, and
// still produce the golden bytes.
func TestCountJoinDemotionKeepsGoldens(t *testing.T) {
	e := difftest.LoadEngine(t, difftest.CheckConfig, difftest.XMarkDocs())
	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	for _, n := range []int{11, 12} {
		plan, _ := compileStats(t, xmark.Query(n), opts)
		forged := 0
		for _, tj := range e.Lowered(plan).ThetaJoins {
			if tj.Count != nil {
				tj.CountBy = tj.LeftCol
				forged++
			}
		}
		if forged != 1 {
			t.Fatalf("Q%d: %d count-only units, want 1", n, forged)
		}
		res, tr, err := e.EvalTrace(context.Background(), plan)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		demotions := 0
		for _, st := range tr.Stats {
			if strings.HasSuffix(st.Kernel, "(demoted:iter-order)") {
				demotions++
			}
		}
		if demotions != 1 {
			t.Errorf("Q%d: %d units demoted for iter-order, want 1", n, demotions)
		}
		got, err := serialize.Result(e.Store, res)
		if err != nil {
			t.Fatal(err)
		}
		if got != difftest.Golden(t, n) {
			t.Errorf("Q%d: demoted output differs from %s", n, difftest.GoldenPath(n))
		}
	}
}

// TestCountJoinScalesWithDocument counts instead of timing: the rows Q11
// materializes grow with the document (4× from SF 0.02 to SF 0.08), not
// with the join's result (16×, which is what numbering the pairs cost).
func TestCountJoinScalesWithDocument(t *testing.T) {
	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	materialized := func(sf float64) (rows, counted int) {
		e := difftest.LoadEngine(t, difftest.CheckConfig, []difftest.Doc{{URI: "xmark.xml", Text: xmark.GenerateString(sf)}})
		plan, _ := compileStats(t, xmark.Query(11), opts)
		_, tr, err := e.EvalTrace(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range tr.Stats {
			rows += st.RowsMat
		}
		for _, tj := range e.Lowered(plan).ThetaJoins {
			counted += tr.Stats[tj.Out().Op].RowsIn
		}
		return rows, counted
	}
	small, smallPairs := materialized(0.02)
	large, largePairs := materialized(0.08)
	if largePairs < 10*smallPairs {
		t.Fatalf("the join's result grew only %d → %d pairs: the instances do not tell linear from quadratic", smallPairs, largePairs)
	}
	if large > 5*small {
		t.Errorf("rows materialized grew %d → %d (%.1f×) for a 4× document; the pairs grew %d → %d",
			small, large, float64(large)/float64(small), smallPairs, largePairs)
	}
}
