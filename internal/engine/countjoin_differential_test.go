package engine_test

// Differential tier for fn:count over an unnested join (corpus.CountJoin):
// every case pins which shape the compiler gave it — read off core.Stats —
// and its result, which the physical executors (runtime checking on), the
// same executor forced to run every theta unit member by member and the
// navigational baseline must all produce. The forged-plan test at the end
// takes the count-only kernel away from XMark Q11 and Q12 and expects the
// golden bytes from what is left.

import (
	"context"
	"os"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/core"
	"pathfinder/internal/corpus"
	"pathfinder/internal/navdom"
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

func TestCountJoinCorpus(t *testing.T) {
	const uri = "cj.xml"
	seq := seqEngine(t, uri, corpus.CountJoinDoc)
	par := parEngine(t, uri, corpus.CountJoinDoc)
	demoted := parEngine(t, uri, corpus.CountJoinDoc)
	demoted.ForceThetaDemotion()
	db := navdom.NewDB()
	if _, err := db.LoadString(uri, corpus.CountJoinDoc); err != nil {
		t.Fatal(err)
	}
	opts := xqcore.Options{ContextDoc: uri}
	fired := 0
	for _, c := range corpus.CountJoin {
		plan, stats := compileStats(t, c.Query, opts)
		if got := stats.EquiJoins + stats.ThetaJoins; got != c.Joins || stats.CountJoins != c.Counted {
			t.Errorf("%s: compiled %d join(s), %d of them count-only; want %d and %d", c.Name, got, stats.CountJoins, c.Joins, c.Counted)
		}
		runs := []struct {
			name string
			run  func() (string, error)
		}{
			{"phys seq", func() (string, error) { return core.Run(c.Query, seq, opts) }},
			{"phys par", func() (string, error) { return core.Run(c.Query, par, opts) }},
			{"optimized seq", func() (string, error) { return runOptimized(t, c.Query, seq, opts) }},
			{"optimized par", func() (string, error) { return runOptimized(t, c.Query, par, opts) }},
			{"members one by one", func() (string, error) { return runOptimized(t, c.Query, demoted, opts) }},
			{"navdom", func() (string, error) { return navdom.NewInterp(db).Run(c.Query, opts) }},
		}
		for _, r := range runs {
			if got, err := r.run(); err != nil || got != c.Want {
				t.Errorf("%s: %s: got %q, err %v; want %q", c.Name, r.name, got, err, c.Want)
			}
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
		if want := min(c.Counted, stats.ThetaJoins); counting != want {
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
	e := seqEngine(t, "xmark.xml", xmark.GenerateString(goldenSF))
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
		want, err := os.ReadFile(goldenPath(n))
		if err != nil {
			t.Fatal(err)
		}
		if got+"\n" != string(want) {
			t.Errorf("Q%d: demoted output differs from %s", n, goldenPath(n))
		}
	}
}

// TestCountJoinScalesWithDocument counts instead of timing: the rows Q11
// materializes grow with the document (4× from SF 0.02 to SF 0.08), not
// with the join's result (16×, which is what numbering the pairs cost).
func TestCountJoinScalesWithDocument(t *testing.T) {
	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	materialized := func(sf float64) (rows, counted int) {
		e := seqEngine(t, "xmark.xml", xmark.GenerateString(sf))
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
