package opt_test

import (
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/core"
	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
	"pathfinder/internal/opt"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

func mustOp(o *algebra.Op, err error) *algebra.Op {
	if err != nil {
		panic(err)
	}
	return o
}

func TestProjectionFusionAndIdentity(t *testing.T) {
	lit := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1}, "pos", bat.IntVec{1}, "item", bat.ItemVec{bat.Int(5)}))
	p1 := mustOp(algebra.Project(lit, "a:iter", "b:pos", "item"))
	p2 := mustOp(algebra.Project(p1, "iter:a", "pos:b", "item"))
	o, err := opt.Optimize(p2)
	if err != nil {
		t.Fatal(err)
	}
	// π∘π fuses into an identity projection over the literal, which then
	// disappears entirely.
	if o != lit {
		t.Errorf("expected the literal back, got %s", algebra.TreeString(o))
	}
}

func TestDeadColumnPruning(t *testing.T) {
	lit := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1}, "pos", bat.IntVec{1},
		"item", bat.ItemVec{bat.Int(5)}, "junk", bat.StrVec{"x"}))
	wide := mustOp(algebra.Project(lit, "iter", "pos", "item", "junk"))
	narrow := mustOp(algebra.Project(wide, "iter", "item"))
	o, err := opt.Optimize(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(o.Schema(), "|"); got != "iter|item" {
		t.Errorf("schema = %s", got)
	}
	hist := algebra.OpHistogram(o)
	if hist["project"] > 1 {
		t.Errorf("projections not fused: %s", algebra.HistString(hist))
	}
}

func TestOptimizeReducesXMarkPlanSizes(t *testing.T) {
	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	totalBefore, totalAfter := 0, 0
	for n := 1; n <= xmark.NumQueries; n++ {
		plan, _, err := core.CompileQuery(xmark.Query(n), opts)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		before := algebra.CountOps(plan)
		oplan, err := opt.Optimize(plan)
		if err != nil {
			t.Fatalf("Q%d: optimize: %v", n, err)
		}
		after := algebra.CountOps(oplan)
		if after > before {
			t.Errorf("Q%d: optimizer grew the plan %d -> %d", n, before, after)
		}
		totalBefore += before
		totalAfter += after
	}
	if totalAfter >= totalBefore {
		t.Errorf("optimizer had no effect: %d -> %d operators", totalBefore, totalAfter)
	}
	t.Logf("total plan size across Q1-Q20: %d -> %d operators", totalBefore, totalAfter)
}

// TestOptimizePreservesResults runs every XMark query optimized and
// unoptimized and requires both to produce the goldens' bytes.
func TestOptimizePreservesResults(t *testing.T) {
	m := difftest.Matrix{Docs: difftest.XMarkDocs(), Evals: []difftest.Evaluator{difftest.Engine("engine", engine.Config{})}}
	m.Run(t, difftest.XMark(t))
}

func TestOptimizeValidates(t *testing.T) {
	plan, _, err := core.CompileQuery(
		`for $v in (10,20) return $v + 100`, xqcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := opt.Optimize(plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := algebra.Validate(o); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(o.Schema(), "|"); got != "iter|pos|item" {
		t.Errorf("root schema = %s", got)
	}
}

// The ϱ → mark rewrite: a compiled query whose ϱ inputs are sorted must
// end up with fewer rownum and more rowid operators after optimization.
func TestRowNumBecomesMark(t *testing.T) {
	plan, _, err := core.CompileQuery(
		`for $v in (10,20,30) return $v + 1`, xqcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := algebra.OpHistogram(plan)
	oplan, err := opt.Optimize(plan)
	if err != nil {
		t.Fatal(err)
	}
	after := algebra.OpHistogram(oplan)
	if after["rownum"] >= before["rownum"] {
		t.Errorf("no ϱ became mark: before %s, after %s",
			algebra.HistString(before), algebra.HistString(after))
	}
	if after["rowid"] == 0 {
		t.Error("expected mark operators in the optimized plan")
	}
}

func TestDistinctEliminatedOnKeyedInput(t *testing.T) {
	// δ over a staircase-join output (iter, doc-order key) is a no-op.
	lit := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1},
		"item", bat.NodeVec{{Frag: 0, Pre: 0}},
	))
	st := mustOp(algebra.Step(lit, algebra.Descendant, algebra.KindTest{Kind: algebra.TestNode}))
	d := algebra.Distinct(st)
	o, err := opt.Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	if algebra.OpHistogram(o)["distinct"] != 0 {
		t.Errorf("δ over a keyed step output must vanish:\n%s", algebra.TreeString(o))
	}
	// ... but δ over a union must stay.
	u := mustOp(algebra.Union(lit, lit))
	d2 := algebra.Distinct(u)
	o2, err := opt.Optimize(d2)
	if err != nil {
		t.Fatal(err)
	}
	if algebra.OpHistogram(o2)["distinct"] != 1 {
		t.Error("δ over a union must be kept")
	}
}
