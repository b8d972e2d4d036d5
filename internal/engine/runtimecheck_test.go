package engine

// White-box tests for the Config.Check runtime assertions: corrupted
// plans are injected past the static validator — straight into the
// engine's lowered-plan cache, or as in-place-edited logical nodes — and
// evaluation must fail loudly instead of returning a quietly wrong
// result.

import (
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/opt"
	"pathfinder/internal/physical"
	"pathfinder/internal/xenc"
)

func checkEngine(t *testing.T) *Engine {
	t.Helper()
	return NewWithConfig(xenc.NewStore(), Config{Workers: 1, Check: true})
}

func mustTable(t *testing.T, pairs ...any) *bat.Table {
	t.Helper()
	tab, err := bat.NewTable(pairs...)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestRuntimeCheckForgedSorted plants a lowered plan whose root claims a
// sortedness the data violates; the kernel output scan must refuse it.
func TestRuntimeCheckForgedSorted(t *testing.T) {
	e := checkEngine(t)
	root := algebra.Lit(mustTable(t, "item", bat.IntVec{3, 1, 2}))
	plan := physical.Lower(root)
	plan.Root.Props = opt.Props{Sorted: []string{"item"}}
	e.sh.plans.Store(root, plan)

	_, err := e.Eval(root)
	if err == nil {
		t.Fatal("evaluation accepted a forged sortedness claim")
	}
	if !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("wrong failure: %v", err)
	}
}

// TestRuntimeCheckForgedDense plants a dense (1..n) claim over a column
// with a hole in it.
func TestRuntimeCheckForgedDense(t *testing.T) {
	e := checkEngine(t)
	root := algebra.Lit(mustTable(t, "pos", bat.IntVec{1, 2, 4}))
	plan := physical.Lower(root)
	plan.Root.Props = opt.Props{Sorted: []string{"pos"}, Strict: true, Dense: []string{"pos"}}
	e.sh.plans.Store(root, plan)

	_, err := e.Eval(root)
	if err == nil {
		t.Fatal("evaluation accepted a forged denseness claim")
	}
	if !strings.Contains(err.Error(), "claimed dense") {
		t.Fatalf("wrong failure: %v", err)
	}
}

// TestRuntimeCheckForgedStrict plants a duplicate-free claim over a
// column with duplicates.
func TestRuntimeCheckForgedStrict(t *testing.T) {
	e := checkEngine(t)
	root := algebra.Lit(mustTable(t, "iter", bat.IntVec{1, 1, 2}))
	plan := physical.Lower(root)
	plan.Root.Props = opt.Props{Sorted: []string{"iter"}, Strict: true}
	e.sh.plans.Store(root, plan)

	_, err := e.Eval(root)
	if err == nil {
		t.Fatal("evaluation accepted a forged strictness claim")
	}
	if !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("wrong failure: %v", err)
	}
}

// TestRuntimeCheckSchemaDrift evaluates an operator whose declared schema
// does not match what its kernel computes.
func TestRuntimeCheckSchemaDrift(t *testing.T) {
	in := algebra.Lit(mustTable(t, "iter", bat.IntVec{1, 2}, "item", bat.IntVec{3, 4}))
	_, err := checkEngine(t).Eval(algebra.Unchecked(algebra.OpDistinct, []string{"iter", "bogus"}, in))
	if err == nil {
		t.Fatal("evaluation accepted a drifted schema")
	}
	if !strings.Contains(err.Error(), "schema declares") {
		t.Fatalf("wrong failure: %v", err)
	}
}

// TestRuntimeCheckCleanPlanPasses guards against the assertions
// themselves rejecting a legitimate plan with real properties.
func TestRuntimeCheckCleanPlanPasses(t *testing.T) {
	e := checkEngine(t)
	in := algebra.Lit(mustTable(t, "iter", bat.IntVec{2, 1, 3}, "item", bat.IntVec{1, 2, 3}))
	rn, err := algebra.RowNum(in, "pos", []algebra.OrderSpec{{Col: "iter"}}, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Eval(rn)
	if err != nil {
		t.Fatalf("runtime check rejected a clean plan: %v", err)
	}
	if res.Rows() != 3 {
		t.Fatalf("got %d rows, want 3", res.Rows())
	}
}
