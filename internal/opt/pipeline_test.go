package opt_test

import (
	"fmt"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/check"
	"pathfinder/internal/core"
	"pathfinder/internal/opt"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// TestPipelineBeatsPeephole pins the staged pipeline's claim: on the
// join-heavy XMark queries join graph isolation removes operators a
// single normalize sweep (the single-shot peephole optimizer it
// replaced) cannot see, and never does worse on any query.
func TestPipelineBeatsPeephole(t *testing.T) {
	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	improved := 0
	for n := 1; n <= xmark.NumQueries; n++ {
		plan, _, err := core.CompileQuery(xmark.Query(n), opts)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		peep, err := opt.NormalizeOnce(plan)
		if err != nil {
			t.Fatalf("Q%d: normalize: %v", n, err)
		}
		res, err := opt.Pipeline(plan)
		if err != nil {
			t.Fatalf("Q%d: pipeline: %v", n, err)
		}
		p, q := algebra.CountOps(peep), algebra.CountOps(res.Plan)
		if q > p {
			t.Errorf("Q%d: pipeline grew the plan over peephole: %d -> %d", n, p, q)
		}
		if q < p {
			improved++
		}
	}
	// The join-heavy queries (q08–q12) must all collapse; in practice the
	// isolation pass fires on every XMark query.
	if improved < 5 {
		t.Errorf("pipeline improved only %d/20 queries over peephole", improved)
	}
}

// TestPipelineTrace asserts the trace is one worklist pass and one
// cleanup, with consistent operator counts and the per-rule counts
// adding up to the pass's rewrites.
func TestPipelineTrace(t *testing.T) {
	plan, _, err := core.CompileQuery(xmark.Query(8), xqcore.Options{ContextDoc: "xmark.xml"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Pipeline(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 2 || res.Trace[0].Pass != "rewrite" || res.Trace[0].Round != 1 ||
		res.Trace[1].Pass != "cleanup" || res.Trace[1].Round != 0 {
		t.Fatalf("trace is not one worklist pass and one cleanup:\n%s", res.TraceString())
	}
	for _, s := range res.Trace {
		if s.OpsOut > s.OpsIn {
			t.Errorf("pass %s grew the plan %d -> %d", s.Pass, s.OpsIn, s.OpsOut)
		}
	}
	w := res.Trace[0]
	sum := 0
	for _, part := range strings.Split(w.Note, ", ") {
		var rule string
		var n int
		if _, err := fmt.Sscanf(part, "%s %d", &rule, &n); err != nil {
			t.Fatalf("note %q: %v", w.Note, err)
		}
		sum += n
	}
	if w.Rewrites == 0 || sum != w.Rewrites {
		t.Errorf("note %q counts %d rewrites, the pass %d", w.Note, sum, w.Rewrites)
	}
	ts := res.TraceString()
	if !strings.Contains(ts, "round 1     rewrite") || !strings.Contains(ts, "round final cleanup") {
		t.Errorf("TraceString missing expected lines:\n%s", ts)
	}
	if last := res.Trace[len(res.Trace)-1]; last.OpsOut != algebra.CountOps(res.Plan) {
		t.Errorf("final trace entry reports %d ops, plan has %d", last.OpsOut, algebra.CountOps(res.Plan))
	}
}

// TestPipelineDoesNotMutateInput pins the Optimize contract on the
// in-place isolation pass: the caller's DAG must render identically
// before and after a pipeline run.
func TestPipelineDoesNotMutateInput(t *testing.T) {
	plan, _, err := core.CompileQuery(xmark.Query(8), xqcore.Options{ContextDoc: "xmark.xml"})
	if err != nil {
		t.Fatal(err)
	}
	before := algebra.TreeString(plan)
	if _, err := opt.Pipeline(plan); err != nil {
		t.Fatal(err)
	}
	if after := algebra.TreeString(plan); after != before {
		t.Fatal("pipeline mutated its input plan")
	}
}

// TestPipelinePlansCheckClean runs every XMark query through the
// pipeline and has internal/check independently re-validate the result
// at every layer — the acceptance bar for each isolation rewrite.
func TestPipelinePlansCheckClean(t *testing.T) {
	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	for n := 1; n <= xmark.NumQueries; n++ {
		plan, _, err := core.CompileQuery(xmark.Query(n), opts)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		res, err := opt.Pipeline(plan)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		if diags := check.Plan(res.Plan); len(diags) > 0 {
			t.Errorf("Q%d: pipeline plan has findings:\n%s", n, check.Render(diags))
		}
	}
}

// TestPropertyEngineInvalidation is the regression test for stale
// property claims leaking into lowering: property derivation memoizes
// per operator, so an in-place rewrite that swaps an input must
// invalidate the ancestors' memo entries — otherwise the engine keeps
// certifying an ordering the rewritten plan no longer has, and
// internal/check is what catches the lie.
func TestPropertyEngineInvalidation(t *testing.T) {
	sorted := algebra.Lit(bat.MustTable("iter", bat.IntVec{1, 2, 3}))
	unsorted := algebra.Lit(bat.MustTable("iter", bat.IntVec{2, 1, 3}))
	root := algebra.Distinct(sorted)

	e := opt.NewPropertyEngine()
	if p := e.PropsOf(root); !p.Strict || len(p.Sorted) == 0 {
		t.Fatalf("pre-rewrite δ should derive a strict ordering, got %+v", p)
	}

	// The in-place rewrite an isolation-style pass performs: swap the
	// input out from under the memoized operator.
	root.In[0] = unsorted

	// Without invalidation the memo still serves the pre-rewrite claim —
	// and the independent validator rejects it.
	stale := e.Snapshot(root)
	if !stale[root].Strict {
		t.Fatal("memo unexpectedly forgot the stale claim; test premise broken")
	}
	diags := check.Properties(root, stale)
	if len(diags) == 0 {
		t.Fatal("stale strict-ordering claim validated clean")
	}

	// Invalidating the changed operator (and everything above it) forces
	// re-derivation on the new shape; the claims verify again.
	e.Invalidate(root, root)
	fresh := e.Snapshot(root)
	if fresh[root].Strict || len(fresh[root].Sorted) != 0 {
		t.Fatalf("post-invalidation δ props should be empty, got %+v", fresh[root])
	}
	if diags := check.Properties(root, fresh); len(diags) > 0 {
		t.Fatalf("re-derived props still rejected:\n%s", check.Render(diags))
	}
}
