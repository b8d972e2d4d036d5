package engine

// Stress and unit tests for the executor: exactly-once memoization over
// shared subplans (via the onApply hook), the first error ending the
// run, and cancellation before and inside the row loops. One plan on
// many goroutines is TestOnePlanManyGoroutines (differential_test.go,
// which can import the compiler).

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// fanOutPlan builds a plan with one shared leaf feeding width independent
// branches that a union chain folds back together, every branch
// consuming the same subplan.
func fanOutPlan(t *testing.T, width int) *algebra.Op {
	t.Helper()
	shared := must(algebra.RowID(algebra.Lit(bat.MustTable(
		"item", bat.ItemVec{bat.Int(1), bat.Int(2), bat.Int(3), bat.Int(4)},
	)), "iter"))
	var root *algebra.Op
	for i := 0; i < width; i++ {
		c := algebra.Lit(bat.MustTable("c", bat.ItemVec{bat.Int(int64(i))}))
		branch := must(algebra.Project(
			must(algebra.Fun(must(algebra.Cross(shared, c)), "v", algebra.FunAdd, "item", "c")),
			"iter", "v"))
		if root == nil {
			root = branch
		} else {
			root = must(algebra.Union(root, branch))
		}
	}
	return root
}

// TestMemoizationExactlyOnce proves each operator of a DAG with shared
// subplans is applied exactly once per evaluation. The subtests set the
// deprecated Config.Workers that benchmark/inproc.go still writes: it
// must change nothing.
func TestMemoizationExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			root := fanOutPlan(t, 16)
			n := algebra.CountOps(root)

			e := NewWithConfig(xenc.NewStore(), Config{Workers: workers})
			counts := map[*algebra.Op]int{}
			e.onApply = func(o *algebra.Op) { counts[o]++ }
			if _, err := e.Eval(root); err != nil {
				t.Fatal(err)
			}
			for _, got := range counts {
				if got != 1 {
					t.Errorf("operator applied %d times, want exactly 1", got)
				}
			}
			if len(counts) != n {
				t.Errorf("applied %d distinct operators, plan has %d", len(counts), n)
			}
		})
	}
}

// TestSchedulerErrorPropagation plants a failing operator (σ over a
// non-boolean column) inside a wide plan: the evaluation fails with σ's
// error, every unit before it in the plan ran once, and no unit after it
// ran at all.
func TestSchedulerErrorPropagation(t *testing.T) {
	good := fanOutPlan(t, 16)
	bad := must(algebra.Project(
		must(algebra.Select(
			must(algebra.RowID(algebra.Lit(bat.MustTable("v", bat.ItemVec{bat.Int(1)})), "iter")),
			"v")),
		"iter", "v"))
	root := must(algebra.Union(good, bad))

	e := New(xenc.NewStore())
	plan := e.Lowered(root)
	failing := -1
	for i, nd := range plan.Nodes {
		if nd.Op.Kind == algebra.OpSelect {
			failing = i
		}
	}
	if failing < 0 || failing == len(plan.Nodes)-1 {
		t.Fatalf("test premise broken: σ at position %d of %d", failing, len(plan.Nodes))
	}
	applied := map[*algebra.Op]int{}
	e.onApply = func(o *algebra.Op) { applied[o]++ }
	_, err := e.Eval(root)
	if err == nil || !strings.Contains(err.Error(), "non-boolean") {
		t.Fatalf("err = %v, want σ's non-boolean error", err)
	}
	for i, nd := range plan.Nodes {
		want := 0
		if i <= failing {
			want = 1
		}
		if got := applied[nd.Op]; got != want {
			t.Errorf("%s at position %d (σ at %d) applied %d times, want %d", nd.Op.Label(), i, failing, got, want)
		}
	}
}

// TestCancellationMidOperator cancels evaluations mid-flight inside one
// long-running kernel and expects context.Canceled well before the kernel
// could have finished: a cross product whose 25M rows a check between
// operators would only see after they materialize, and a ⊛ that compares
// half a million pairs of equal 64 KiB strings as the plan's root, where
// no check follows the kernel at all. The row-loop stride checks must
// observe the context and abandon the operator.
func TestCancellationMidOperator(t *testing.T) {
	big := func() *algebra.Op {
		items := make(bat.ItemVec, 5000)
		for i := range items {
			items[i] = bat.Int(int64(i))
		}
		return algebra.Lit(bat.MustTable("x", items))
	}
	cross := must(algebra.Cross(big(), must(algebra.Project(big(), "y:x"))))
	long, same := strings.Repeat("x", 64<<10), strings.Repeat("x", 64<<10) // equal, not one pointer
	a, b := make(bat.StrVec, 1<<19), make(bat.StrVec, 1<<19)
	for i := range a {
		a[i], b[i] = long, same
	}
	compare := must(algebra.Fun(algebra.Lit(bat.MustTable("a", a, "b", b)), "eq", algebra.FunEq, "a", "b"))

	for _, c := range []struct {
		name string
		root *algebra.Op
	}{{"×", cross}, {"⊛", compare}} {
		e := New(xenc.NewStore())
		e.Lowered(c.root) // lowered before the clock starts: cancellation lands in the kernel
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		start := time.Now()
		go func() {
			_, err := e.EvalContext(ctx, c.root)
			done <- err
		}()
		time.Sleep(5 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err = %v, want context.Canceled", c.name, err)
			}
			// Generous bound: either kernel run to its end takes far longer.
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("%s: cancellation took %v", c.name, d)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: cancellation never observed", c.name)
		}
	}
}

// TestDeadlineExceededSurfaces checks an already-expired context deadline
// aborts evaluation with context.DeadlineExceeded before any unit runs.
func TestDeadlineExceededSurfaces(t *testing.T) {
	root := fanOutPlan(t, 8)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	e := New(xenc.NewStore())
	ran := 0
	e.onApply = func(*algebra.Op) { ran++ }
	if _, err := e.EvalContext(ctx, root); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if ran != 0 {
		t.Errorf("%d operators ran past an expired deadline", ran)
	}
}

// TestTraceStats checks EvalTrace records one stat per operator with
// plausible row counts.
func TestTraceStats(t *testing.T) {
	root := fanOutPlan(t, 4)
	out, tr, err := New(xenc.NewStore()).EvalTrace(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tr.Stats), algebra.CountOps(root); got != want {
		t.Errorf("recorded %d stats, plan has %d operators", got, want)
	}
	st, ok := tr.Stats[root]
	if !ok {
		t.Fatal("no stat recorded for the root operator")
	}
	if st.RowsOut != out.Rows() {
		t.Errorf("root RowsOut = %d, result has %d rows", st.RowsOut, out.Rows())
	}
}
