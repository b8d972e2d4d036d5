package engine

// Stress and unit tests for the parallel DAG scheduler: exactly-once
// memoization over shared subplans (via the onApply hook), wide fan-out
// plans across worker pool sizes, error propagation out of a failing
// branch, and mid-operator cancellation of the row loops.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// fanOutPlan builds a plan with one shared leaf feeding width independent
// branches that a union chain folds back together — the widest antichain
// the scheduler can exploit, with every branch consuming the same subplan.
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

func sumCol(t *testing.T, tb *bat.Table, col string) int64 {
	t.Helper()
	v, err := tb.Col(col)
	if err != nil {
		t.Fatal(err)
	}
	var s int64
	for i := 0; i < v.Len(); i++ {
		s += v.ItemAt(i).I
	}
	return s
}

// TestMemoizationExactlyOnce proves each operator of a DAG with shared
// subplans is applied exactly once per evaluation, on both evaluators.
func TestMemoizationExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			root := fanOutPlan(t, 16)
			n := algebra.CountOps(root)

			e := NewWithConfig(xenc.NewStore(), Config{Workers: workers, SeqThreshold: -1})
			var counts sync.Map // *algebra.Op → *atomic.Int64
			e.onApply = func(o *algebra.Op) {
				c, _ := counts.LoadOrStore(o, new(atomic.Int64))
				c.(*atomic.Int64).Add(1)
			}
			if _, err := e.Eval(root); err != nil {
				t.Fatal(err)
			}
			applied := 0
			counts.Range(func(_, v any) bool {
				applied++
				if got := v.(*atomic.Int64).Load(); got != 1 {
					t.Errorf("operator applied %d times, want exactly 1", got)
				}
				return true
			})
			if applied != n {
				t.Errorf("applied %d distinct operators, plan has %d", applied, n)
			}
		})
	}
}

// TestFanOutAcrossPoolSizes checks the wide plan computes the same result
// for pool sizes 1, 2, and 8.
func TestFanOutAcrossPoolSizes(t *testing.T) {
	root := fanOutPlan(t, 32)
	var want int64
	for _, workers := range []int{1, 2, 8} {
		e := NewWithConfig(xenc.NewStore(), Config{Workers: workers, SeqThreshold: -1})
		out, err := e.Eval(root)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// 32 branches × 4 rows; Σ(item) = 10 per branch, Σ(c) = 0+..+31.
		if out.Rows() != 32*4 {
			t.Fatalf("workers=%d: %d rows, want %d", workers, out.Rows(), 32*4)
		}
		got := sumCol(t, out, "v")
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d: Σv = %d, sequential said %d", workers, got, want)
		}
	}
}

// TestSchedulerErrorPropagation plants a failing operator (σ over a
// non-boolean column) inside a wide plan and requires the scheduler to
// surface the error promptly instead of hanging or panicking.
func TestSchedulerErrorPropagation(t *testing.T) {
	good := fanOutPlan(t, 16)
	bad := must(algebra.Project(
		must(algebra.Select(
			must(algebra.RowID(algebra.Lit(bat.MustTable("v", bat.ItemVec{bat.Int(1)})), "iter")),
			"v")),
		"iter", "v"))
	root := must(algebra.Union(good, bad))

	e := NewWithConfig(xenc.NewStore(), Config{Workers: 8, SeqThreshold: -1})
	done := make(chan error, 1)
	go func() {
		_, err := e.Eval(root)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("failing branch produced no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("scheduler hung on a failing operator")
	}
}

// TestCancellationMidOperator builds a cross product large enough that a
// sequential between-operators check would only fire after the full 25M
// rows materialize, then cancels mid-flight: the row-loop stride checks
// must observe the context and abandon the operator.
func TestCancellationMidOperator(t *testing.T) {
	big := func() *algebra.Op {
		items := make(bat.ItemVec, 5000)
		for i := range items {
			items[i] = bat.Int(int64(i))
		}
		return algebra.Lit(bat.MustTable("x", items))
	}
	cross := must(algebra.Cross(big(), must(algebra.Project(big(), "y:x"))))

	for _, workers := range []int{1, 8} {
		e := NewWithConfig(xenc.NewStore(), Config{Workers: workers, SeqThreshold: -1})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		start := time.Now()
		go func() {
			_, err := e.EvalContext(ctx, cross)
			done <- err
		}()
		time.Sleep(5 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
			// Generous bound: materializing all 25M rows takes far longer.
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("workers=%d: cancellation took %v", workers, d)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: cancellation never observed", workers)
		}
	}
}

// TestDeadlineExceededSurfaces checks an already-expired context deadline
// aborts evaluation with context.DeadlineExceeded on the sequential path
// and on the scheduler.
func TestDeadlineExceededSurfaces(t *testing.T) {
	root := fanOutPlan(t, 8)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, workers := range []int{1, 8} {
		e := NewWithConfig(xenc.NewStore(), Config{Workers: workers, SeqThreshold: -1})
		if _, err := e.EvalContext(ctx, root); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("workers=%d: err = %v, want context.DeadlineExceeded", workers, err)
		}
	}
}

// TestSeqThresholdFallback pins the dispatch decision: small plans run
// sequentially (worker 0), unless the threshold is disabled.
func TestSeqThresholdFallback(t *testing.T) {
	small := fanOutPlan(t, 1) // 5 operators, well under DefaultSeqThreshold
	e := NewWithConfig(xenc.NewStore(), Config{Workers: 8})
	_, tr, err := e.EvalTrace(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if tr.scheduled {
		t.Error("small plan went to the parallel scheduler; it should fall back to the sequential path")
	}
	for o, st := range tr.Stats {
		if st.Worker != 0 {
			t.Errorf("%v ran on worker %d; the sequential path is worker 0", o, st.Worker)
		}
	}

	e = NewWithConfig(xenc.NewStore(), Config{Workers: 8, SeqThreshold: -1})
	_, tr, err = e.EvalTrace(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.scheduled {
		t.Error("SeqThreshold=-1 did not force the parallel scheduler")
	}
}

// TestTraceStats checks EvalTrace records one stat per operator with
// plausible row counts.
func TestTraceStats(t *testing.T) {
	root := fanOutPlan(t, 4)
	e := NewWithConfig(xenc.NewStore(), Config{Workers: 8, SeqThreshold: -1})
	out, tr, err := e.EvalTrace(context.Background(), root)
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
