package engine_test

import (
	"context"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/opt"
	"pathfinder/internal/physical"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

// pipelinePlan builds map → filter → map → project over an n-row
// literal, half of whose rows survive the filter. The second map reads
// the filtered view and so gathers the survivors — the one
// materialization in the pipeline, which must be charged to that map.
func pipelinePlan(t *testing.T, n int) (root, gather *algebra.Op) {
	t.Helper()
	a := make(bat.IntVec, n)
	b := make(bat.IntVec, n)
	for i := range a {
		a[i] = int64(i)
		b[i] = int64(i - 1 + 2*(i%2)) // b < a on even rows only
	}
	lit := algebra.Lit(bat.MustTable("a", a, "b", b))
	fn, err := algebra.Fun(lit, "p", algebra.FunLt, "b", "a")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := algebra.Select(fn, "p")
	if err != nil {
		t.Fatal(err)
	}
	add, err := algebra.Fun(sel, "c", algebra.FunAdd, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	pj, err := algebra.Project(add, "c")
	if err != nil {
		t.Fatal(err)
	}
	return pj, add
}

// TestFusionTraceAccounting: every node is its own execution unit and
// records the ordinary stat of its own kernel — its RowsIn is what its
// inputs produced, its wall time is its own, and its trace table holds
// RowsOut rows (the -show table contract). The map over the filtered
// view is charged its gather, the tail projection nothing. Checked on a
// hand-built map → σ → map → π pipeline and on a compiled range
// pipeline.
func TestFusionTraceAccounting(t *testing.T) {
	compiled, _, err := core.CompileQuery(`for $i in 1 to 10000 where $i mod 7 = 0 return $i * 2`, xqcore.Options{})
	if err == nil {
		compiled, err = opt.Optimize(compiled)
	}
	if err != nil {
		t.Fatal(err)
	}
	const n = 8192
	plan, gather := pipelinePlan(t, n)
	e := engine.NewWithConfig(xenc.NewStore(), engine.Config{Check: true})
	trace := func(root *algebra.Op) *engine.Trace {
		t.Helper()
		phys := physical.Lower(root)
		_, tr, err := e.EvalPlan(context.Background(), phys, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range phys.Nodes {
			st, ok := tr.Stats[nd.Op]
			if !ok {
				t.Fatalf("%s recorded no stat", nd.Op.Label())
			}
			rowsIn := 0
			for _, in := range nd.In {
				rowsIn += tr.Stats[in.Op].RowsOut
			}
			if st.RowsIn != rowsIn {
				t.Errorf("%s reads %d rows, its inputs produced %d", nd.Op.Label(), st.RowsIn, rowsIn)
			}
			if st.Wall <= 0 {
				t.Errorf("%s recorded no wall time of its own", nd.Op.Label())
			}
			if tab := tr.Tables[nd.Op]; tab == nil || tab.Rows() != st.RowsOut {
				t.Errorf("%s: trace table %v, stat says %d rows", nd.Op.Label(), tab, st.RowsOut)
			}
		}
		return tr
	}
	tr := trace(plan)
	if st := tr.Stats[gather]; st.RowsMat != n/2 {
		t.Errorf("the map over the filtered view charged RowsMat=%d, want its %d-row gather", st.RowsMat, n/2)
	}
	if st := tr.Stats[plan]; st.RowsMat != 0 || st.RowsOut != n/2 {
		t.Errorf("the tail projection recorded %+v; want %d rows out and no materialization", st, n/2)
	}
	trace(compiled)
}
