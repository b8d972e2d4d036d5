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

// chainPlan builds map → filter → map → project over a literal wide
// enough to clear the FusedMinRows gate: one chain of four members over
// n rows, half of which survive the filter. The second map reads the
// filtered view and so gathers the survivors — the one materialization
// in the chain, which must be charged to that member.
func chainPlan(t *testing.T, n int) (root, gather *algebra.Op) {
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

// TestFusionTraceAccounting: a chain runs as one scheduler task, but each
// member records the ordinary stat of its own kernel — wall time, rows and
// materialization — stamped with the chain's id, its position and the
// chain's length; and each interior leaves a trace table whose row count
// is its RowsOut (the -show table contract). Checked on a hand-built
// chain and on the chains of a compiled range pipeline.
func TestFusionTraceAccounting(t *testing.T) {
	e := engine.NewWithConfig(xenc.NewStore(), engine.Config{Workers: 1, Check: true})
	traceChains := func(plan *algebra.Op) (*engine.Trace, *physical.Plan) {
		t.Helper()
		_, tr, err := e.EvalTrace(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		phys := e.Lowered(plan)
		if len(phys.Chains) == 0 {
			t.Fatal("plan formed no chain; test premise broken")
		}
		for _, ch := range phys.Chains {
			rowsIn := tr.Stats[ch.Head().Op].RowsIn
			for i, nd := range ch.Nodes {
				st, ok := tr.Stats[nd.Op]
				if !ok {
					t.Fatalf("chain #%d member %d recorded no stat", ch.ID, i+1)
				}
				if st.FusedChain != ch.ID || st.FusedPos != i+1 || st.FusedLen != len(ch.Nodes) {
					t.Errorf("chain #%d member %d recorded membership #%d [%d/%d]",
						ch.ID, i+1, st.FusedChain, st.FusedPos, st.FusedLen)
				}
				if st.RowsIn != rowsIn {
					t.Errorf("chain #%d member %d reads %d rows, its predecessor produced %d", ch.ID, i+1, st.RowsIn, rowsIn)
				}
				if st.Wall <= 0 {
					t.Errorf("chain #%d member %d recorded no wall time of its own", ch.ID, i+1)
				}
				if tab := tr.Tables[nd.Op]; tab == nil || tab.Rows() != st.RowsOut {
					t.Errorf("chain #%d member %d: trace table %v, stat says %d rows", ch.ID, i+1, tab, st.RowsOut)
				}
				rowsIn = st.RowsOut
			}
		}
		return tr, phys
	}

	n := physical.FusedMinRows * 2
	plan, gather := chainPlan(t, n)
	tr, phys := traceChains(plan)
	if len(phys.Chains) != 1 || len(phys.Chains[0].Nodes) != 4 {
		t.Fatalf("want one chain of four members, got %d chains", len(phys.Chains))
	}
	if st := tr.Stats[gather]; st.RowsMat != n/2 {
		t.Errorf("the map over the filtered view charged RowsMat=%d, want its %d-row gather", st.RowsMat, n/2)
	}
	if st := tr.Stats[plan]; st.RowsMat != 0 || st.RowsOut != n/2 {
		t.Errorf("the tail projection recorded %+v; want %d rows out and no materialization", st, n/2)
	}

	compiled, _, err := core.CompileQuery(`for $i in 1 to 10000 where $i mod 7 = 0 return $i * 2`, xqcore.Options{})
	if err == nil {
		compiled, err = opt.Optimize(compiled)
	}
	if err != nil {
		t.Fatal(err)
	}
	traceChains(compiled)
}
