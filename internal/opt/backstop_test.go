package opt

import (
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// TestPopBudgetIsReported forces the worklist's backstop with a budget of
// one pop per operator: a plan whose splice (its ϱ's input is already in
// the ϱ's order) only comes after every operator had its local rules
// must say so in the trace when the worklist is cut, and must still be
// valid; a run that empties the worklist on its own carries no note and
// reduces the ϱ tower to its literal.
func TestPopBudgetIsReported(t *testing.T) {
	lit := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1}, "pos", bat.IntVec{1, 1}, "item", bat.IntVec{7, 8}))
	rn := mustOp(algebra.RowNum(lit, "n", []algebra.OrderSpec{{Col: "pos"}}, "iter"))
	plan := mustOp(algebra.Project(rn, "iter", "pos", "item"))

	cut, err := runPipeline(plan, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := cut.Trace[0]; s.Round != 1 || s.Pass != "rewrite" || !strings.HasSuffix(s.Note, "limit reached") {
		t.Errorf("cut run: worklist pass %+v, want round 1 with the limit note", s)
	}
	if !strings.Contains(cut.TraceString(), "limit reached") {
		t.Errorf("TraceString does not show the note:\n%s", cut.TraceString())
	}
	if err := algebra.Validate(cut.Plan); err != nil {
		t.Errorf("plan cut at the limit is invalid: %v", err)
	}

	full, err := Pipeline(plan)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(full.TraceString(), "limit reached") {
		t.Errorf("converged run reports the limit:\n%s", full.TraceString())
	}
	if full.Plan != lit {
		t.Errorf("converged run should reduce the tower to its literal, got\n%s", algebra.TreeString(full.Plan))
	}
}
