package opt

import (
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// TestRoundLimitIsReported forces the fixed-point backstop with a
// lowered limit: a plan that needs a second round (its first round
// splices out a ϱ whose input is already in its order) must say so in
// the trace when the loop is cut after one, and must not when the loop
// converges on its own.
func TestRoundLimitIsReported(t *testing.T) {
	lit := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1}, "pos", bat.IntVec{1, 1}, "item", bat.IntVec{7, 8}))
	rn := mustOp(algebra.RowNum(lit, "n", []algebra.OrderSpec{{Col: "pos"}}, "iter"))
	plan := mustOp(algebra.Project(rn, "iter", "pos", "item"))

	cut, err := runPipeline(plan, 1, isolate)
	if err != nil {
		t.Fatal(err)
	}
	var last PassStat
	for _, s := range cut.Trace {
		if s.Pass == "isolate" {
			last = s
		}
	}
	if last.Round != 1 || last.Rewrites == 0 || last.Note != "round limit reached" {
		t.Errorf("cut after round 1: last isolate pass %+v, want round 1 with rewrites and the round-limit note", last)
	}
	if !strings.Contains(cut.TraceString(), "round limit reached") {
		t.Errorf("TraceString does not show the note:\n%s", cut.TraceString())
	}
	if err := algebra.Validate(cut.Plan); err != nil {
		t.Errorf("plan cut at the limit is invalid: %v", err)
	}

	full, err := Pipeline(plan)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(full.TraceString(), "round limit reached") {
		t.Errorf("converged run reports the round limit:\n%s", full.TraceString())
	}
	if full.Plan != lit {
		t.Errorf("converged run should reduce the tower to its literal, got\n%s", algebra.TreeString(full.Plan))
	}
}
