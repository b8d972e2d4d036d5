package opt

import (
	"slices"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// Dense analysis: which operators guarantee a column holds exactly 1..n.
func TestDenseProperties(t *testing.T) {
	ramp := algebra.Lit(bat.MustTable(
		"pos", bat.IntVec{1, 2, 3},
		"item", bat.IntVec{9, 9, 9},
	))
	props := Properties(ramp)
	if !slices.Contains(props[ramp].Dense, "pos") {
		t.Error("ramp literal column must be dense")
	}
	if slices.Contains(props[ramp].Dense, "item") {
		t.Error("constant column is not dense")
	}

	// mark appends a dense column and keeps the child's.
	marked := mustOp(algebra.RowID(ramp, "m"))
	props = Properties(marked)
	if !slices.Contains(props[marked].Dense, "m") || !slices.Contains(props[marked].Dense, "pos") {
		t.Errorf("mark density = %v", props[marked].Dense)
	}

	// Unpartitioned ϱ numbers the whole relation 1..n.
	rn := mustOp(algebra.RowNum(ramp, "n", []algebra.OrderSpec{{Col: "item"}}, ""))
	props = Properties(rn)
	if !slices.Contains(props[rn].Dense, "n") {
		t.Error("unpartitioned rownum output must be dense")
	}

	// Projection renames density; selection destroys it.
	proj := mustOp(algebra.Project(marked, "q:m"))
	props = Properties(proj)
	if !slices.Contains(props[proj].Dense, "q") || slices.Contains(props[proj].Dense, "m") {
		t.Errorf("projected density = %v", props[proj].Dense)
	}
	f := mustOp(algebra.Fun(marked, "b", algebra.FunEq, "m", "m"))
	sel := mustOp(algebra.Select(f, "b"))
	props = Properties(sel)
	if len(props[sel].Dense) != 0 {
		t.Errorf("selection output kept density: %v", props[sel].Dense)
	}
}

// Properties must assign one entry per distinct operator, shared subplans
// included.
func TestPropertiesCoversDAG(t *testing.T) {
	shared := algebra.Lit(bat.MustTable("k", bat.IntVec{1, 2}))
	a := mustOp(algebra.Project(shared, "x:k"))
	b := mustOp(algebra.Project(shared, "y:k"))
	j := mustOp(algebra.Join(a, b, []string{"x"}, []string{"y"}))
	props := Properties(j)
	if len(props) != algebra.CountOps(j) {
		t.Fatalf("%d property entries for %d ops", len(props), algebra.CountOps(j))
	}
	if !hasPrefix(props[shared].Sorted, []string{"k"}) {
		t.Error("shared literal lost its sortedness")
	}
}
