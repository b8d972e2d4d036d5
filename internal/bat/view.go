package bat

// View is a late-materialized relation: a base Table plus an optional
// selection vector of base-row indices. It is the unit of exchange between
// physical operators — pipeline operators (σ, π, ⋉, \) narrow the
// selection or the column set without copying any row data, and only
// pipeline breakers (join outputs, δ, ϱ, ∪, the plan root) pay for a
// Gather. A nil selection means "all rows of the base, in base order".
//
// A View is a small value: kernels return one by value and the executor
// keeps it in the result slot of its node, so producing a view allocates
// nothing. The consumers of a plan-DAG node share that slot through a
// pointer, and Materialize caches the gather there, so it happens at most
// once. A view belongs to one evaluation, which runs on one goroutine:
// Materialize is not safe for concurrent use.
type View struct {
	base *Table
	sel  []int32 // nil = identity
	mat  *Table  // the gathered rows, once Materialize has run
}

// ViewOf wraps a whole table as a view; materialization is free.
func ViewOf(t *Table) View {
	return View{base: t, mat: t}
}

// NewView builds a view of the given base rows, in sel order. The indices
// must be valid rows of t; callers building selections from filters keep
// them ascending, which preserves any sortedness property of the base.
func NewView(t *Table, sel []int32) View {
	return View{base: t, sel: sel}
}

// Rows returns the number of selected rows.
func (v *View) Rows() int {
	if v.sel == nil {
		return v.base.Rows()
	}
	return len(v.sel)
}

// Base returns the underlying table. Kernels combine it with Sel to read
// rows without materializing.
func (v *View) Base() *Table { return v.base }

// Sel returns the selection vector (nil = all base rows). Callers must not
// mutate it.
func (v *View) Sel() []int32 { return v.sel }

// Index maps a view row to its base row.
func (v *View) Index(i int) int {
	if v.sel == nil {
		return i
	}
	return int(v.sel[i])
}

// Materialized reports whether the gather has already happened (or was
// never needed). Used by the executor's rows-materialized accounting.
func (v *View) Materialized() bool { return v.mat != nil }

// Materialize gathers the selected rows into a standalone table, once;
// later calls return the same table. Identity views return the base
// without copying.
func (v *View) Materialize() *Table {
	if v.mat == nil {
		if v.sel == nil {
			v.mat = v.base
		} else {
			v.mat = v.base.Gather(v.sel)
		}
	}
	return v.mat
}

// Project returns a view over the projected base columns (zero row
// copies — Table.Project shares column vectors), keeping the selection.
func (v *View) Project(pairs ...ProjPair) (View, error) {
	p, err := v.base.Project(pairs...)
	if err != nil {
		return View{}, err
	}
	return NewView(p, v.sel), nil
}
