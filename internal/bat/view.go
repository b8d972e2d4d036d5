package bat

import (
	"sync"
	"sync/atomic"
)

// View is a late-materialized relation: a base Table plus an optional
// selection vector of base-row indices. It is the unit of exchange between
// physical operators — pipeline operators (σ, π, ⋉, \) narrow the
// selection or the column set without copying any row data, and only
// pipeline breakers (join outputs, δ, ϱ, ∪, the plan root) pay for a
// Gather. A nil selection means "all rows of the base, in base order".
//
// Views are shared between the consumers of a plan-DAG node;
// Materialize is concurrency-safe and performs the gather exactly once.
type View struct {
	base *Table
	sel  []int32 // nil = identity

	once  sync.Once
	mat   *Table
	madeM atomic.Bool
}

// ViewOf wraps a whole table as a view; materialization is free.
func ViewOf(t *Table) *View {
	v := &View{base: t, mat: t}
	v.madeM.Store(true)
	return v
}

// NewView builds a view of the given base rows, in sel order. The indices
// must be valid rows of t; callers building selections from filters keep
// them ascending, which preserves any sortedness property of the base.
func NewView(t *Table, sel []int32) *View {
	return &View{base: t, sel: sel}
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
func (v *View) Materialized() bool { return v.madeM.Load() }

// Materialize gathers the selected rows into a standalone table, exactly
// once; concurrent callers share the result. Identity views return the
// base without copying.
func (v *View) Materialize() *Table {
	v.once.Do(func() {
		if v.mat == nil {
			if v.sel == nil {
				v.mat = v.base
			} else {
				v.mat = v.base.Gather(v.sel)
			}
		}
		v.madeM.Store(true)
	})
	return v.mat
}

// Project returns a view over the projected base columns (zero row
// copies — Table.Project shares column vectors), keeping the selection.
func (v *View) Project(spec ...string) (*View, error) {
	p, err := v.base.Project(spec...)
	if err != nil {
		return nil, err
	}
	return NewView(p, v.sel), nil
}
