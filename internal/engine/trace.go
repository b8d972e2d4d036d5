package engine

import (
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// OpStat is the per-operator instrumentation record of a traced
// evaluation.
type OpStat struct {
	Wall    time.Duration // time spent applying the operator
	RowsIn  int           // total input rows across all inputs
	RowsOut int           // rows produced
	Kernel  string        // physical kernel that actually ran
	RowsMat int           // rows this kernel materialized (gathered/copied), vs. scanned in place

	// Morsels is never set: every kernel runs as one sequential loop.
	//
	// Deprecated: benchmark/inproc.go is its last reader; the
	// benchmark-only change of ROADMAP item 1 deletes the field with it.
	Morsels int

	// Static is the kernel physical.Lower chose for the node, set only
	// when Kernel is a fast path the executor took instead after seeing
	// the input's order or density (rownum[sort] served by
	// rownum[count-sort], hash-join by hash-join[int:dense], …) — each
	// one a case the plan-time properties did not know about.
	Static string

	// Sink is where an ε put its trees: "stream" when only the
	// serializer reads them (physical.Node.Stream) and they become bytes
	// on demand, "fragment" when they were built; "" for other kernels.
	Sink string

	// FusedChain is never set: every node is its own execution unit.
	//
	// Deprecated: benchmark/inproc.go is its last reader; the
	// benchmark-only change of ROADMAP item 1 deletes the field with it.
	FusedChain int

	// ThetaJoin is the 1-based id of the theta-join unit the operator ran
	// in when the band kernel took it (0 = ran standalone; a demoted
	// unit's × says why in its kernel name). σ carries the unit's wall
	// time, input rows and materialization under the kernel's own name;
	// × and ⊛ report the emitted pairs with zero Wall/RowsMat.
	ThetaJoin int
}

// Trace is the full instrumentation record of one evaluation. Tables
// holds every operator's intermediate result, with one exception in
// kind: the members of a theta join the band kernel ran hold only the
// pairs that went on to pass σ, and of those only the columns the unit's
// consumers read — the rest of the product never existed. One
// evaluation writes it, on the goroutine that runs the plan.
type Trace struct {
	Tables map[*algebra.Op]*bat.Table
	Stats  map[*algebra.Op]OpStat

	// The views of a demoted theta join's members, which ran one by one
	// and have no result slot, set aside while the query runs for
	// fillTraceTables to turn into Tables afterwards.
	members map[*algebra.Op]*bat.View
}

func newTrace() *Trace {
	return &Trace{
		Tables:  make(map[*algebra.Op]*bat.Table),
		Stats:   make(map[*algebra.Op]OpStat),
		members: make(map[*algebra.Op]*bat.View),
	}
}
