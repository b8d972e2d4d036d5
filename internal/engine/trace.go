package engine

import (
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// OpStat is the per-node instrumentation record of a traced evaluation.
// A theta join's Kernel names the band kernel and its lane
// (merge-thetajoin[float], merge-thetacount[str], …) or, when the keys
// do not admit it, "nested-product (demoted:<reason>)": the node then
// ran the operators it covers, and its Wall, RowsMat and RowsOut are
// theirs together.
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

	// Sink is where an ε put its trees: "stream" when only the
	// serializer reads them (physical.Node.Stream) and they become bytes
	// on demand, "fragment" when they were built; "" for other kernels.
	Sink string

	// FusedChain is never set: every node is its own execution unit.
	//
	// Deprecated: benchmark/inproc.go is its last reader; the
	// benchmark-only change of ROADMAP item 1 deletes the field with it.
	FusedChain int
}

// Trace is the full instrumentation record of one evaluation: every
// node's intermediate result and stat, keyed by its operator. A theta
// join is one node, keyed by the operator whose output is its own (σ,
// or the count of a count-only join); its result holds only the columns
// its consumers read, and the operators it covers have no entry — the
// product they stand for never existed. One evaluation writes it, on
// the goroutine that runs the plan.
type Trace struct {
	Tables map[*algebra.Op]*bat.Table
	Stats  map[*algebra.Op]OpStat
}

func newTrace() *Trace {
	return &Trace{
		Tables: make(map[*algebra.Op]*bat.Table),
		Stats:  make(map[*algebra.Op]OpStat),
	}
}
