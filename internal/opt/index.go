package opt

import (
	"slices"

	"pathfinder/internal/algebra"
)

// planIndex is the dense numbering of one version of the working DAG:
// every pass of the pipeline runs its analyses over slices indexed by
// these numbers instead of building a map keyed by operator pointer per
// analysis. The index is a side structure — nothing is written into the
// operators — so the caller's plan stays untouched and concurrent
// Pipeline calls over one input do not race.
//
// Operators are numbered in algebra.Topo order: every operator after all
// of its inputs, the root last. An index comes from one of three places:
//
//   - newPlanIndex walks a DAG once (the only place a pointer→number
//     table is built);
//   - cse and clonePlan emit the index of the DAG they produce while
//     producing it (no table: nothing looks their operators up by
//     pointer);
//   - a property engine grows one on demand (num), for plans that are
//     handed over operator by operator.
type planIndex struct {
	ops []*algebra.Op
	// id is the pointer→number table; nil on an emitted index.
	id map[*algebra.Op]int32
	// inStart[i] is where operator i's input numbers start in in; it
	// has len(ops[i].In) of them, in In order.
	inStart []int32
	in      []int32

	// Consumer lists (one entry per consuming edge) and the set of
	// operators a splice has disconnected; both only exist on an index
	// the isolation pass works on.
	cons  [][]int32
	dead  []bool
	nDead int
}

// newPlanIndex numbers the DAG rooted at root; sizeHint (an operator
// count from an earlier version of the plan, or 0) presizes the tables.
func newPlanIndex(root *algebra.Op, sizeHint int) *planIndex {
	x := growingIndex(sizeHint)
	x.num(root)
	return x
}

// growingIndex is an empty index that numbers operators as num meets
// them.
func growingIndex(sizeHint int) *planIndex {
	x := emittedIndex(sizeHint)
	x.id = make(map[*algebra.Op]int32, sizeHint)
	return x
}

// emittedIndex is an empty table-less index for a pass to fill with add
// while it builds its output DAG.
func emittedIndex(sizeHint int) *planIndex {
	return &planIndex{
		ops:     make([]*algebra.Op, 0, sizeHint),
		inStart: make([]int32, 0, sizeHint),
		in:      make([]int32, 0, 2*sizeHint),
	}
}

// num returns o's number, numbering o and every operator below it that
// the index has not seen yet (inputs first, so the order stays
// topological).
func (x *planIndex) num(o *algebra.Op) int32 {
	if i, ok := x.id[o]; ok {
		return i
	}
	var buf [2]int32
	ins := buf[:0]
	for _, in := range o.In {
		ins = append(ins, x.num(in))
	}
	i := x.add(o, ins)
	x.id[o] = i
	return i
}

// add appends o with the given input numbers and returns its number.
func (x *planIndex) add(o *algebra.Op, ins []int32) int32 {
	i := int32(len(x.ops))
	x.ops = append(x.ops, o)
	x.inStart = append(x.inStart, int32(len(x.in)))
	x.in = append(x.in, ins...)
	return i
}

// inputs returns the numbers of operator i's inputs, in In order.
func (x *planIndex) inputs(i int32) []int32 {
	s := x.inStart[i]
	return x.in[s : int(s)+len(x.ops[i].In)]
}

// root is the plan's root operator: the last one numbered.
func (x *planIndex) root() *algebra.Op { return x.ops[len(x.ops)-1] }

// live is the plan's operator count (what algebra.CountOps would walk
// the DAG for): everything numbered minus what splices disconnected.
func (x *planIndex) live() int { return len(x.ops) - x.nDead }

// buildConsumers derives the reverse edges: cons[i] lists the operators
// reading i's output, once per edge. The lists are carved from one
// backing array at exact capacity, so a splice's append copies the one
// list it grows.
func (x *planIndex) buildConsumers() {
	n := len(x.ops)
	count := make([]int32, n)
	for _, c := range x.in {
		count[c]++
	}
	backing := make([]int32, len(x.in))
	x.cons = make([][]int32, n)
	off := int32(0)
	for i, k := range count {
		x.cons[i] = backing[off : off : off+k]
		off += k
	}
	for i := range x.ops {
		for _, c := range x.inputs(int32(i)) {
			x.cons[c] = append(x.cons[c], int32(i))
		}
	}
	x.dead = make([]bool, n)
}

// splice rewires π o's only input from the numbering operator c to c's
// own input d, patching the index for that one edge. If o was c's last
// consumer, c drops out of the plan (and out of d's consumer list).
func (x *planIndex) splice(o, c, d int32) {
	x.ops[o].In[0] = x.ops[d]
	x.in[x.inStart[o]] = d
	x.cons[c] = removeOne(x.cons[c], o)
	x.cons[d] = append(x.cons[d], o)
	if len(x.cons[c]) == 0 {
		x.dead[c] = true
		x.nDead++
		x.cons[d] = removeOne(x.cons[d], c)
	}
}

func removeOne(list []int32, v int32) []int32 {
	if k := slices.Index(list, v); k >= 0 {
		return slices.Delete(list, k, k+1)
	}
	return list
}

// colPos is the position of col in schema, or -1. hint is tried first:
// most operators hand a column on at the position they received it.
func colPos(schema []string, col string, hint int) int {
	if hint < len(schema) && schema[hint] == col {
		return hint
	}
	return slices.Index(schema, col)
}
