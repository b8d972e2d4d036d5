package opt

import (
	"slices"

	"pathfinder/internal/algebra"
)

// planIndex is the dense numbering of a DAG: the analyses and the
// rewriter keep their per-operator state in slices indexed by these
// numbers instead of in maps keyed by operator pointer. newPlanIndex
// numbers in algebra.Topo order (every operator after its inputs); the
// rewriter appends the few operators its rules build, so on its index a
// number is an identity, and only the entry numbering is topological.
type planIndex struct {
	ops     []*algebra.Op
	id      map[*algebra.Op]int32 // the pointer→number table of the numbering walk
	inStart []int32               // operator i's input numbers start at in[inStart[i]], in In order
	in      []int32
	top     int32 // the root's number

	// Consumer lists (one entry per consuming edge) and the operators
	// that dropped out of the plan, on the rewriter's index.
	cons  [][]int32
	dead  []bool
	nDead int
}

// newPlanIndex numbers the DAG rooted at root.
func newPlanIndex(root *algebra.Op) *planIndex {
	x := &planIndex{id: make(map[*algebra.Op]int32)}
	x.top = x.num(root)
	return x
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

// root is the plan's root operator.
func (x *planIndex) root() *algebra.Op { return x.ops[x.top] }

// live is the plan's operator count (what algebra.CountOps would walk
// the DAG for): everything numbered minus what dropped out.
func (x *planIndex) live() int { return len(x.ops) - x.nDead }

// colPos is the position of col in schema, or -1. hint is tried first:
// most operators hand a column on at the position they received it.
func colPos(schema []string, col string, hint int) int {
	if hint >= 0 && hint < len(schema) && schema[hint] == col {
		return hint
	}
	return slices.Index(schema, col)
}

// queue is a set of operator numbers handed out in order: pop returns
// the lowest number queued, or the highest when desc. It scans from
// where the last pop stopped, rewinding when a number before it is
// pushed — plans are small, and most pushes come after the pop point.
type queue struct {
	desc   bool
	next   int32
	queued []bool
}

func newQueue(n int, desc bool) queue {
	q := queue{desc: desc, queued: make([]bool, n)}
	if desc {
		q.next = int32(n - 1)
	}
	return q
}

// grow makes room for one more operator number.
func (q *queue) grow() { q.queued = append(q.queued, false) }

func (q *queue) push(i int32) {
	q.queued[i] = true
	if (i < q.next) != q.desc && i != q.next {
		q.next = i
	}
}

// pop removes and returns the first number, or -1 on an empty queue.
func (q *queue) pop() int32 {
	step := int32(1)
	if q.desc {
		step = -1
	}
	for ; q.next >= 0 && int(q.next) < len(q.queued); q.next += step {
		if q.queued[q.next] {
			q.queued[q.next] = false
			return q.next
		}
	}
	return -1
}
