package opt

import (
	"pathfinder/internal/algebra"
	"slices"
)

// Order-sensitivity analysis: for each operator, does the *physical row
// order* of its output influence the query result? This is the safety
// side of join graph isolation — a numbering operator may be removed only
// where order provably does not matter.
//
// The analysis runs top-down over the DAG (consumers before inputs) and
// ORs across an operator's consumers. Three kinds of facts feed it:
//
//   - The serializer sorts by (iter, pos); if the root rows are
//     duplicate-free on a subset of those columns (a strict derived
//     ordering), the serialized bytes are independent of row order, and
//     sensitivity at the root is off.
//   - Order *barriers*: operators whose output is fully value-determined
//     regardless of input order — the staircase join (groups, sorts, and
//     dedups internally) and a tie-free ϱ (sorting by a key of the input
//     leaves no ties for the physical order to break).
//   - Order *sinks*: operators whose output VALUES depend on input row
//     order no matter what downstream does — mark numbering, tie-broken
//     ϱ numbering, node constructors that assign pre-order ids in row
//     order (text, attribute, element content with possible ties), and
//     sequence-sensitive aggregates (string-join; sum/avg accumulate
//     floats in row order).
//
// The verdicts are one slice over the pass's plan index, evaluated by
// pulling: an operator's order matters when any consumer says so for the
// edge between them (observes). That makes them maintainable under the
// isolation pass's splices — rederive re-pulls just the operators whose
// consumers or consumers' properties changed, and follows a change
// downwards only as far as it actually flips a verdict.
// matters[i] == false is a proof that reordering i's output rows cannot
// change the query result (nor any constructed node identity).
type orderSense struct {
	idx     *planIndex
	pr      *props
	matters []bool

	// Worklist of rederive: operator numbers, highest first.
	queue  []int32
	queued []bool
}

// newOrderSense derives the sensitivity of every operator of the indexed
// plan (consumer lists built), consulting pr for orderings and denseness.
func newOrderSense(idx *planIndex, pr *props) *orderSense {
	n := len(idx.ops)
	s := &orderSense{idx: idx, pr: pr, matters: make([]bool, n), queued: make([]bool, n)}
	for i := int32(n - 1); i >= 0; i-- {
		s.matters[i] = s.pull(i)
	}
	return s
}

// pull evaluates operator i from its consumers' current verdicts.
func (s *orderSense) pull(i int32) bool {
	if int(i) == len(s.idx.ops)-1 {
		// The root: the serializer's (iter, pos) sort hides row order
		// exactly when that sort key has no ties.
		return !s.valueDetermined(i)
	}
	for _, p := range s.idx.cons[i] {
		if s.observes(p, i) {
			return true
		}
	}
	return false
}

// observes reports whether consumer p makes the row order of its input x
// matter, on any edge from p to x.
func (s *orderSense) observes(p, x int32) bool {
	o, in, mv := s.idx.ops[p], s.idx.inputs(p), s.matters[p]
	switch o.Kind {
	case algebra.OpProject, algebra.OpSelect, algebra.OpFun,
		algebra.OpDoc, algebra.OpRoots, algebra.OpColl,
		algebra.OpRange, algebra.OpDistinct,
		algebra.OpUnion:
		// Order-preserving row maps/filters (δ keeps first occurrences)
		// and concatenation: input order shows through exactly when the
		// output's order is observed.
		return mv
	case algebra.OpJoin, algebra.OpCross:
		// Left-streaming kernels: output order interleaves left order
		// with right physical match order.
		return mv
	case algebra.OpDiff, algebra.OpSemiJoin:
		// Right side is a filter set — only membership matters.
		return mv && in[0] == x
	case algebra.OpRowNum:
		// ϱ sorts by (partition, order) with ties broken by input
		// order. Tie-free (the sort key is a key of the input) ⇒ both
		// the numbering values and the output row order are fully
		// determined: a barrier. Otherwise the input order leaks into
		// the numbering values themselves: a sink.
		return !s.rowNumTieFree(p)
	case algebra.OpRowID:
		// mark numbers rows in input order — values are the order.
		return true
	case algebra.OpAggr:
		sensitive := o.Agg == algebra.AggStrJoin ||
			o.Agg == algebra.AggSum || o.Agg == algebra.AggAvg
		// Partitioned groups surface in first-occurrence order.
		return sensitive || (o.Part != "" && mv)
	case algebra.OpStep:
		// The staircase join groups by (iter, fragment), sorts group
		// keys, and sort-dedups context nodes: a full barrier.
		return false
	case algebra.OpElem:
		// The root input is sorted by iter (duplicates are an error);
		// each slot is sorted by (iter, pos) before node construction, so
		// its order is only observable through ties on (iter, pos).
		return slices.Contains(in[1:], x) && !s.valueDetermined(x)
	case algebra.OpText:
		// Constructed text nodes get pre-order ids in input row order.
		return true
	case algebra.OpAttrC:
		// Attribute construction numbers nodes in name-row order; the
		// value side is consulted by iter lookup only.
		return in[0] == x
	}
	return true
}

// rederive brings the verdicts up to date after a splice: dirty lists
// the operators whose consumers, or whose consumers' derived properties,
// changed. Operators are re-pulled highest number first (consumers
// before inputs), and a verdict that flips makes the operator's inputs
// dirty in turn. It returns the lowest-numbered operator whose order
// stopped mattering (len(ops) if none did) — the isolation scan resumes
// there.
func (s *orderSense) rederive(dirty []int32) int32 {
	for _, i := range dirty {
		s.enqueue(i)
	}
	lowest := int32(len(s.idx.ops))
	for len(s.queue) > 0 {
		i := s.dequeue()
		v := s.pull(i)
		if v == s.matters[i] {
			continue
		}
		s.matters[i] = v
		if !v && i < lowest {
			lowest = i
		}
		for _, c := range s.idx.inputs(i) {
			s.enqueue(c)
		}
	}
	return lowest
}

// enqueue and dequeue keep queue a max-heap of operator numbers.
func (s *orderSense) enqueue(i int32) {
	if s.queued[i] || s.idx.dead[i] {
		return
	}
	s.queued[i] = true
	q := append(s.queue, i)
	for k := len(q) - 1; k > 0; {
		up := (k - 1) / 2
		if q[up] >= q[k] {
			break
		}
		q[up], q[k] = q[k], q[up]
		k = up
	}
	s.queue = q
}

func (s *orderSense) dequeue() int32 {
	q := s.queue
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for k := 0; ; {
		big := k
		if l := 2*k + 1; l < last && q[l] > q[big] {
			big = l
		}
		if r := 2*k + 2; r < last && q[r] > q[big] {
			big = r
		}
		if big == k {
			break
		}
		q[k], q[big] = q[big], q[k]
		k = big
	}
	s.queue = q
	s.queued[top] = false
	return top
}

// valueDetermined reports that sorting operator i's rows by (iter, pos)
// — what the serializer and the element constructor do — yields a
// sequence independent of the incoming row order: the derived ordering
// is strict over columns drawn from {iter, pos}, so no two rows tie on
// the sort key.
func (s *orderSense) valueDetermined(i int32) bool {
	return s.pr.keyedWithin(i, iterPos)
}

var iterPos = []string{"iter", "pos"}

// rowNumTieFree proves the sort key (partition + order columns) of ϱ
// operator i is a key of its input: either the input's strict derived
// ordering uses only those columns, or one of them is dense (1..n never
// repeats).
func (s *orderSense) rowNumTieFree(i int32) bool {
	o, in := s.idx.ops[i], s.idx.inputs(i)[0]
	var buf [4]string
	key := buf[:0]
	if o.Part != "" {
		key = append(key, o.Part)
	}
	for _, spec := range o.Order {
		key = append(key, spec.Col)
	}
	for _, c := range s.pr.denseAt(in) {
		if slices.Contains(key, c) {
			return true
		}
	}
	return s.pr.keyedWithin(in, key)
}
