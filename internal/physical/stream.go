package physical

import "pathfinder/internal/algebra"

// markStreams decides which ε stream (Node.Stream). An ε streams when its
// item column reaches only the plan's result, or a content slot of
// another streamed ε, through operators that never look at a node: π; σ,
// ⋈, ⋉, \, ϱ, ⊛ and aggregates on other columns; ∪; ×; mark. Anything
// else that reads the column — a step, δ, ⊛ such as is, << or data,
// fn:root, the name or an attribute slot of an ε, or a content slot of
// an ε that materializes — needs the nodes built.
//
// The analysis runs backwards over the logical operators in topological
// order, consumers first: each operator's mask holds the columns of its
// schema (one bit per position; the 64th and later never stream) whose
// every consumer only passes them on, intersected over its consumers. An
// ε is decided before its inputs, so one that materializes makes its
// slots' ε materialize too. index maps each operator to its position, at
// each position to its node (an ε always has one).
func markStreams(order []*algebra.Op, index map[*algebra.Op]int, at []*Node) {
	safe := make([]uint64, len(order))
	for i := range safe {
		safe[i] = ^uint64(0)
	}
	root := len(order) - 1
	safe[root] &= colBit(order[root].Schema(), "item")
	for i := root; i >= 0; i-- {
		o, m := order[i], safe[i]
		stream := false
		if o.Kind == algebra.OpElem {
			stream = m&colBit(o.Schema(), "item") != 0
			at[i].Stream = stream
		}
		for k, in := range o.In {
			safe[index[in]] &= passes(o, stream, m, k)
		}
	}
}

// passes is the mask of input k's columns that the operator o, whose own
// safe columns are m, only passes on: dropped, or carried to a safe
// column. stream says whether o is an ε that streams.
func passes(o *algebra.Op, stream bool, m uint64, k int) uint64 {
	in := o.In[k].Schema()
	switch o.Kind {
	case algebra.OpProject:
		var out uint64
		for j, c := range in {
			ok := j < 64
			for _, p := range o.Proj {
				if p.Old == c {
					ok = ok && m&colBit(o.Schema(), p.New) != 0
				}
			}
			if ok {
				out |= 1 << j
			}
		}
		return out
	case algebra.OpSelect:
		return carried(in, o.Schema(), m) &^ colBit(in, o.Col)
	case algebra.OpUnion, algebra.OpCross, algebra.OpRowID:
		return carried(in, o.Schema(), m)
	case algebra.OpJoin:
		keys := o.KeyL
		if k == 1 {
			keys = o.KeyR
		}
		return carried(in, o.Schema(), m) &^ colBits(in, keys)
	case algebra.OpSemiJoin, algebra.OpDiff:
		if k == 1 {
			return ^colBits(in, o.KeyR) // only the keys are read
		}
		return carried(in, o.Schema(), m) &^ colBits(in, o.KeyL)
	case algebra.OpRowNum:
		out := carried(in, o.Schema(), m) &^ colBit(in, o.Part)
		for _, s := range o.Order {
			out &^= colBit(in, s.Col)
		}
		return out
	case algebra.OpFun:
		return carried(in, o.Schema(), m) &^ colBits(in, o.Args)
	case algebra.OpAggr:
		return ^(colBits(in, o.Args) | colBit(in, o.Part)) // the rest is dropped
	case algebra.OpElem:
		// A content slot's items stream into a streamed ε; its iter and
		// pos are sorted on.
		if k > 0 && stream && slotStep(o.Skel, int32(k-1)) == algebra.SkelSlot {
			return colBit(in, "item")
		}
	}
	return 0
}

// carried maps the safe columns m of a schema out that keeps the input
// columns in by name onto in: a column out does not keep is dropped, and
// safe.
func carried(in, out []string, m uint64) uint64 {
	var mask uint64
	for j, c := range in {
		if j >= 64 {
			break
		}
		if p := position(out, c); p < 0 || p < 64 && m&(1<<p) != 0 {
			mask |= 1 << j
		}
	}
	return mask
}

func position(schema []string, col string) int {
	for i, c := range schema {
		if c == col {
			return i
		}
	}
	return -1
}

// colBit is col's bit in schema's mask; 0 when schema lacks it or has it
// beyond 64.
func colBit(schema []string, col string) uint64 {
	if p := position(schema, col); p >= 0 && p < 64 {
		return 1 << p
	}
	return 0
}

func colBits(schema, cols []string) uint64 {
	var m uint64
	for _, c := range cols {
		m |= colBit(schema, c)
	}
	return m
}

// slotStep is the kind of the skeleton step that reads slot k.
func slotStep(skel algebra.Skeleton, k int32) algebra.SkelKind {
	for _, st := range skel {
		if (st.Kind == algebra.SkelSlot || st.Kind == algebra.SkelAttr) && st.Slot == k {
			return st.Kind
		}
	}
	return algebra.SkelOpen
}
