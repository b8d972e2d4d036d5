package opt

import (
	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"slices"
)

// Order-property inference ([3], "a careful consideration of order
// properties of relational operators"): for every operator we derive the
// column sequence by which its output is guaranteed sorted (ascending,
// lexicographically), plus whether that ordering is strict (no two rows
// equal on the prefix — a key). Strictness is what lets orderings compose
// across × and ⋈. The payoff is the paper's "% [is] a no-cost operator"
// observation: a ϱ whose input is already in its (partition, order) order
// degenerates to MonetDB's mark — our OpRowID.
type ordering struct {
	cols   []string
	strict bool
}

// props memoizes the order and denseness inference per operator, in
// slices over a planIndex's numbering. Passes that own an index ask by
// number (orderingAt, denseAt); callers that hold operator pointers
// (the property engine, the rebuild of the normalize pass) go through
// at/orderingOf, which number the operator first.
type props struct {
	idx  *planIndex
	memo []propMemo
}

// propMemo is what has been derived for one operator so far.
type propMemo struct {
	ord            ordering
	dense          []string
	ordOK, denseOK bool
}

func newProps(idx *planIndex) *props {
	return &props{idx: idx, memo: make([]propMemo, len(idx.ops), cap(idx.ops))}
}

// at numbers o in the (growing) index and makes room for what it
// numbered on the way.
func (p *props) at(o *algebra.Op) int32 {
	i := p.idx.num(o)
	for len(p.memo) < len(p.idx.ops) {
		p.memo = append(p.memo, propMemo{})
	}
	return i
}

func (p *props) orderingOf(o *algebra.Op) ordering { return p.orderingAt(p.at(o)) }

// drop forgets what was derived for operator i.
func (p *props) drop(i int32) { p.memo[i] = propMemo{} }

// sortedOn reports whether operator i's output is guaranteed sorted
// with cols as a prefix — either via the ordering inference or, for a
// single column, via denseness (a 1..n column is sorted by
// construction).
func (p *props) sortedOn(i int32, cols []string) bool {
	if hasPrefix(p.orderingAt(i).cols, cols) {
		return true
	}
	return len(cols) == 1 && slices.Contains(p.denseAt(i), cols[0])
}

// rightKeyUnique reports whether the join key is a key of join i's
// right input — i.e. the join is N:1 and every left row matches at most
// once. Two sufficient proofs: a dense column among the right key
// columns (1..n values are duplicate-free), or a strict right ordering
// whose column set is covered by the key columns.
func (p *props) rightKeyUnique(i int32) bool {
	o, r := p.idx.ops[i], p.idx.inputs(i)[1]
	for _, c := range p.denseAt(r) {
		if slices.Contains(o.KeyR, c) {
			return true
		}
	}
	return p.keyedWithin(r, o.KeyR)
}

// keyedWithin reports that operator i's derived ordering is strict and
// uses only the given columns — those columns are then a key of i.
func (p *props) keyedWithin(i int32, cols []string) bool {
	ord := p.orderingAt(i)
	if !ord.strict || len(ord.cols) == 0 {
		return false
	}
	for _, c := range ord.cols {
		if !slices.Contains(cols, c) {
			return false
		}
	}
	return true
}

func (p *props) orderingAt(i int32) ordering {
	if m := &p.memo[i]; m.ordOK {
		return m.ord
	}
	s := p.computeOrdering(i)
	p.memo[i].ord, p.memo[i].ordOK = s, true
	return s
}

func (p *props) computeOrdering(i int32) ordering {
	o, in := p.idx.ops[i], p.idx.inputs(i)
	switch o.Kind {
	case algebra.OpLit:
		return litSorted(o.Lit)
	case algebra.OpProject:
		// Renaming: map the child's sorted prefix through the projection
		// (first alias wins); the prefix survives as long as each column
		// is kept.
		child := p.orderingAt(in[0])
		var out []string
	prefix:
		for _, c := range child.cols {
			for _, pr := range o.Proj {
				if pr.Old == c {
					out = append(out, pr.New)
					continue prefix
				}
			}
			// Truncated: strictness over the shorter prefix is lost.
			return ordering{cols: out}
		}
		return ordering{cols: out, strict: child.strict}
	case algebra.OpSelect, algebra.OpDistinct, algebra.OpFun,
		algebra.OpDoc, algebra.OpRoots:
		// Row filters and per-row extensions preserve input order (and
		// removing rows cannot break strictness).
		return p.orderingAt(in[0])
	case algebra.OpRowID:
		// mark appends a strictly increasing column in input order.
		child := p.orderingAt(in[0])
		return ordering{cols: append(append([]string{}, child.cols...), o.Col), strict: true}
	case algebra.OpSemiJoin, algebra.OpDiff:
		return p.orderingAt(in[0])
	case algebra.OpJoin:
		// The engine streams the left side in order. If the join key is a
		// key of the right input (N:1 — provable via a dense key column or
		// a strict right ordering covered by the key), no left row is
		// duplicated and the left ordering survives intact, strictness
		// included. Otherwise multiple matches duplicate left rows and
		// only the non-strict prefix survives. (Denseness never survives:
		// unmatched left rows may drop, breaking 1..n.)
		l := p.orderingAt(in[0])
		if p.rightKeyUnique(i) {
			return ordering{cols: l.cols, strict: l.strict}
		}
		return ordering{cols: l.cols}
	case algebra.OpCross:
		// Left-major: groups of identical left rows, right table order
		// within each. If the left prefix is strict (groups are distinct),
		// the right ordering composes.
		l := p.orderingAt(in[0])
		if !l.strict {
			return ordering{cols: l.cols}
		}
		r := p.orderingAt(in[1])
		return ordering{
			cols:   append(append([]string{}, l.cols...), r.cols...),
			strict: r.strict,
		}
	case algebra.OpRowNum:
		// Output is materialized in (partition, order...) order with the
		// numbering column increasing strictly within each partition —
		// so (partition, numbering) is the canonical strict ordering; it
		// subsumes the order keys and survives projections that drop them.
		var out []string
		if o.Part != "" {
			out = append(out, o.Part)
		}
		return ordering{cols: append(out, o.Col), strict: true}
	case algebra.OpStep:
		// Staircase join output is (iter, document order), duplicate-free.
		return ordering{cols: []string{"iter", "item"}, strict: true}
	case algebra.OpAggr:
		if o.Part != "" {
			child := p.orderingAt(in[0])
			if len(child.cols) > 0 && child.cols[0] == o.Part {
				return ordering{cols: []string{o.Part}, strict: true}
			}
		}
		return ordering{}
	case algebra.OpElem:
		return ordering{cols: []string{"iter"}, strict: true}
	case algebra.OpText, algebra.OpAttrC, algebra.OpRange, algebra.OpColl:
		child := p.orderingAt(in[0])
		if len(child.cols) > 0 && child.cols[0] == "iter" {
			return ordering{cols: []string{"iter"}}
		}
		return ordering{}
	case algebra.OpUnion:
		return ordering{} // concatenation gives no global guarantee
	}
	return ordering{}
}

// litSorted scans a literal table once (optimization time, tiny tables) to
// find its longest sorted column prefix and whether it is strict.
func litSorted(t *bat.Table) ordering {
	var out []string
	for _, col := range t.Cols() {
		out = append(out, col)
		if !sortedBy(t, out) {
			out = out[:len(out)-1]
			return ordering{cols: append([]string{}, out...)}
		}
	}
	return ordering{cols: out, strict: strictBy(t, out)}
}

func sortedBy(t *bat.Table, cols []string) bool {
	vecs := make([]bat.Vec, len(cols))
	for i, c := range cols {
		vecs[i] = t.MustCol(c)
	}
	for r := 1; r < t.Rows(); r++ {
		for _, v := range vecs {
			c := bat.CompareTotal(v.ItemAt(r-1), v.ItemAt(r))
			if c < 0 {
				break
			}
			if c > 0 {
				return false
			}
		}
	}
	return true
}

// strictBy reports whether consecutive rows always differ on the columns
// (assuming sortedBy already holds).
func strictBy(t *bat.Table, cols []string) bool {
	vecs := make([]bat.Vec, len(cols))
	for i, c := range cols {
		vecs[i] = t.MustCol(c)
	}
	for r := 1; r < t.Rows(); r++ {
		equal := true
		for _, v := range vecs {
			if bat.CompareTotal(v.ItemAt(r-1), v.ItemAt(r)) != 0 {
				equal = false
				break
			}
		}
		if equal {
			return false
		}
	}
	return true
}

// hasPrefix reports whether want is a prefix of have.
func hasPrefix(have, want []string) bool {
	if len(want) > len(have) {
		return false
	}
	for i, c := range want {
		if have[i] != c {
			return false
		}
	}
	return true
}
