package physical

import "pathfinder/internal/algebra"

// Theta-join recognition. The compiler's join recognition turns
// `for … where A cmp B` with a non-`=` comparison into
//
//	σ_c ( ⊛cmp c:(x,y) ( A × B ) )
//
// and running the three operators one by one builds all |A|·|B| rows to
// keep the few that qualify. Lower folds the pattern into one node of
// kernel family "thetajoin": its inputs are A and B, its output the
// columns of σ its consumers read, and the executor runs it as one
// sort-based inequality (band) join that emits the qualifying pairs
// directly, in the row order × followed by σ produces. ×, ⊛ and σ get no
// node of their own; the logical plan and every emitter that walks it
// are untouched.
//
// A node whose pairs are only counted goes further (matchCountTail): it
// also covers the π, δ and count above σ, is of family "thetacount", and
// the executor answers the count per outer row from the width of its
// band — no pair is emitted at all, and the join's cost stops following
// the size of its result.

// ThetaJoin is what a theta-join node runs: the predicate, normalized,
// and the logical operators the node covers, which internal/check
// re-proves the folding from. The node's Op is Select, or Count when the
// tail is claimed; its inputs are the nodes of Cross's inputs.
type ThetaJoin struct {
	Cross  *algebra.Op // ×: its inputs are the node's inputs
	Fun    *algebra.Op // ⊛: the comparison over one column of each × input
	Select *algebra.Op // σ on ⊛'s result column

	// The predicate normalized to read LeftCol Cmp RightCol, LeftCol a
	// column of Cross.In[0] and RightCol one of Cross.In[1]: a ⊛ whose
	// first argument comes from the right input has its comparison
	// mirrored here. Cmp is one of FunLt, FunLe, FunGt, FunGe.
	LeftCol, RightCol string
	Cmp               algebra.FunKind

	// Demand lists, in σ's schema order, the columns the node's consumers
	// read: the columns their projections name when every consumer is a
	// π, the whole schema otherwise. The node's output holds exactly
	// these — the compared item columns and the all-true comparison
	// result are usually dropped by the π right above σ. Nil on a
	// count-only node, whose output is Count's schema.
	Demand []string

	// The count-only tail, nil on a node that emits its pairs. When σ is
	// read only by a π that keeps one column of each × input, that π only
	// by a δ, and that δ only by a count partitioned by the left input's
	// column, nothing above the join reads a pair: the node covers the
	// three operators too, and the executor computes Count's output from
	// the band widths. CountBy is the column of Cross.In[0] the count is
	// partitioned by, CountOf the column of Cross.In[1] whose distinct
	// values are counted per partition.
	Project, Distinct, Count *algebra.Op
	CountBy, CountOf         string
}

// out is the covered operator whose output is the node's.
func (t *ThetaJoin) out() *algebra.Op {
	if t.Count != nil {
		return t.Count
	}
	return t.Select
}

// mirrorCmp swaps the operand order of an inequality.
func mirrorCmp(f algebra.FunKind) algebra.FunKind {
	switch f {
	case algebra.FunLt:
		return algebra.FunGt
	case algebra.FunLe:
		return algebra.FunGe
	case algebra.FunGt:
		return algebra.FunLt
	default: // FunGe
		return algebra.FunLe
	}
}

// foldThetaJoins finds the theta joins of the logical operators in
// order (bottom-up; index maps each operator to its position), lets each
// one whose pairs are only counted claim the π, δ and count above it,
// and records which columns each pair-emitting one's consumers read. The
// result maps every covered position to its join, nil for a plan
// without one; consumers counts the edges that read each position, next
// names the last of them.
func foldThetaJoins(order []*algebra.Op, index map[*algebra.Op]int, consumers, next []int32) []*ThetaJoin {
	var own []*ThetaJoin
	for i, sel := range order {
		tj := matchThetaJoin(sel, index, consumers)
		if tj == nil {
			continue
		}
		if own == nil {
			own = make([]*ThetaJoin, len(order))
		}
		own[index[tj.Cross]], own[index[tj.Fun]], own[i] = tj, tj, tj
		if p := matchCountTail(tj, order, i, consumers, next); p > 0 {
			d := next[p]
			own[p], own[d], own[next[d]] = tj, tj, tj
			continue
		}
		tj.Demand = demand(sel, order[i+1:], i == len(order)-1)
	}
	return own
}

// matchThetaJoin reports whether sel is the σ of a theta join and, if
// so, returns it without its tail. The conditions:
//
//   - σ selects on the column its input ⊛ computes,
//   - ⊛ is a binary <, ≤, > or ≥ directly over a ×,
//   - one operand column comes from each × input, and
//   - ⊛ and × each have exactly one consumer, so no operator outside
//     the node ever sees the product or the unfiltered comparison.
//
// `=` is the hash join's business and `!=` qualifies almost every pair,
// so neither has a band to search. The match allocates nothing until
// every condition holds.
func matchThetaJoin(sel *algebra.Op, index map[*algebra.Op]int, consumers []int32) *ThetaJoin {
	if sel.Kind != algebra.OpSelect {
		return nil
	}
	fo := sel.In[0]
	if fo.Kind != algebra.OpFun || fo.Col != sel.Col || len(fo.Args) != 2 || consumers[index[fo]] != 1 {
		return nil
	}
	switch fo.Fun {
	case algebra.FunLt, algebra.FunLe, algebra.FunGt, algebra.FunGe:
	default:
		return nil
	}
	cross := fo.In[0]
	if cross.Kind != algebra.OpCross || consumers[index[cross]] != 1 {
		return nil
	}
	l, r := cross.In[0], cross.In[1]
	switch {
	case l.HasCol(fo.Args[0]) && r.HasCol(fo.Args[1]):
		return &ThetaJoin{Cross: cross, Fun: fo, Select: sel,
			LeftCol: fo.Args[0], RightCol: fo.Args[1], Cmp: fo.Fun}
	case r.HasCol(fo.Args[0]) && l.HasCol(fo.Args[1]):
		return &ThetaJoin{Cross: cross, Fun: fo, Select: sel,
			LeftCol: fo.Args[1], RightCol: fo.Args[0], Cmp: mirrorCmp(fo.Fun)}
	}
	return nil
}

// matchCountTail extends tj over the π, δ and count above its σ, at
// position sel, when they read the pairs only to count them (see
// ThetaJoin.Count), and returns π's position; 0 when they do not.
func matchCountTail(tj *ThetaJoin, order []*algebra.Op, sel int, consumers, next []int32) int {
	sole := func(pos int, kind algebra.OpKind) int {
		if consumers[pos] == 1 && order[next[pos]].Kind == kind {
			return int(next[pos])
		}
		return 0
	}
	p := sole(sel, algebra.OpProject)
	if p == 0 || len(order[p].Proj) != 2 {
		return 0
	}
	l, r := tj.Cross.In[0], tj.Cross.In[1]
	by, of := order[p].Proj[0], order[p].Proj[1]
	if !l.HasCol(by.Old) {
		by, of = of, by
	}
	if !l.HasCol(by.Old) || !r.HasCol(of.Old) {
		return 0
	}
	d := sole(p, algebra.OpDistinct)
	if d == 0 {
		return 0
	}
	c := sole(d, algebra.OpAggr)
	if c == 0 || order[c].Agg != algebra.AggCount || order[c].Part != by.New {
		return 0
	}
	tj.Project, tj.Distinct, tj.Count = order[p], order[d], order[c]
	tj.CountBy, tj.CountOf = by.Old, of.Old
	return p
}

// demand is what the consumers of sel among above read of its schema,
// in schema order: everything when sel is the plan's root or one of them
// is not a π.
func demand(sel *algebra.Op, above []*algebra.Op, root bool) []string {
	schema := sel.Schema()
	read := make([]bool, len(schema))
	all := root
	for _, o := range above {
		for _, c := range o.In {
			if c != sel {
				continue
			}
			if o.Kind != algebra.OpProject {
				all = true
				continue
			}
			for _, pr := range o.Proj {
				for i, col := range schema {
					if col == pr.Old {
						read[i] = true
					}
				}
			}
		}
	}
	cols := make([]string, 0, len(schema))
	for i, col := range schema {
		if all || read[i] {
			cols = append(cols, col)
		}
	}
	return cols
}
