package physical

import (
	"math/bits"

	"pathfinder/internal/algebra"
)

// Theta-join recognition. The compiler's join recognition turns
// `for … where A cmp B` with a non-`=` comparison into
//
//	σ_c ( ⊛cmp c:(x,y) ( A × B ) )
//
// and an executor that runs the three operators one by one builds all
// |A|·|B| rows to keep the few that qualify. Lower identifies the
// pattern and records it as ThetaJoin metadata; the executor runs the
// three members as one sort-based inequality (band) join that emits the
// qualifying pairs directly, in the row order × followed by σ produces.
//
// Like fused chains this is metadata, not a plan rewrite: ×, ⊛ and σ
// keep their Nodes (stats, Check and the explain/dot output address
// them individually), the logical plan and every emitter that walks it
// are untouched, and an executor that ignores ThetaJoins — or meets key
// columns the band kernel cannot order the way bat.Compare does — runs
// the identical three operators and gets the identical result.
//
// A unit whose pairs are only counted goes further (matchCountTail): it
// also owns the π, δ and count above σ, and the executor answers the
// count per outer row from the width of its band — no pair is emitted at
// all, and the join's cost stops following the size of its result.

// ThetaJoin is one recognized σ(⊛cmp(×)) unit.
type ThetaJoin struct {
	ID int // 1-based, in discovery (= topological) order

	Cross  *Node // ×: its inputs are the unit's inputs
	Fun    *Node // ⊛: the comparison over one column of each × input
	Select *Node // σ on ⊛'s result column; its output is the unit's

	// The predicate normalized to read LeftCol Cmp RightCol, LeftCol a
	// column of Cross.In[0] and RightCol one of Cross.In[1]: a ⊛ whose
	// first argument comes from the right input has its comparison
	// mirrored here. Cmp is one of FunLt, FunLe, FunGt, FunGe.
	LeftCol, RightCol string
	Cmp               algebra.FunKind

	// Demand lists, in σ's schema order, the output columns the unit's
	// consumers read: the columns their projections name when every
	// consumer is a π, the whole schema otherwise. The band kernel
	// gathers only these — the compared item columns and the all-true
	// comparison result are usually dropped by the π right above σ. A
	// demoted unit runs its three operators as they stand and produces
	// the whole schema.
	Demand []string

	// The count-only tail, nil on a unit that emits its pairs. When σ is
	// read only by a π that keeps one column of each × input, that π only
	// by a δ, and that δ only by a count partitioned by the left input's
	// column, nothing above the join reads a pair: the unit owns the
	// three nodes too, Count's output is the unit's, and the executor
	// computes it from the band widths. CountBy is the column of
	// Cross.In[0] the count is partitioned by, CountOf the column of
	// Cross.In[1] whose distinct values are counted per partition.
	Project, Distinct, Count *Node
	CountBy, CountOf         string
}

// Members returns the unit's nodes in execution order.
func (t *ThetaJoin) Members() []*Node {
	if t.Count == nil {
		return []*Node{t.Cross, t.Fun, t.Select}
	}
	return []*Node{t.Cross, t.Fun, t.Select, t.Project, t.Distinct, t.Count}
}

// Out returns the member whose output is the unit's.
func (t *ThetaJoin) Out() *Node {
	if t.Count != nil {
		return t.Count
	}
	return t.Select
}

// EstCost prices a count-only unit: sorting the inner side A and one
// binary search per outer row of B, (|A|+|B|)·log|A| — not the |A|·|B|
// rows its six members would be charged one by one. -1 when a side's
// cardinality is unknown.
func (t *ThetaJoin) EstCost() int64 {
	b, a := t.Cross.In[0].EstRows, t.Cross.In[1].EstRows
	if a < 0 || b < 0 {
		return -1
	}
	return (a + b) * int64(bits.Len64(uint64(a)))
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

// matchThetaJoin reports whether sel is the σ of a theta-join unit and,
// if so, returns the unit (without an ID). The conditions:
//
//   - σ selects on the column its input ⊛ computes,
//   - ⊛ is a binary <, ≤, > or ≥ directly over a ×,
//   - one operand column comes from each × input, and
//   - ⊛ and × each have exactly one consumer, so no operator outside
//     the unit ever sees the product or the unfiltered comparison.
//
// `=` is the hash join's business and `!=` qualifies almost every pair,
// so neither has a band to search. The match allocates nothing until
// every condition holds.
func matchThetaJoin(sel *Node, consumers map[*Node]int) *ThetaJoin {
	if sel.Op.Kind != algebra.OpSelect {
		return nil
	}
	fn := sel.In[0]
	fo := fn.Op
	if fo.Kind != algebra.OpFun || fo.Col != sel.Op.Col || len(fo.Args) != 2 || consumers[fn] != 1 {
		return nil
	}
	switch fo.Fun {
	case algebra.FunLt, algebra.FunLe, algebra.FunGt, algebra.FunGe:
	default:
		return nil
	}
	cross := fn.In[0]
	if cross.Op.Kind != algebra.OpCross || consumers[cross] != 1 {
		return nil
	}
	l, r := cross.Op.In[0], cross.Op.In[1]
	switch {
	case l.HasCol(fo.Args[0]) && r.HasCol(fo.Args[1]):
		return &ThetaJoin{Cross: cross, Fun: fn, Select: sel,
			LeftCol: fo.Args[0], RightCol: fo.Args[1], Cmp: fo.Fun}
	case r.HasCol(fo.Args[0]) && l.HasCol(fo.Args[1]):
		return &ThetaJoin{Cross: cross, Fun: fn, Select: sel,
			LeftCol: fo.Args[1], RightCol: fo.Args[0], Cmp: mirrorCmp(fo.Fun)}
	}
	return nil
}

// matchCountTail extends tj over the π, δ and count above its σ when
// they read the pairs only to count them (see ThetaJoin.Count), and
// lowers Count's cardinality estimate to the outer side's: one row per
// partition at most.
func matchCountTail(tj *ThetaJoin, consumers map[*Node]int, nextOf map[*Node]*Node) {
	sole := func(nd *Node, kind algebra.OpKind) *Node {
		if next := nextOf[nd]; consumers[nd] == 1 && next.Op.Kind == kind {
			return next
		}
		return nil
	}
	proj := sole(tj.Select, algebra.OpProject)
	if proj == nil || len(proj.Op.Proj) != 2 {
		return
	}
	l, r := tj.Cross.Op.In[0], tj.Cross.Op.In[1]
	by, of := proj.Op.Proj[0], proj.Op.Proj[1]
	if !l.HasCol(by.Old) {
		by, of = of, by
	}
	if !l.HasCol(by.Old) || !r.HasCol(of.Old) {
		return
	}
	dist := sole(proj, algebra.OpDistinct)
	if dist == nil {
		return
	}
	cnt := sole(dist, algebra.OpAggr)
	if cnt == nil || cnt.Op.Agg != algebra.AggCount || cnt.Op.Part != by.New {
		return
	}
	tj.Project, tj.Distinct, tj.Count = proj, dist, cnt
	tj.CountBy, tj.CountOf = by.Old, of.Old
	cnt.EstRows = tj.Cross.In[0].EstRows
}

// demandThetaJoins fills in every unit's Demand from the consumers of
// its σ. A σ nobody consumes is the plan root: the caller reads it all.
func demandThetaJoins(p *Plan) {
	for _, tj := range p.ThetaJoins {
		schema := tj.Select.Op.Schema()
		read := make([]bool, len(schema))
		all := tj.Select == p.Root
		for _, nd := range p.Nodes {
			for _, c := range nd.In {
				if c != tj.Select {
					continue
				}
				if nd.Op.Kind != algebra.OpProject {
					all = true
					continue
				}
				for _, pr := range nd.Op.Proj {
					for i, col := range schema {
						if col == pr.Old {
							read[i] = true
						}
					}
				}
			}
		}
		tj.Demand = make([]string, 0, len(schema))
		for i, col := range schema {
			if all || read[i] {
				tj.Demand = append(tj.Demand, col)
			}
		}
	}
}
