package physical

import "pathfinder/internal/algebra"

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
}

// Members returns the unit's nodes in execution order.
func (t *ThetaJoin) Members() [3]*Node { return [3]*Node{t.Cross, t.Fun, t.Select} }

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
