package physical

import "pathfinder/internal/algebra"

// chainMinRows is the static row count below which no chain was counted.
const chainMinRows = 4096

// countChains counts the operator chains the lowering used to form, when
// the executor ran each chain as one scheduler task: maximal runs of
// per-row unary operators (σ, π, ⊛, mark) outside the theta joins, each
// interior read only by the next member, no mark after a filter, at
// least two members, and a head not statically known to see fewer than
// chainMinRows rows. at is the node of each logical position (nil where
// a theta join covers the operator), consumers and next count and name
// each position's readers. The executor runs every node as its own unit
// now; the count is only reported.
//
// Deprecated: Plan.Chains, which benchmark/inproc.go reports as
// physical.chains, is its only reader; the benchmark-only change of
// ROADMAP item 1 deletes both.
func countChains(at []*Node, consumers, next []int32) int {
	claimed := make([]bool, len(at))
	perRow := func(nd *Node) bool {
		if nd == nil || nd.Theta != nil || len(nd.In) != 1 {
			return false
		}
		switch nd.Op.Kind {
		case algebra.OpSelect, algebra.OpProject, algebra.OpFun, algebra.OpRowID:
			return true
		}
		return false
	}
	chains := 0
	for i, nd := range at {
		if claimed[i] || !perRow(nd) || nd.EstRows >= 0 && nd.EstRows < chainMinRows {
			continue
		}
		filtered := nd.Op.Kind == algebra.OpSelect
		for cur := i; consumers[cur] == 1; {
			nx := int(next[cur])
			succ := at[nx]
			if claimed[nx] || !perRow(succ) || succ.In[0] != at[cur] || succ.Op.Kind == algebra.OpRowID && filtered {
				break
			}
			if cur == i {
				claimed[i] = true
				chains++
			}
			claimed[nx] = true
			filtered = filtered || succ.Op.Kind == algebra.OpSelect
			cur = nx
		}
	}
	return chains
}
