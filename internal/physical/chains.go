package physical

import "pathfinder/internal/algebra"

// chainMinRows is the static row count below which no chain was counted.
const chainMinRows = 4096

// countChains counts the operator chains the lowering used to form, when
// the executor ran each chain as one scheduler task: maximal runs of
// per-row unary operators (σ, π, ⊛, mark) outside the theta joins, each
// interior read only by the next member, no mark after a filter, at
// least two members, and a head not statically known to see fewer than
// chainMinRows rows. The executor
// runs every node as its own unit now; the count is only reported.
//
// Deprecated: Plan.Chains, which benchmark/inproc.go reports as
// physical.chains, is its only reader; the benchmark-only change of
// ROADMAP item 1 deletes both.
func countChains(p *Plan, consumers map[*Node]int, nextOf map[*Node]*Node) int {
	claimed := make(map[*Node]bool)
	for _, tj := range p.ThetaJoins {
		for _, m := range tj.Members()[1:] {
			claimed[m] = true
		}
	}
	perRow := func(nd *Node) bool {
		switch nd.Op.Kind {
		case algebra.OpSelect, algebra.OpProject, algebra.OpFun, algebra.OpRowID:
			return len(nd.In) == 1
		}
		return false
	}
	chains := 0
	for _, nd := range p.Nodes {
		if claimed[nd] || !perRow(nd) || nd.EstRows >= 0 && nd.EstRows < chainMinRows {
			continue
		}
		members := []*Node{nd}
		filtered := nd.Op.Kind == algebra.OpSelect
		for cur := nd; consumers[cur] == 1; cur = members[len(members)-1] {
			next := nextOf[cur]
			if claimed[next] || !perRow(next) || next.In[0] != cur || next.Op.Kind == algebra.OpRowID && filtered {
				break
			}
			members = append(members, next)
			filtered = filtered || next.Op.Kind == algebra.OpSelect
		}
		if len(members) < 2 {
			continue
		}
		for _, m := range members {
			claimed[m] = true
		}
		chains++
	}
	return chains
}
