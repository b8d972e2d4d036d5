package physical

import "pathfinder/internal/algebra"

// Operator chains: the loop-lifted plans are long runs of cheap per-row
// operators — filters, maps, projections, mark/rownum fast paths — each
// feeding only the next. Lower identifies maximal runs of such operators
// and records them on the plan as FusedChain metadata; the executor runs
// a whole chain as one scheduler task whose members execute back to back
// through their ordinary kernels, so the scheduler dispatches one task
// instead of one per member.
//
// The chains are metadata, not a plan rewrite: every member keeps its
// Node (kernel, morsel split, stats, Check, and the explain/dot output
// address members individually), so the plan, its cache entry and its
// result are those of the same operators run one by one.

// FusedChain is one maximal fusable chain: Nodes[0] is the head (its
// data input is the chain's input), Nodes[len-1] the tail (its output is
// the chain's boundary). Interior members have exactly one consumer —
// the next member — so no operator outside the chain needs an interior's
// output, which never gets a scheduler slot of its own.
type FusedChain struct {
	ID    int // 1-based, in discovery (= topological) order
	Nodes []*Node
}

// Head returns the chain's first member.
func (c *FusedChain) Head() *Node { return c.Nodes[0] }

// Tail returns the chain's last member; its output is the chain's.
func (c *FusedChain) Tail() *Node { return c.Nodes[len(c.Nodes)-1] }

// Input returns the node producing the chain's input relation.
func (c *FusedChain) Input() *Node { return c.Head().In[0] }

// FusedMinRows is the static gate below which chain formation is
// skipped: a point lookup whose cardinality is known to be tiny keeps
// one scheduler unit per operator and pays no unit remapping. Reusing
// the morsel gate keeps "tiny" meaning one thing across the executor.
const FusedMinRows = ParallelMinRows

// fusable reports whether a node may be a chain member: a pure unary
// per-row operator whose kernel reads input rows independently. σ, π
// and ⊛ (map, every function) always qualify; ϱ only on its const-1
// fast path (the sort and presorted kernels need the whole partition);
// the mark operator qualifies but is position-sensitive — see
// discoverUnits.
func fusable(nd *Node) bool {
	switch nd.Op.Kind {
	case algebra.OpSelect, algebra.OpProject, algebra.OpFun, algebra.OpRowID:
		return true
	case algebra.OpRowNum:
		return nd.Const1
	}
	return false
}

// discoverUnits finds the plan's multi-operator execution units: first
// the theta joins (thetajoin.go), then the maximal fusable chains among
// the nodes no theta join claimed. Both searches share one pair of
// consumer maps, and a theta join's ⊛ and σ are withheld from chain
// formation — a node belongs to at most one unit. Each theta join also
// records which of its output columns its consumers read (Demand), and
// one whose pairs are only counted claims the π, δ and count above it.
//
// plan.Nodes is in bottom-up topological order, so a forward greedy walk
// from the first unclaimed fusable node always starts at the true head
// of its maximal chain. A chain grows from cur to its consumer next iff
//
//   - cur has exactly one consuming edge (otherwise an operator outside
//     the chain would need cur's output, which has no scheduler slot),
//   - next is fusable and consumes cur as its data input, and
//   - next is not a mark (ϱ́) after a filter: mark numbers the rows it
//     sees 1..n, so its input positions must be undisturbed — a mark may
//     be followed by filters inside a chain, never preceded by one.
//
// The mark rule and the FusedMinRows gate date from a fused executor
// that ran chains as one vectorized loop; they are kept so that chain
// shapes — the physical.chains count and the .dot goldens — stay fixed.
// Chains shorter than two members buy nothing, and chains whose head is
// statically known to process fewer than FusedMinRows rows are skipped
// outright (the tiny-input fast path).
func discoverUnits(p *Plan) {
	consumers := make(map[*Node]int, len(p.Nodes))
	nextOf := make(map[*Node]*Node, len(p.Nodes))
	for _, nd := range p.Nodes {
		for _, c := range nd.In {
			consumers[c]++
			nextOf[c] = nd
		}
	}
	claimed := make(map[*Node]bool)
	for _, nd := range p.Nodes {
		if tj := matchThetaJoin(nd, consumers); tj != nil {
			tj.ID = len(p.ThetaJoins) + 1
			p.ThetaJoins = append(p.ThetaJoins, tj)
			matchCountTail(tj, consumers, nextOf)
			for _, m := range tj.Members()[1:] {
				claimed[m] = true
			}
		}
	}
	demandThetaJoins(p)
	reestimate(p)
	for _, nd := range p.Nodes {
		if claimed[nd] || !fusable(nd) || len(nd.In) != 1 {
			continue
		}
		if nd.EstRows >= 0 && nd.EstRows < FusedMinRows {
			continue
		}
		members := []*Node{nd}
		hasFilter := nd.Op.Kind == algebra.OpSelect
		cur := nd
		for consumers[cur] == 1 {
			next := nextOf[cur]
			if !fusable(next) || len(next.In) != 1 || next.In[0] != cur || claimed[next] {
				break
			}
			if next.Op.Kind == algebra.OpRowID && hasFilter {
				break
			}
			members = append(members, next)
			if next.Op.Kind == algebra.OpSelect {
				hasFilter = true
			}
			cur = next
		}
		if len(members) < 2 {
			continue
		}
		for _, m := range members {
			claimed[m] = true
		}
		p.Chains = append(p.Chains, &FusedChain{ID: len(p.Chains) + 1, Nodes: members})
	}
}
