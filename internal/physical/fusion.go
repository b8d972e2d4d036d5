package physical

import "pathfinder/internal/algebra"

// Pipeline fusion (the MonetDB→X100 evolution applied to our kernels):
// the loop-lifted plans are long chains of cheap per-row operators —
// filters, maps, projections, mark/rownum fast paths — and executing
// them one kernel at a time makes every link exchange a bat.View and
// pay a full-column gather whenever the previous link narrowed the
// selection. Lower identifies maximal chains of such operators and
// records them on the plan as FusedChain metadata; the executor runs a
// whole chain as a single loop over fixed-size vectors, carrying one
// selection vector from the chain's input to its boundary and
// materializing (at most) once.
//
// The chains are metadata, not a plan rewrite: every member keeps its
// Node (stats, Check, and the explain/dot output address members
// individually), and an executor that ignores Chains — or is told to
// via engine.Config{NoFusion} — runs the identical plan operator by
// operator. That keeps the plan cache shared between fused and unfused
// engines and makes -no-fusion a pure executor switch.

// FusedChain is one maximal fusable chain: Nodes[0] is the head (its
// data input is the chain's input), Nodes[len-1] the tail (its output is
// the chain's boundary). Interior members have exactly one consumer —
// the next member — so the selection vector threaded through the chain
// can never leak to an operator outside it.
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

// Parallel reports whether any member admits morsel decomposition — the
// executor then makes the whole chain the morsel work unit.
func (c *FusedChain) Parallel() bool {
	for _, nd := range c.Nodes {
		if nd.Parallel {
			return true
		}
	}
	return false
}

// FusedMinRows is the static gate below which chain formation is
// skipped: a point lookup whose cardinality is known to be tiny must
// pay zero fusion overhead (no vector buffers, no selection-vector
// allocation), so tiny inputs keep the plain per-operator path. Reusing
// the morsel gate keeps "tiny" meaning one thing across the executor.
const FusedMinRows = ParallelMinRows

// fusable reports whether a node may be a fused-chain member: a pure
// unary per-row operator whose kernel reads input rows independently.
// σ and π always qualify; ⊛ (map) qualifies for every function — the
// executor falls back to per-operator execution for combinations its
// lane kernels cannot reproduce; ϱ only on its const-1 fast path (the
// sort and presorted kernels need the whole partition); the mark
// operator qualifies but is position-sensitive — see discoverChains.
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
//   - cur has exactly one consuming edge (otherwise the selection vector
//     threaded past cur would leak to an operator outside the chain),
//   - next is fusable and consumes cur as its data input, and
//   - next is not a mark (ϱ́) after a filter: mark numbers the rows it
//     sees 1..n, so its input positions must be undisturbed — a mark may
//     be followed by filters inside a chain, never preceded by one.
//
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
