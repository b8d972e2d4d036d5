// Package physical lowers the logical algebra DAG (internal/algebra) into
// a physical plan of operator kernels: one node per logical operator,
// each with its kernel family, a cardinality estimate, the theta joins
// the executor may run as one unit and the ε that stream their trees.
// Which kernel of a family runs — merge or hash join, which ϱ numbering
// path — is not decided here: internal/engine looks at the key columns
// when the node runs. An operator kind is either pipeline (its output is
// a selection vector over a shared base table, never materialized) or a
// breaker (its output is a standalone table). The lowering is 1:1 per
// logical operator, so the engine's DAG memoization carries over
// unchanged.
package physical

import "pathfinder/internal/algebra"

// Node is one physical operator: the logical operator it implements, the
// kernel family it lowers to, and the lowering decisions the executor
// acts on. Where a family has several kernels the executor picks one per
// execution from its inputs (a ⋈ whose int keys ascend merges, one whose
// keys do not hashes) and reports it through the evaluation trace, not
// here.
type Node struct {
	Op     *algebra.Op
	In     []*Node
	Kernel string // kernel family, e.g. "join", "rownum", "staircase"
	Pos    int    // position in Plan.Nodes: the executor's result slot

	// Parallel is never set: the executor runs every kernel as one
	// sequential loop.
	//
	// Deprecated: benchmark/inproc.go is its last reader; the
	// benchmark-only change of ROADMAP item 1 deletes the field with it.
	Parallel bool
	// Stream marks an ε whose elements only the serializer reads (see
	// markStreams): the executor registers its trees as a streamed
	// fragment that writes their bytes on demand and builds none.
	Stream bool
	// EstRows is the statically estimated output cardinality (an upper
	// bound derived from literal table sizes); -1 when unknown — any
	// operator downstream of a location step, whose fan-out the lowering
	// pass cannot see.
	EstRows int64
}

// Plan is a lowered physical plan: nodes in bottom-up topological order
// (children before parents, root last), one node per distinct logical
// operator.
type Plan struct {
	Root  *Node
	Nodes []*Node

	// Chains has one element per operator chain the lowering used to
	// form (countChains). Nothing runs them: every node is its own
	// execution unit.
	//
	// Deprecated: benchmark/inproc.go is its last reader; the
	// benchmark-only change of ROADMAP item 1 deletes the field with it.
	Chains []struct{}

	// ThetaJoins are the σ(⊛cmp(×)) units the executor may run as one
	// sort-based inequality join (see thetajoin.go), in discovery order:
	// the only units of more than one node. They are metadata, not a
	// rewrite: the three members stay in Nodes, and executing them one
	// by one gives the identical result.
	ThetaJoins []*ThetaJoin
}

// EstCost is the admission controller's memory proxy: the sum of the
// plan's estimated intermediate cardinalities across all operators.
// Operators with unknown cardinality (EstRows < 0 — anything downstream
// of a location step, range, or text or attribute constructor) are charged unknownRows
// each, so a plan's cost grows with both its known materialization and
// the number of opaque fan-out points it contains. The absolute numbers
// are a pessimistic currency, not a prediction; admission only needs
// heavy join plans to price far above point lookups.
//
// A count-only theta join is charged once, as a unit (ThetaJoin.EstCost):
// unless it is demoted at run time its members never run one by one, and
// the product they would be charged for never exists.
func (p *Plan) EstCost(unknownRows int64) int64 {
	var cost int64
	charge := func(rows int64) {
		if rows < 0 {
			rows = unknownRows
		}
		cost += rows
	}
	var unit map[*Node]bool
	for _, tj := range p.ThetaJoins {
		if tj.Count == nil {
			continue
		}
		if unit == nil {
			unit = make(map[*Node]bool)
		}
		for _, m := range tj.Members() {
			unit[m] = true
		}
		charge(tj.EstCost())
	}
	for _, nd := range p.Nodes {
		if !unit[nd] {
			charge(nd.EstRows)
		}
	}
	return cost
}

// Breakers counts the plan's pipeline breakers — operators whose output
// must be materialized as a fresh table rather than streamed as a view
// over shared base vectors. Fewer breakers is the physical payoff of
// join graph isolation: every rownum tower the optimizer removes takes
// its sort + materialization with it. Reported by `pf -show explain`
// and the plan benchmark.
func (p *Plan) Breakers() int {
	n := 0
	for _, nd := range p.Nodes {
		if !Pipeline(nd.Op.Kind) {
			n++
		}
	}
	return n
}

// Pipeline reports whether operators of kind k produce a view — a
// selection vector or a cheap column extension over shared base vectors
// — rather than a materialized table.
func Pipeline(k algebra.OpKind) bool {
	switch k {
	case algebra.OpProject, algebra.OpSelect, algebra.OpDiff, algebra.OpSemiJoin,
		algebra.OpRowID, algebra.OpFun, algebra.OpDoc, algebra.OpRoots:
		return true
	}
	return false
}

// Lower compiles the logical DAG rooted at root into a physical plan.
// Shared logical subplans become shared physical nodes, preserving the
// exactly-once evaluation guarantee.
func Lower(root *algebra.Op) *Plan {
	order := algebra.Topo(root)
	byOp := make(map[*algebra.Op]int, len(order))
	nodes := make([]*Node, len(order))
	// The nodes and their input lists are carved from two arrays: a plan
	// is lowered once and lives as long as all of its nodes.
	slab := make([]Node, len(order))
	edges := 0
	for _, o := range order {
		edges += len(o.In)
	}
	ins := make([]*Node, edges)
	constructs := false
	for i, o := range order {
		nd := &slab[i]
		nd.Op, nd.Pos, nd.In, ins = o, i, ins[:len(o.In):len(o.In)], ins[len(o.In):]
		for k, c := range o.In {
			nd.In[k] = nodes[byOp[c]]
		}
		lowerOp(nd)
		byOp[o] = i
		nodes[i] = nd
		constructs = constructs || o.Kind == algebra.OpElem
	}
	p := &Plan{Root: nodes[byOp[root]], Nodes: nodes}
	if constructs {
		markStreams(nodes, byOp)
	}
	consumers := make(map[*Node]int, len(nodes))
	nextOf := make(map[*Node]*Node, len(nodes))
	for _, nd := range nodes {
		for _, c := range nd.In {
			consumers[c]++
			nextOf[c] = nd
		}
	}
	discoverThetaJoins(p, consumers, nextOf)
	p.Chains = make([]struct{}, countChains(p, consumers, nextOf))
	return p
}

// lowerOp names the kernel family of a node whose operator and inputs
// are in place, and estimates its cardinality.
func lowerOp(nd *Node) {
	o := nd.Op
	switch o.Kind {
	case algebra.OpLit:
		nd.Kernel = "scan"
	case algebra.OpProject:
		nd.Kernel = "project"
	case algebra.OpSelect:
		nd.Kernel = "filter"
	case algebra.OpUnion:
		nd.Kernel = "concat"
	case algebra.OpDiff:
		nd.Kernel = "antijoin"
	case algebra.OpDistinct:
		nd.Kernel = "distinct"
	case algebra.OpJoin:
		nd.Kernel = "join"
	case algebra.OpSemiJoin:
		nd.Kernel = "semijoin"
	case algebra.OpCross:
		nd.Kernel = "nested-product"
	case algebra.OpRowNum:
		nd.Kernel = "rownum"
	case algebra.OpRowID:
		nd.Kernel = "mark"
	case algebra.OpFun:
		nd.Kernel = "map[" + o.Fun.String() + "]"
	case algebra.OpAggr:
		nd.Kernel = "aggr[" + o.Agg.String() + "]"
	case algebra.OpStep:
		nd.Kernel = "staircase"
	case algebra.OpDoc:
		nd.Kernel = "doc"
	case algebra.OpRoots:
		nd.Kernel = "roots"
	case algebra.OpElem:
		nd.Kernel = "elem"
	case algebra.OpText:
		nd.Kernel = "text"
	case algebra.OpAttrC:
		nd.Kernel = "attr"
	case algebra.OpRange:
		nd.Kernel = "range"
	case algebra.OpColl:
		nd.Kernel = "collection"
	default:
		nd.Kernel = o.Kind.String()
	}
	nd.EstRows = estRows(o, nd)
}

// estRows propagates output-cardinality upper bounds bottom-up from
// literal table sizes. Location steps, ranges, and the text and attribute
// constructors have data-dependent fan-out the lowering pass cannot see;
// they (and anything downstream of them) report -1.
func estRows(o *algebra.Op, nd *Node) int64 {
	in := func(i int) int64 {
		if i >= len(nd.In) {
			return -1
		}
		return nd.In[i].EstRows
	}
	switch o.Kind {
	case algebra.OpLit:
		return int64(o.Lit.Rows())
	case algebra.OpProject, algebra.OpFun, algebra.OpRowNum, algebra.OpRowID,
		algebra.OpDoc, algebra.OpRoots, algebra.OpSelect, algebra.OpDistinct,
		algebra.OpSemiJoin, algebra.OpDiff:
		// Pass-through and filtering operators: the input size bounds the
		// output.
		return in(0)
	case algebra.OpUnion:
		l, r := in(0), in(1)
		if l < 0 || r < 0 {
			return -1
		}
		return l + r
	case algebra.OpCross, algebra.OpJoin:
		l, r := in(0), in(1)
		if l < 0 || r < 0 {
			return -1
		}
		if l > 0 && r > int64(1)<<40/l { // saturate instead of overflowing
			return int64(1) << 40
		}
		return l * r
	case algebra.OpAggr:
		if o.Part == "" {
			return 1
		}
		return in(0)
	case algebra.OpElem:
		// One element per row of the root input, whatever the slots hold.
		return in(0)
	}
	// OpStep, OpRange, OpColl, OpText, OpAttrC: data-dependent fan-out.
	return -1
}

// reestimate redoes the cardinality estimates downstream of the
// count-only theta joins: each
// pinned its Count to the outer side's estimate after the nodes above it
// had been lowered from the product's.
func reestimate(p *Plan) {
	var pinned map[*Node]bool
	for _, tj := range p.ThetaJoins {
		if tj.Count != nil {
			if pinned == nil {
				pinned = make(map[*Node]bool)
			}
			pinned[tj.Count] = true
		}
	}
	if pinned == nil {
		return
	}
	for _, nd := range p.Nodes {
		if !pinned[nd] {
			nd.EstRows = estRows(nd.Op, nd)
		}
	}
}
