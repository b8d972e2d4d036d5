// Package physical lowers the logical algebra DAG (internal/algebra) into
// a physical plan of operator kernels: a node per logical operator, each
// with its kernel family and a cardinality estimate, except that a theta
// join — σ(⊛cmp(×)), and the π, δ and count above it when they only count
// its pairs — is one node for all of its operators (thetajoin.go). Which
// kernel of a family runs — merge or hash join, which ϱ numbering path —
// is not decided here: internal/engine looks at the key columns when the
// node runs. An operator kind is either pipeline (its output is a
// selection vector over a shared base table, never materialized) or a
// breaker (its output is a standalone table). Shared logical subplans
// lower to shared nodes, so each runs once per evaluation.
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

	// Theta is set on a node of family "thetajoin" or "thetacount": the
	// predicate it joins on and the operators it covers. Op is then the
	// covered operator whose output is the node's (σ, or the count), and
	// In are the nodes of ×'s inputs.
	Theta *ThetaJoin

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

// Schema is the node's output columns: its operator's schema, or for a
// theta join that emits its pairs the part its consumers read.
func (nd *Node) Schema() []string {
	if nd.Theta != nil && nd.Theta.Count == nil {
		return nd.Theta.Demand
	}
	return nd.Op.Schema()
}

// Plan is a lowered physical plan: nodes in bottom-up topological order
// (children before parents, root last), one node per distinct logical
// operator or theta join.
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
}

// EstCost is the admission controller's memory proxy: the sum of the
// plan's estimated intermediate cardinalities across all nodes. Nodes
// with unknown cardinality (EstRows < 0 — anything downstream of a
// location step, range, or text or attribute constructor) are charged
// unknownRows each, so a plan's cost grows with both its known
// materialization and the number of opaque fan-out points it contains.
// The absolute numbers are a pessimistic currency, not a prediction;
// admission only needs heavy join plans to price far above point
// lookups. A theta join is one node and is charged once.
func (p *Plan) EstCost(unknownRows int64) int64 {
	var cost int64
	for _, nd := range p.Nodes {
		rows := nd.EstRows
		if rows < 0 {
			rows = unknownRows
		}
		cost += rows
	}
	return cost
}

// Breakers counts the plan's pipeline breakers — nodes whose output
// must be materialized as a fresh table rather than streamed as a view
// over shared base vectors. Fewer breakers is the physical payoff of
// join graph isolation: every rownum tower the optimizer removes takes
// its sort + materialization with it. Reported by `pf -show explain`
// and the plan benchmark.
func (p *Plan) Breakers() int {
	n := 0
	for _, nd := range p.Nodes {
		if !nd.pipeline() {
			n++
		}
	}
	return n
}

// pipeline reports whether the node's output is a view over its input's
// vectors; a theta join gathers its pairs, whatever its Op.
func (nd *Node) pipeline() bool { return nd.Theta == nil && Pipeline(nd.Op.Kind) }

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
// exactly-once evaluation guarantee. The analyses run over the logical
// operators in topological order, on slices indexed by position: no map
// beyond the one that finds an operator's position.
func Lower(root *algebra.Op) *Plan {
	order := algebra.Topo(root)
	n := len(order)
	index := make(map[*algebra.Op]int, n)
	edges := 0
	for i, o := range order {
		index[o] = i
		edges += len(o.In)
	}
	// consumers[i] counts the edges that read order[i], next[i] is the
	// position of the last operator to read it.
	uses := make([]int32, 2*n)
	consumers, next := uses[:n:n], uses[n:]
	for i, o := range order {
		for _, c := range o.In {
			k := index[c]
			consumers[k]++
			next[k] = int32(i)
		}
	}
	own := foldThetaJoins(order, index, consumers, next)

	// at is the node of each position, nil for an operator a theta join
	// covers. Without theta joins every position has its node and Nodes
	// is at itself; the nodes and their input lists are carved from two
	// arrays, since a plan is lowered once and lives as long as all of
	// its nodes.
	at := make([]*Node, n)
	nodes, built := at[:0], n
	if own != nil {
		for i, tj := range own {
			if tj != nil && order[i] != tj.out() {
				built--
			}
		}
		nodes = make([]*Node, 0, built)
	}
	slab := make([]Node, built)
	ins := make([]*Node, edges)
	constructs := false
	for i, o := range order {
		var tj *ThetaJoin
		if own != nil {
			tj = own[i]
		}
		src := o.In
		if tj != nil {
			if o != tj.out() {
				continue
			}
			src = tj.Cross.In
		}
		nd := &slab[len(nodes)]
		nd.Op, nd.Pos, nd.Theta = o, len(nodes), tj
		nd.In, ins = ins[:len(src):len(src)], ins[len(src):]
		for k, c := range src {
			nd.In[k] = at[index[c]]
		}
		lowerOp(nd)
		at[i] = nd
		nodes = append(nodes, nd)
		constructs = constructs || o.Kind == algebra.OpElem
	}
	p := &Plan{Root: at[index[root]], Nodes: nodes}
	if constructs {
		markStreams(order, index, at)
	}
	p.Chains = make([]struct{}, countChains(at, consumers, next))
	return p
}

// lowerOp names the kernel family of a node whose operator and inputs
// are in place, and estimates its cardinality.
func lowerOp(nd *Node) {
	o := nd.Op
	if tj := nd.Theta; tj != nil {
		// A count-only join has at most one row per outer row; one that
		// emits its pairs is bounded by the product, as σ over × is.
		nd.Kernel, nd.EstRows = "thetajoin", estRows(tj.Cross, nd)
		if tj.Count != nil {
			nd.Kernel, nd.EstRows = "thetacount", nd.In[0].EstRows
		}
		return
	}
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
