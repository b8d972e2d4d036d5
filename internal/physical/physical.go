// Package physical lowers the logical algebra DAG (internal/algebra) into
// a physical plan of typed operator kernels. The lowering pass consults
// the optimizer's order/denseness properties (internal/opt) to choose the
// kernel for each operator statically — merge join when both inputs are
// sorted on the key, hash join otherwise; a constant or presorted fast
// path for ϱ when the partition column is dense or the input is already
// in numbering order — and classifies operators as pipeline (their output
// is a selection vector over a shared base table, never materialized) or
// breakers (their output is a standalone table). internal/engine executes
// the physical plan; the lowering is 1:1 per logical operator, so the
// engine's DAG memoization and the parallel scheduler carry over
// unchanged.
package physical

import (
	"strings"

	"pathfinder/internal/algebra"
	"pathfinder/internal/opt"
)

// Node is one physical operator: the logical operator it implements, the
// statically chosen kernel, and the lowering decisions the executor acts
// on. The executor may refine the kernel at runtime (e.g. a hash join
// discovers both key columns are typed int vectors); the refinement is
// reported through the evaluation trace, not here.
type Node struct {
	Op     *algebra.Op
	In     []*Node
	Kernel string // statically chosen kernel name

	// Merge marks a join/semijoin lowered to the merge kernel: both
	// inputs are statically sorted on the (single) key column.
	Merge bool
	// Presorted marks a ϱ whose input is statically in (partition,
	// order...) order, so the sort and the runtime sortedness scan are
	// both skipped.
	Presorted bool
	// Const1 marks a ϱ whose partition column is dense (1..n): every
	// partition is a singleton and the numbering is constant 1.
	Const1 bool
	// Pipeline marks operators whose output stays a view — a selection
	// vector or cheap column extension over shared base vectors — rather
	// than a materialized table.
	Pipeline bool
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

	// Props are the inferred order/denseness properties of this
	// operator's output, carried along for plan rendering.
	Props opt.Props
}

// Plan is a lowered physical plan: nodes in bottom-up topological order
// (children before parents, root last), one node per distinct logical
// operator.
type Plan struct {
	Root  *Node
	Nodes []*Node

	// Chains has one element per operator chain the lowering used to
	// form (countChains). Nothing runs them: every node is its own
	// scheduler unit.
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
		if !nd.Pipeline {
			n++
		}
	}
	return n
}

// Lower compiles the logical DAG rooted at root into a physical plan.
// Shared logical subplans become shared physical nodes, preserving the
// exactly-once evaluation guarantee.
func Lower(root *algebra.Op) *Plan {
	order, props := opt.PlanProperties(root)
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
		nd.Op, nd.Props, nd.In, ins = o, props[i], ins[:len(o.In):len(o.In)], ins[len(o.In):]
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

// lowerOp chooses the kernel and execution flags of a node whose
// operator, properties and inputs are in place.
func lowerOp(nd *Node) {
	o := nd.Op
	switch o.Kind {
	case algebra.OpLit:
		nd.Kernel = "scan"
	case algebra.OpProject:
		nd.Kernel, nd.Pipeline = "project", true
	case algebra.OpSelect:
		nd.Kernel, nd.Pipeline = "filter", true
	case algebra.OpUnion:
		nd.Kernel = "concat"
	case algebra.OpDiff:
		nd.Kernel, nd.Pipeline = "antijoin", true
	case algebra.OpDistinct:
		nd.Kernel = "distinct"
	case algebra.OpJoin, algebra.OpSemiJoin:
		name := "join"
		if o.Kind == algebra.OpSemiJoin {
			name, nd.Pipeline = "semijoin", true
		}
		// Merge kernel: a single key with both sides statically sorted
		// on it. (The executor additionally requires typed int keys —
		// the iter/mark columns loop-lifting joins on — and demotes to
		// hash otherwise, since only there do sort order and hash-key
		// equality provably coincide.)
		if len(o.KeyL) == 1 &&
			nd.In[0].Props.SortedOn(o.KeyL[0]) &&
			nd.In[1].Props.SortedOn(o.KeyR[0]) {
			nd.Merge = true
			nd.Kernel = "merge-" + name
		} else {
			nd.Kernel = "hash-" + name
		}
	case algebra.OpCross:
		nd.Kernel = "nested-product"
	case algebra.OpRowNum:
		in := nd.In[0].Props
		switch {
		case o.Part != "" && in.DenseOn(o.Part):
			// Dense partition column: every partition is a singleton,
			// the input is already in partition order, and the numbering
			// is the constant 1 — the paper's "ϱ is a no-cost operator"
			// observation in its strongest form.
			nd.Const1 = true
			nd.Kernel = "rownum[const1]"
		case rowNumPresorted(o, in):
			nd.Presorted = true
			nd.Kernel = "rownum[presorted]"
		default:
			nd.Kernel = "rownum[sort]"
		}
	case algebra.OpRowID:
		nd.Kernel, nd.Pipeline = "mark", true
	case algebra.OpFun:
		nd.Kernel, nd.Pipeline = "map["+o.Fun.String()+"]", true
	case algebra.OpAggr:
		nd.Kernel = "aggr[" + o.Agg.String() + "]"
	case algebra.OpStep:
		nd.Kernel = "staircase"
	case algebra.OpDoc:
		nd.Kernel, nd.Pipeline = "doc", true
	case algebra.OpRoots:
		nd.Kernel, nd.Pipeline = "roots", true
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

// rowNumPresorted reports whether ϱ's input is statically guaranteed to
// already be in (partition, order...) order, all ascending.
func rowNumPresorted(o *algebra.Op, in opt.Props) bool {
	var need []string
	if o.Part != "" {
		need = append(need, o.Part)
	}
	for _, s := range o.Order {
		if s.Desc {
			return false
		}
		need = append(need, s.Col)
	}
	return in.SortedOn(need...)
}

// PropsNote renders the node's inferred properties compactly for plan
// displays; empty when nothing is known.
func (n *Node) PropsNote() string {
	var parts []string
	if len(n.Props.Sorted) > 0 {
		s := "sorted(" + strings.Join(n.Props.Sorted, ",") + ")"
		if n.Props.Strict {
			s = "key(" + strings.Join(n.Props.Sorted, ",") + ")"
		}
		parts = append(parts, s)
	}
	if len(n.Props.Dense) > 0 {
		parts = append(parts, "dense("+strings.Join(n.Props.Dense, ",")+")")
	}
	if n.Pipeline {
		parts = append(parts, "pipeline")
	}
	if n.Stream {
		parts = append(parts, "stream")
	}
	return strings.Join(parts, " ")
}
