package check

import (
	"fmt"
	"strings"

	"pathfinder/internal/algebra"
	"pathfinder/internal/opt"
	"pathfinder/internal/physical"
)

// Physical plan validation: the lowering pass (internal/physical) makes
// decisions the executor acts on without looking again — the result
// slot of every node, the theta joins it folds into one band-join node,
// the ε it streams. This pass re-proves each from the logical DAG, so a
// lowering bug surfaces as a diagnostic instead of a quietly wrong
// answer. It also audits the order/denseness properties the optimizer
// publishes for the plan (opt.PlanProperties), one per node. Which
// kernel of a family runs (merge or hash ⋈, the ϱ numbering paths) is
// the executor's to pick from the data, and no claim of the plan's.

// Physical validates a lowered plan: structural consistency between the
// physical node graph and the logical DAG, the justification of every
// lowering decision, and the audit of the optimizer's properties.
func Physical(p *physical.Plan) []Diag {
	if p == nil || p.Root == nil || len(p.Nodes) == 0 {
		return []Diag{{Class: "structure", Op: "#? plan", Msg: "empty physical plan"}}
	}
	return physicalPlan(newWalker(p.Root.Op), p)
}

// planProperties is opt.PlanProperties, the derivation physicalPlan
// audits; a test seam forges claims through it.
var planProperties = opt.PlanProperties

// physicalPlan is Physical over a walk of p's logical DAG.
func physicalPlan(w *walker, p *physical.Plan) []Diag {
	diags := physStructure(w, p)
	for _, nd := range p.Nodes {
		if nd.Op != nil && nd.EstRows < -1 {
			diags = append(diags, Diag{Class: "physical", Op: w.name(nd.Op),
				Msg: fmt.Sprintf("EstRows %d is neither unknown (-1) nor a cardinality bound", nd.EstRows)})
		}
	}
	g := rederive(w.order)
	ops, props := planProperties(p.Root.Op)
	for i, o := range ops {
		diags = append(diags, justifyProps(w, o, props[i], g[o])...)
	}
	diags = append(diags, physThetaJoins(w, p)...)
	diags = append(diags, physStreams(w, p)...)
	return diags
}

// physThetaJoins re-proves every theta-join node the lowering folded.
// The executor runs the node's ×, ⊛ and σ as a band join over ×'s inputs
// that emits only the pairs σ lets through, so each claim is a
// correctness precondition: a second consumer of × or ⊛ would be handed
// rows that were never built, a predicate other than <, ≤, >, ≥ has no
// band to search, two operands from one × input are a per-row filter and
// not a join, a σ on any other column filters by something the kernel
// never computed, and a node that reads anything but ×'s inputs joins
// other rows.
//
// A node that claims a count-only tail answers π → δ → count from the
// band widths and builds no pair, so the same goes for its tail: any
// other reader of σ, π or δ would find no rows, a π keeping anything but
// one column of each × input leaves δ merging pairs the kernel counts
// apart, and a count partitioned by anything but the left input's column
// groups differently from the kernel's walk over the outer rows.
func physThetaJoins(w *walker, p *physical.Plan) []Diag {
	var diags []Diag
	var uses map[*algebra.Op]int // consuming edges per logical operator
	for _, nd := range p.Nodes {
		tj := nd.Theta
		if tj == nil || nd.Op == nil {
			continue
		}
		bad := func(o *algebra.Op, msg string, args ...any) {
			diags = append(diags, Diag{Class: "thetajoin", Op: w.name(o), Msg: fmt.Sprintf(msg, args...)})
		}
		if uses == nil {
			uses = make(map[*algebra.Op]int, len(w.order))
			for _, o := range w.order {
				for _, in := range o.In {
					uses[in]++
				}
			}
		}
		cross, fn, sel := tj.Cross, tj.Fun, tj.Select
		if cross == nil || fn == nil || sel == nil ||
			cross.Kind != algebra.OpCross || fn.Kind != algebra.OpFun || sel.Kind != algebra.OpSelect ||
			fn.In[0] != cross || sel.In[0] != fn {
			bad(nd.Op, "theta join node does not cover a σ over a ⊛ over a ×")
			continue
		}
		if len(nd.In) != 2 || nd.In[0] == nil || nd.In[1] == nil || nd.In[0].Op != cross.In[0] || nd.In[1].Op != cross.In[1] {
			bad(nd.Op, "theta join node does not read the inputs of its × — the band kernel would join other rows")
			continue
		}
		family, out := "thetajoin", sel
		if tj.Count != nil || tj.Project != nil || tj.Distinct != nil {
			if msg := countTailFlaw(nd, uses); msg != "" {
				bad(sel, "theta join claims a count-only tail, but %s", msg)
				continue
			}
			family, out = "thetacount", tj.Count
		}
		if nd.Op != out || nd.Kernel != family {
			bad(nd.Op, "theta join node runs %s for %s; its operators make it %s for %s", nd.Kernel, w.name(nd.Op), family, w.name(out))
		}
		for _, o := range []*algebra.Op{cross, fn} {
			if uses[o] != 1 {
				bad(o, "operator covered by a theta join has %d consumer(s) — the node never builds the rows the others would read", uses[o])
			}
		}
		if sel.Col != fn.Col {
			bad(sel, "σ of a theta join selects on %q, not on the comparison result %q", sel.Col, fn.Col)
		}
		fun, args := fn.Fun, fn.Args
		if mirrored(fun) == fun || len(args) != 2 {
			bad(fn, "theta join over the %d-operand predicate %s, which is no inequality — there is no band to search", len(args), fun)
			continue
		}
		// The claim reads LeftCol Cmp RightCol; the plan computes one of
		// the two operand orders.
		l, r := cross.In[0], cross.In[1]
		want := [3]string{args[0], fun.String(), args[1]}
		switch {
		case l.HasCol(args[0]) && r.HasCol(args[1]):
		case r.HasCol(args[0]) && l.HasCol(args[1]):
			want = [3]string{args[1], mirrored(fun).String(), args[0]}
		default:
			bad(fn, "theta join compares %q with %q, which do not come from opposite × inputs", args[0], args[1])
			continue
		}
		if got := [3]string{tj.LeftCol, tj.Cmp.String(), tj.RightCol}; got != want {
			bad(fn, "theta join claims %v, the plan computes %v", got, want)
		}
		// The band kernel builds only the demanded columns: one the claim
		// leaves out and a consumer reads would be missing at run time. A
		// count-only node demands nothing: its output is the count's.
		read := thetaColumnsRead(p, nd)
		if tj.Count != nil {
			read = nil
		}
		if strings.Join(tj.Demand, ",") != strings.Join(read, ",") {
			bad(nd.Op, "theta join claims its consumers read (%s), they read (%s)",
				strings.Join(tj.Demand, ","), strings.Join(read, ","))
		}
	}
	return diags
}

// countTailFlaw re-proves a theta-join node's count-only claim from the
// plan: the first way in which π, δ and count above σ are not what the
// kernel answers, or "" when they are. uses counts each logical
// operator's consuming edges.
func countTailFlaw(nd *physical.Node, uses map[*algebra.Op]int) string {
	tj := nd.Theta
	chain := []*algebra.Op{tj.Select, tj.Project, tj.Distinct, tj.Count}
	kinds := []algebra.OpKind{algebra.OpSelect, algebra.OpProject, algebra.OpDistinct, algebra.OpAggr}
	for i, o := range chain {
		if o == nil || o.Kind != kinds[i] {
			return fmt.Sprintf("it covers no %s there", kinds[i])
		}
		if i == 0 {
			continue
		}
		if o.In[0] != chain[i-1] {
			return fmt.Sprintf("%s does not read %s", kinds[i], kinds[i-1])
		}
		if uses[chain[i-1]] != 1 {
			return fmt.Sprintf("%s has %d consumers — the others would read pairs that were never built",
				kinds[i-1], uses[chain[i-1]])
		}
	}
	l, r := tj.Cross.In[0], tj.Cross.In[1]
	proj, cnt := tj.Project, tj.Count
	if len(proj.Proj) != 2 {
		return fmt.Sprintf("π keeps %d columns, not two", len(proj.Proj))
	}
	by, of := proj.Proj[0], proj.Proj[1]
	if by.Old != tj.CountBy {
		by, of = of, by
	}
	switch {
	case by.Old != tj.CountBy || of.Old != tj.CountOf:
		return fmt.Sprintf("π does not keep the claimed columns %q and %q", tj.CountBy, tj.CountOf)
	case !l.HasCol(tj.CountBy) || !r.HasCol(tj.CountOf):
		return fmt.Sprintf("%q and %q do not come from the left and the right × input", tj.CountBy, tj.CountOf)
	case cnt.Agg != algebra.AggCount:
		return fmt.Sprintf("the aggregate is %s, not count", cnt.Agg)
	case cnt.Part != by.New:
		return fmt.Sprintf("count is partitioned by %q, not by the left input's column %q", cnt.Part, by.New)
	case nd.EstRows != nd.In[0].EstRows:
		return fmt.Sprintf("count is estimated at %d rows, not the outer side's %d", nd.EstRows, nd.In[0].EstRows)
	}
	return ""
}

// thetaColumnsRead is the validator's own derivation of what the
// consumers of a theta-join node read of σ's schema, in that order: what
// their projections name — or everything, once any consumer is not a π
// or the node is the plan's result.
func thetaColumnsRead(p *physical.Plan, tn *physical.Node) []string {
	named := map[string]bool{}
	everything := tn == p.Root
	for _, nd := range p.Nodes {
		for _, in := range nd.In {
			if in != tn || nd.Op == nil {
				continue
			}
			if nd.Op.Kind != algebra.OpProject {
				everything = true
			}
			for _, pr := range nd.Op.Proj {
				named[pr.Old] = true
			}
		}
	}
	var read []string
	for _, c := range tn.Theta.Select.Schema() {
		if everything || named[c] {
			read = append(read, c)
		}
	}
	return read
}

// mirrored is the validator's own operand swap of an inequality; every
// other function is its own mirror image.
func mirrored(f algebra.FunKind) algebra.FunKind {
	switch f {
	case algebra.FunLt:
		return algebra.FunGt
	case algebra.FunLe:
		return algebra.FunGe
	case algebra.FunGt:
		return algebra.FunLt
	case algebra.FunGe:
		return algebra.FunLe
	}
	return f
}

// physStructure checks the node graph against the logical DAG: one node
// per logical operator — a theta join's node standing for every operator
// it covers — children lowered before parents, input pointers agreeing
// with the logical edges (×'s inputs for a theta join), root last.
func physStructure(w *walker, p *physical.Plan) []Diag {
	var diags []Diag
	pos := make(map[*physical.Node]int, len(p.Nodes))
	seenOp := make(map[*algebra.Op]bool, len(w.order))
	lowered := func(o *algebra.Op) {
		if seenOp[o] {
			diags = append(diags, Diag{Class: "structure", Op: w.name(o),
				Msg: "logical operator lowered to more than one physical node"})
		}
		seenOp[o] = true
	}
	for i, nd := range p.Nodes {
		pos[nd] = i
		if nd.Op == nil {
			diags = append(diags, Diag{Class: "structure", Op: fmt.Sprintf("#%d ?", i),
				Msg: "physical node without a logical operator"})
			continue
		}
		lowered(nd.Op)
		ins := nd.Op.In
		if tj := nd.Theta; tj != nil {
			for _, o := range []*algebra.Op{tj.Cross, tj.Fun, tj.Select, tj.Project, tj.Distinct, tj.Count} {
				if o != nil && o != nd.Op {
					lowered(o)
				}
			}
			if tj.Cross != nil {
				ins = tj.Cross.In
			}
		}
		if nd.Pos != i {
			diags = append(diags, Diag{Class: "structure", Op: w.name(nd.Op),
				Msg: fmt.Sprintf("node at position %d claims result slot %d", i, nd.Pos)})
		}
		if len(nd.In) != len(ins) {
			diags = append(diags, Diag{Class: "structure", Op: w.name(nd.Op),
				Msg: fmt.Sprintf("node has %d input(s), logical operator has %d", len(nd.In), len(ins))})
			continue
		}
		for k, c := range nd.In {
			if c == nil || c.Op != ins[k] {
				diags = append(diags, Diag{Class: "structure", Op: w.name(nd.Op),
					Msg: fmt.Sprintf("input %d does not lower the matching logical input", k)})
				continue
			}
			if cp, ok := pos[c]; !ok || cp >= i {
				diags = append(diags, Diag{Class: "structure", Op: w.name(nd.Op),
					Msg: fmt.Sprintf("input %d is not scheduled before its consumer (topological order broken)", k)})
			}
		}
	}
	if p.Nodes[len(p.Nodes)-1] != p.Root {
		diags = append(diags, Diag{Class: "structure", Op: w.name(p.Root.Op),
			Msg: "root is not the last node in execution order"})
	}
	for _, o := range w.order {
		if !seenOp[o] {
			diags = append(diags, Diag{Class: "structure", Op: w.name(o),
				Msg: "logical operator has no physical node"})
		}
	}
	return diags
}
