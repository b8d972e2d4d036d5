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
// slot of every node, the theta joins it runs as one band join, the ε it
// streams. This pass re-proves each from the logical DAG, so a lowering
// bug surfaces as a diagnostic instead of a quietly wrong answer. It
// also audits the order/denseness properties the optimizer publishes
// for the plan (opt.PlanProperties), one per node. Which kernel of a
// family runs (merge or hash ⋈, the ϱ numbering paths) is the
// executor's to pick from the data, and no claim of the plan's.

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
	consumers := make(map[*physical.Node]int, len(p.Nodes))
	isNode := make(map[*physical.Node]bool, len(p.Nodes))
	for _, nd := range p.Nodes {
		isNode[nd] = true
		for _, c := range nd.In {
			consumers[c]++
		}
	}
	diags = append(diags, physThetaJoins(w, p, isNode, consumers)...)
	diags = append(diags, physStreams(w, p)...)
	return diags
}

// physThetaJoins re-proves every theta join the lowering published. The
// executor replaces the unit's ×, ⊛ and σ by a band join that emits only
// the pairs σ lets through, so each claim is a correctness precondition:
// a second consumer of × or ⊛ would be handed rows that were never
// built, a predicate other than <, ≤, >, ≥ has no band to search, two
// operands from one × input are a per-row filter and not a join, and a σ
// on any other column filters by something the kernel never computed.
//
// A unit that claims a count-only tail answers π → δ → count from the
// band widths and builds no pair, so the same goes for its tail: any
// other reader of σ, π or δ would find no rows, a π keeping anything but
// one column of each × input leaves δ merging pairs the kernel counts
// apart, and a count partitioned by anything but the left input's column
// groups differently from the kernel's walk over the outer rows.
func physThetaJoins(w *walker, p *physical.Plan, isNode map[*physical.Node]bool, consumers map[*physical.Node]int) []Diag {
	var diags []Diag
	for _, tj := range p.ThetaJoins {
		bad := func(o *algebra.Op, msg string, args ...any) {
			diags = append(diags, Diag{Class: "thetajoin", Op: w.name(o), Msg: fmt.Sprintf(msg, args...)})
		}
		cross, fn, sel := tj.Cross, tj.Fun, tj.Select
		if cross == nil || fn == nil || sel == nil ||
			!isNode[cross] || !isNode[fn] || !isNode[sel] ||
			cross.Op.Kind != algebra.OpCross || fn.Op.Kind != algebra.OpFun || sel.Op.Kind != algebra.OpSelect ||
			fn.In[0] != cross || sel.In[0] != fn {
			diags = append(diags, Diag{Class: "thetajoin", Op: fmt.Sprintf("#? theta %d", tj.ID),
				Msg: "members are not a σ over a ⊛ over a × of this plan"})
			continue
		}
		if tj.Count != nil || tj.Project != nil || tj.Distinct != nil {
			if msg := countTailFlaw(tj, isNode, consumers); msg != "" {
				bad(sel.Op, "theta join #%d claims a count-only tail, but %s", tj.ID, msg)
				continue
			}
		}
		for _, nd := range []*physical.Node{cross, fn} {
			if consumers[nd] != 1 {
				bad(nd.Op, "interior member of theta join #%d has %d consumer(s) — the band kernel never builds the rows the others would read",
					tj.ID, consumers[nd])
			}
		}
		if sel.Op.Col != fn.Op.Col {
			bad(sel.Op, "σ of theta join #%d selects on %q, not on the comparison result %q", tj.ID, sel.Op.Col, fn.Op.Col)
		}
		fun, args := fn.Op.Fun, fn.Op.Args
		if mirrored(fun) == fun || len(args) != 2 {
			bad(fn.Op, "theta join #%d over the %d-operand predicate %s, which is no inequality — there is no band to search",
				tj.ID, len(args), fun)
			continue
		}
		// The claim reads LeftCol Cmp RightCol; the plan computes one of
		// the two operand orders.
		l, r := cross.Op.In[0], cross.Op.In[1]
		want := [3]string{args[0], fun.String(), args[1]}
		switch {
		case l.HasCol(args[0]) && r.HasCol(args[1]):
		case r.HasCol(args[0]) && l.HasCol(args[1]):
			want = [3]string{args[1], mirrored(fun).String(), args[0]}
		default:
			bad(fn.Op, "theta join #%d compares %q with %q, which do not come from opposite × inputs", tj.ID, args[0], args[1])
			continue
		}
		if got := [3]string{tj.LeftCol, tj.Cmp.String(), tj.RightCol}; got != want {
			bad(fn.Op, "theta join #%d claims %v, the plan computes %v", tj.ID, got, want)
		}
		// The band kernel builds only the demanded columns: one the claim
		// leaves out and a consumer reads would be missing at run time.
		if read := thetaColumnsRead(p, sel); strings.Join(tj.Demand, ",") != strings.Join(read, ",") {
			bad(sel.Op, "theta join #%d claims its consumers read (%s), they read (%s)",
				tj.ID, strings.Join(tj.Demand, ","), strings.Join(read, ","))
		}
	}
	return diags
}

// countTailFlaw re-proves a unit's count-only claim from the plan: the
// first way in which π, δ and count above σ are not what the kernel
// answers, or "" when they are.
func countTailFlaw(tj *physical.ThetaJoin, isNode map[*physical.Node]bool, consumers map[*physical.Node]int) string {
	chain := []*physical.Node{tj.Select, tj.Project, tj.Distinct, tj.Count}
	kinds := []algebra.OpKind{algebra.OpSelect, algebra.OpProject, algebra.OpDistinct, algebra.OpAggr}
	for i, nd := range chain {
		if nd == nil || nd.Op == nil || !isNode[nd] || nd.Op.Kind != kinds[i] {
			return fmt.Sprintf("its %s is not a node of this plan", kinds[i])
		}
		if i == 0 {
			continue
		}
		if nd.In[0] != chain[i-1] {
			return fmt.Sprintf("%s does not read %s", kinds[i], kinds[i-1])
		}
		if consumers[chain[i-1]] != 1 {
			return fmt.Sprintf("%s has %d consumers — the others would read pairs that were never built",
				kinds[i-1], consumers[chain[i-1]])
		}
	}
	l, r := tj.Cross.Op.In[0], tj.Cross.Op.In[1]
	proj, cnt := tj.Project.Op, tj.Count.Op
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
	case tj.Count.EstRows != tj.Cross.In[0].EstRows:
		return fmt.Sprintf("count is estimated at %d rows, not the outer side's %d", tj.Count.EstRows, tj.Cross.In[0].EstRows)
	}
	return ""
}

// thetaColumnsRead is the validator's own derivation of what the
// consumers of a theta join's σ read, in σ's schema order: what their
// projections name — or everything, once any consumer is not a π or σ is
// the plan's result.
func thetaColumnsRead(p *physical.Plan, sel *physical.Node) []string {
	named := map[string]bool{}
	everything := sel == p.Root
	for _, nd := range p.Nodes {
		for _, in := range nd.In {
			if in != sel || nd.Op == nil {
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
	for _, c := range sel.Op.Schema() {
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
// per logical operator, children lowered before parents, input pointers
// agreeing with the logical edges, root last.
func physStructure(w *walker, p *physical.Plan) []Diag {
	var diags []Diag
	pos := make(map[*physical.Node]int, len(p.Nodes))
	seenOp := make(map[*algebra.Op]bool, len(p.Nodes))
	for i, nd := range p.Nodes {
		pos[nd] = i
		if nd.Op == nil {
			diags = append(diags, Diag{Class: "structure", Op: fmt.Sprintf("#%d ?", i),
				Msg: "physical node without a logical operator"})
			continue
		}
		if seenOp[nd.Op] {
			diags = append(diags, Diag{Class: "structure", Op: w.name(nd.Op),
				Msg: "logical operator lowered to more than one physical node"})
		}
		seenOp[nd.Op] = true
		if nd.Pos != i {
			diags = append(diags, Diag{Class: "structure", Op: w.name(nd.Op),
				Msg: fmt.Sprintf("node at position %d claims result slot %d", i, nd.Pos)})
		}
		if len(nd.In) != len(nd.Op.In) {
			diags = append(diags, Diag{Class: "structure", Op: w.name(nd.Op),
				Msg: fmt.Sprintf("node has %d input(s), logical operator has %d", len(nd.In), len(nd.Op.In))})
			continue
		}
		for k, c := range nd.In {
			if c == nil || c.Op != nd.Op.In[k] {
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
