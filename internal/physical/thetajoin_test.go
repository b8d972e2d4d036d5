package physical

import (
	"slices"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// thetaShape builds σ_c(⊛fun c:(x,y)(A × B)) over A(a, a2) and B(b).
func thetaShape(fun algebra.FunKind, x, y string) (cross, fn, sel *algebra.Op) {
	n := 100
	l := algebra.Lit(bat.MustTable("a", bat.Ramp(0, n), "a2", bat.Ramp(5, n)))
	r := algebra.Lit(bat.MustTable("b", bat.Ramp(0, n)))
	cross = mustOp(algebra.Cross(l, r))
	fn = mustOp(algebra.Fun(cross, "c", fun, x, y))
	return cross, fn, mustOp(algebra.Select(fn, "c"))
}

// thetaNodes are p's theta-join nodes, in plan order.
func thetaNodes(p *Plan) []*Node {
	var out []*Node
	for _, nd := range p.Nodes {
		if nd.Theta != nil {
			out = append(out, nd)
		}
	}
	return out
}

// TestDiscoverThetaJoin: the σ(⊛cmp(×)) pattern is recognized for every
// inequality in either operand order, normalized to left-cmp-right, and
// folded into one node over ×'s inputs: × and ⊛ get no node.
func TestDiscoverThetaJoin(t *testing.T) {
	cases := []struct {
		fun          algebra.FunKind
		x, y         string
		wantL, wantR string
		wantCmp      algebra.FunKind
	}{
		{algebra.FunLt, "a", "b", "a", "b", algebra.FunLt},
		{algebra.FunLe, "a", "b", "a", "b", algebra.FunLe},
		{algebra.FunGt, "b", "a", "a", "b", algebra.FunLt},
		{algebra.FunGe, "b", "a2", "a2", "b", algebra.FunLe},
		{algebra.FunLt, "b", "a", "a", "b", algebra.FunGt},
		{algebra.FunLe, "b", "a", "a", "b", algebra.FunGe},
	}
	for _, c := range cases {
		cross, fn, sel := thetaShape(c.fun, c.x, c.y)
		root := mustOp(algebra.Project(sel, "a", "b"))
		p := Lower(root)
		thetas := thetaNodes(p)
		if len(thetas) != 1 {
			t.Fatalf("%s(%s,%s): %d theta joins, want 1", c.fun, c.x, c.y, len(thetas))
		}
		nd, tj := thetas[0], thetas[0].Theta
		if tj.Cross != cross || tj.Fun != fn || tj.Select != sel || nd.Op != sel || nd.Kernel != "thetajoin" {
			t.Errorf("%s(%s,%s): the node does not cover the plan's ×, ⊛, σ", c.fun, c.x, c.y)
		}
		if nd.In[0].Op != cross.In[0] || nd.In[1].Op != cross.In[1] {
			t.Errorf("%s(%s,%s): the node's inputs are not ×'s", c.fun, c.x, c.y)
		}
		if nodeOf(p, cross) != nil || nodeOf(p, fn) != nil || len(p.Nodes) != 4 {
			t.Errorf("%s(%s,%s): %d nodes, × or ⊛ among them", c.fun, c.x, c.y, len(p.Nodes))
		}
		for i, nd := range p.Nodes {
			if nd.Pos != i {
				t.Errorf("%s(%s,%s): node %d has slot %d", c.fun, c.x, c.y, i, nd.Pos)
			}
		}
		if tj.LeftCol != c.wantL || tj.RightCol != c.wantR || tj.Cmp != c.wantCmp {
			t.Errorf("%s(%s,%s): normalized to %s %s %s, want %s %s %s", c.fun, c.x, c.y,
				tj.LeftCol, tj.Cmp, tj.RightCol, c.wantL, c.wantCmp, c.wantR)
		}
	}
}

// TestDiscoverThetaJoinRejects: an equality or != predicate, operands
// from one × input, and a second consumer of the product or of the
// comparison all leave the three operators standalone.
func TestDiscoverThetaJoinRejects(t *testing.T) {
	for _, fun := range []algebra.FunKind{algebra.FunEq, algebra.FunNe} {
		_, _, sel := thetaShape(fun, "a", "b")
		if p := Lower(sel); len(thetaNodes(p)) != 0 {
			t.Errorf("⊛%s formed a theta join", fun)
		}
	}
	if _, _, sel := thetaShape(algebra.FunLt, "a", "a2"); len(thetaNodes(Lower(sel))) != 0 {
		t.Errorf("operands from one side formed a theta join")
	}
	cross, fn, sel := thetaShape(algebra.FunLt, "a", "b")
	pairs := mustOp(algebra.Project(sel, "a", "b"))
	for name, second := range map[string]*algebra.Op{"×": cross, "⊛": fn} {
		side := mustOp(algebra.Project(second, "a", "b"))
		if p := Lower(mustOp(algebra.Union(pairs, side))); len(thetaNodes(p)) != 0 {
			t.Errorf("a second consumer of %s did not prevent the theta join", name)
		}
	}
	// σ on a column other than the comparison's result.
	keep := algebra.Lit(bat.MustTable("a", bat.Ramp(0, 4), "k", make(bat.BoolVec, 4)))
	fn2 := mustOp(algebra.Fun(mustOp(algebra.Cross(keep, algebra.Lit(bat.MustTable("b", bat.Ramp(0, 4))))),
		"c", algebra.FunLt, "a", "b"))
	if p := Lower(mustOp(algebra.Select(fn2, "k"))); len(thetaNodes(p)) != 0 {
		t.Errorf("σ on a foreign column formed a theta join")
	}
}

// TestThetaJoinDemand: a unit read only through projections demands the
// columns they name, in σ's schema order; a consumer that is not a π, or
// σ being the plan's result, demands the whole schema.
func TestThetaJoinDemand(t *testing.T) {
	demand := func(root *algebra.Op) []string {
		t.Helper()
		p := Lower(root)
		thetas := thetaNodes(p)
		if len(thetas) != 1 {
			t.Fatalf("%d theta joins, want 1", len(thetas))
		}
		if got, want := thetas[0].Schema(), thetas[0].Theta.Demand; !slices.Equal(got, want) {
			t.Fatalf("the node's schema %v is not its demand %v", got, want)
		}
		return thetas[0].Theta.Demand
	}
	eq := func(got []string, want ...string) bool { return strings.Join(got, ",") == strings.Join(want, ",") }

	_, _, sel := thetaShape(algebra.FunLt, "a", "b")
	if got := demand(sel); !eq(got, "a", "a2", "b", "c") {
		t.Errorf("σ as the result demands %v, want its schema", got)
	}
	if got := demand(mustOp(algebra.Project(sel, "b", "x:a"))); !eq(got, "a", "b") {
		t.Errorf("π b,x:a demands %v, want [a b]", got)
	}
	// Two projections: the union of what they read.
	u := mustOp(algebra.Union(mustOp(algebra.Project(sel, "v:a")), mustOp(algebra.Project(sel, "v:a2"))))
	if got := demand(u); !eq(got, "a", "a2") {
		t.Errorf("π a ∪ π a2 demands %v, want [a a2]", got)
	}
	// A consumer other than π reads rows whole.
	d := mustOp(algebra.Union(mustOp(algebra.Project(sel, "a")), mustOp(algebra.Project(algebra.Distinct(sel), "a"))))
	if got := demand(d); !eq(got, "a", "a2", "b", "c") {
		t.Errorf("a δ consumer demands %v, want σ's schema", got)
	}
}

// countShape builds count c:()/by(δ(π by:li,of:ri(σ(lk < rk)(L × R)))) over
// L(li, lk) of nl rows and R(ri, rk) of nr rows, and returns δ and count.
func countShape(nl, nr int) (dist, cnt *algebra.Op) {
	l := algebra.Lit(bat.MustTable("li", bat.Ramp(1, nl), "lk", bat.Ramp(0, nl)))
	r := algebra.Lit(bat.MustTable("ri", bat.Ramp(1, nr), "rk", bat.Ramp(0, nr)))
	fn := mustOp(algebra.Fun(mustOp(algebra.Cross(l, r)), "c", algebra.FunLt, "lk", "rk"))
	dist = algebra.Distinct(mustOp(algebra.Project(mustOp(algebra.Select(fn, "c")), "of:ri", "by:li")))
	return dist, mustOp(algebra.Aggr(dist, "n", algebra.AggCount, "", "by"))
}

// TestDiscoverCountTail: a theta join read only by π → δ → count/by
// covers those three operators too, is one node priced at its outer
// side's cardinality instead of a product, and hands that cardinality
// downstream.
func TestDiscoverCountTail(t *testing.T) {
	const nl, nr = 300, 5000
	dist, cnt := countShape(nl, nr)
	root := mustOp(algebra.Project(cnt, "iter:by", "n"))
	p := Lower(root)
	thetas := thetaNodes(p)
	if len(thetas) != 1 || thetas[0].Theta.Count == nil {
		t.Fatalf("no count-only theta join in:\n%s", Dot(p, nil))
	}
	nd, tj := thetas[0], thetas[0].Theta
	if tj.CountBy != "li" || tj.CountOf != "ri" || nd.Op != cnt || tj.Distinct != dist || nd.Kernel != "thetacount" {
		t.Errorf("node counts %q by %q as %s, output %s", tj.CountOf, tj.CountBy, nd.Kernel, nd.Op.Label())
	}
	if tj.Demand != nil || !slices.Equal(nd.Schema(), cnt.Schema()) {
		t.Errorf("count-only node demands %v, outputs %v", tj.Demand, nd.Schema())
	}
	// Both literals, the node, the π above it.
	if len(p.Nodes) != 4 {
		t.Errorf("%d nodes, want 4:\n%s", len(p.Nodes), Dot(p, nil))
	}
	// One row per outer row at most — for the node and for what reads it.
	if nd.EstRows != nl || p.Root.EstRows != nl {
		t.Errorf("count estimated at %d rows, its consumer at %d, want the outer side's %d", nd.EstRows, p.Root.EstRows, nl)
	}
	if got, want := p.EstCost(1<<20), int64(nl+nr+nl+nl); got != want {
		t.Errorf("plan priced at %d, want %d — the product (%d rows) must not be charged", got, want, nl*nr)
	}
	if dot := Dot(p, nil); !strings.Contains(dot, `thetacount lk lt rk`) {
		t.Errorf("dot output does not draw the count-only node with its predicate:\n%s", dot)
	}
}

// TestDiscoverCountTailRejects: a second reader of σ, π or δ, a π that
// keeps anything but one column of each side, and an aggregate that is not
// a count by the left side's column each leave a pair-emitting unit.
func TestDiscoverCountTailRejects(t *testing.T) {
	pairUnit := func(name string, root *algebra.Op) {
		t.Helper()
		thetas := thetaNodes(Lower(root))
		if len(thetas) != 1 || thetas[0].Theta.Count != nil {
			t.Errorf("%s: want one pair-emitting theta join, got %d node(s), count-only %v",
				name, len(thetas), len(thetas) == 1 && thetas[0].Theta.Count != nil)
		}
	}
	dist, cnt := countShape(40, 40)
	pairUnit("δ read twice", mustOp(algebra.Union(mustOp(algebra.Project(cnt, "by")), mustOp(algebra.Project(dist, "by")))))
	pairUnit("δ is the result", dist)

	proj, sel := dist.In[0], dist.In[0].In[0]
	pairUnit("π read twice", mustOp(algebra.Union(mustOp(algebra.Project(cnt, "by")), mustOp(algebra.Project(proj, "by")))))
	pairUnit("σ read twice", mustOp(algebra.Union(mustOp(algebra.Project(cnt, "by")), mustOp(algebra.Project(sel, "by:li")))))

	count := func(part string, specs ...string) *algebra.Op {
		return mustOp(algebra.Aggr(algebra.Distinct(mustOp(algebra.Project(sel, specs...))), "n", algebra.AggCount, "", part))
	}
	pairUnit("count by the right side's column", count("of", "by:li", "of:ri"))
	pairUnit("π keeps two left columns", count("by", "by:li", "of:lk"))
	pairUnit("π keeps three columns", count("by", "by:li", "of:ri", "rk"))
	sum := mustOp(algebra.Aggr(dist, "n", algebra.AggSum, "of", "by"))
	pairUnit("sum, not count", sum)
}
