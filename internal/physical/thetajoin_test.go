package physical

import (
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// thetaShape builds σ_c(⊛fun c:(x,y)(A × B)) over A(a, a2) and B(b),
// wide enough that ⊛ and σ would clear the FusedMinRows gate.
func thetaShape(fun algebra.FunKind, x, y string) (cross, fn, sel *algebra.Op) {
	n := 100
	l := algebra.Lit(bat.MustTable("a", bat.Ramp(0, n), "a2", bat.Ramp(5, n)))
	r := algebra.Lit(bat.MustTable("b", bat.Ramp(0, n)))
	cross = mustOp(algebra.Cross(l, r))
	fn = mustOp(algebra.Fun(cross, "c", fun, x, y))
	return cross, fn, mustOp(algebra.Select(fn, "c"))
}

// TestDiscoverThetaJoin: the σ(⊛cmp(×)) unit is recognized for every
// inequality in either operand order, normalized to left-cmp-right, and
// its ⊛ and σ are withheld from chain formation.
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
		if len(p.ThetaJoins) != 1 {
			t.Fatalf("%s(%s,%s): %d theta joins, want 1", c.fun, c.x, c.y, len(p.ThetaJoins))
		}
		tj := p.ThetaJoins[0]
		if tj.Cross.Op != cross || tj.Fun.Op != fn || tj.Select.Op != sel {
			t.Errorf("%s(%s,%s): members are not the plan's ×, ⊛, σ", c.fun, c.x, c.y)
		}
		if tj.LeftCol != c.wantL || tj.RightCol != c.wantR || tj.Cmp != c.wantCmp {
			t.Errorf("%s(%s,%s): normalized to %s %s %s, want %s %s %s", c.fun, c.x, c.y,
				tj.LeftCol, tj.Cmp, tj.RightCol, c.wantL, c.wantCmp, c.wantR)
		}
		for _, ch := range p.Chains {
			for _, nd := range ch.Nodes {
				if nd == tj.Fun || nd == tj.Select {
					t.Errorf("%s(%s,%s): unit member also claimed by fused chain #%d", c.fun, c.x, c.y, ch.ID)
				}
			}
		}
	}
}

// TestDiscoverThetaJoinRejects: an equality or != predicate, operands
// from one × input, and a second consumer of the product or of the
// comparison all leave the three operators standalone.
func TestDiscoverThetaJoinRejects(t *testing.T) {
	for _, fun := range []algebra.FunKind{algebra.FunEq, algebra.FunNe} {
		_, _, sel := thetaShape(fun, "a", "b")
		if p := Lower(sel); len(p.ThetaJoins) != 0 {
			t.Errorf("⊛%s formed a theta join", fun)
		}
	}
	if _, _, sel := thetaShape(algebra.FunLt, "a", "a2"); len(Lower(sel).ThetaJoins) != 0 {
		t.Errorf("operands from one side formed a theta join")
	}
	cross, fn, sel := thetaShape(algebra.FunLt, "a", "b")
	pairs := mustOp(algebra.Project(sel, "a", "b"))
	for name, second := range map[string]*algebra.Op{"×": cross, "⊛": fn} {
		side := mustOp(algebra.Project(second, "a", "b"))
		if p := Lower(mustOp(algebra.Union(pairs, side))); len(p.ThetaJoins) != 0 {
			t.Errorf("a second consumer of %s did not prevent the theta join", name)
		}
	}
	// σ on a column other than the comparison's result.
	keep := algebra.Lit(bat.MustTable("a", bat.Ramp(0, 4), "k", make(bat.BoolVec, 4)))
	fn2 := mustOp(algebra.Fun(mustOp(algebra.Cross(keep, algebra.Lit(bat.MustTable("b", bat.Ramp(0, 4))))),
		"c", algebra.FunLt, "a", "b"))
	if p := Lower(mustOp(algebra.Select(fn2, "k"))); len(p.ThetaJoins) != 0 {
		t.Errorf("σ on a foreign column formed a theta join")
	}
}
