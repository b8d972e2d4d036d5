package physical

import (
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// bigLit builds a literal wide enough to clear the chainMinRows gate,
// with an integer column and a shifted copy for building predicates.
func bigLit(n int) *algebra.Op {
	a := make(bat.IntVec, n)
	b := make(bat.IntVec, n)
	for i := range a {
		a[i] = int64(i)
		b[i] = int64(i) + 1
	}
	return algebra.Lit(bat.MustTable("a", a, "b", b))
}

// TestDiscoverChains: a map→filter→project pipeline over a large input
// counts as one chain (Plan.Chains, the benchmark's physical.chains).
func TestDiscoverChains(t *testing.T) {
	fn := mustOp(algebra.Fun(bigLit(chainMinRows+100), "p", algebra.FunLt, "a", "b"))
	sel := mustOp(algebra.Select(fn, "p"))
	pj := mustOp(algebra.Project(sel, "a"))
	if p := Lower(pj); len(p.Chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(p.Chains))
	}
}

// TestDiscoverChainsTinyGate: the identical plan shape over a
// statically tiny input counts no chain.
func TestDiscoverChainsTinyGate(t *testing.T) {
	fn := mustOp(algebra.Fun(bigLit(10), "p", algebra.FunLt, "a", "b"))
	sel := mustOp(algebra.Select(fn, "p"))
	pj := mustOp(algebra.Project(sel, "a"))
	p := Lower(pj)
	if len(p.Chains) != 0 {
		t.Fatalf("tiny input counted %d chain(s); the EstRows gate must skip them", len(p.Chains))
	}
	if nd := nodeOf(p, fn); nd.EstRows < 0 || nd.EstRows >= chainMinRows {
		t.Fatalf("test premise broken: head EstRows = %d, want a small static bound", nd.EstRows)
	}
}

// TestDiscoverChainsMarkAfterFilter: a mark consuming a filter starts a
// chain of its own; a mark before the filter does not.
func TestDiscoverChainsMarkAfterFilter(t *testing.T) {
	fn := mustOp(algebra.Fun(bigLit(chainMinRows+100), "p", algebra.FunLt, "a", "b"))
	sel := mustOp(algebra.Select(fn, "p"))
	mk := mustOp(algebra.RowID(sel, "pos"))
	pj := mustOp(algebra.Project(mk, "a", "pos"))
	if p := Lower(pj); len(p.Chains) != 2 {
		t.Fatalf("map→filter→mark→project counted %d chain(s), want 2 (map→filter, mark→project)", len(p.Chains))
	}

	mk2 := mustOp(algebra.RowID(bigLit(chainMinRows+100), "pos"))
	fn2 := mustOp(algebra.Fun(mk2, "p", algebra.FunLt, "a", "b"))
	sel2 := mustOp(algebra.Select(fn2, "p"))
	if p := Lower(sel2); len(p.Chains) != 1 {
		t.Fatalf("mark→map→filter counted %d chain(s), want 1", len(p.Chains))
	}
}

// TestDiscoverChainsMultiConsumer: a node with two consumers ends its
// chain, so a shared map under two single projections counts none.
func TestDiscoverChainsMultiConsumer(t *testing.T) {
	fn := mustOp(algebra.Fun(bigLit(chainMinRows+100), "p", algebra.FunLt, "a", "b"))
	p1 := mustOp(algebra.Project(fn, "a"))
	p2 := mustOp(algebra.Project(fn, "a"))
	u := mustOp(algebra.Union(p1, p2))
	if p := Lower(u); len(p.Chains) != 0 {
		t.Fatalf("shared map counted in %d chain(s), want 0", len(p.Chains))
	}
}
