package physical

import (
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// bigLit builds a literal wide enough to clear the FusedMinRows gate,
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

// chainKinds flattens a chain to its member operator kinds.
func chainKinds(ch *FusedChain) []algebra.OpKind {
	kinds := make([]algebra.OpKind, len(ch.Nodes))
	for i, nd := range ch.Nodes {
		kinds[i] = nd.Op.Kind
	}
	return kinds
}

// TestDiscoverChains: a map→filter→project pipeline over a large input
// becomes one maximal chain; the literal leaf stays outside it.
func TestDiscoverChains(t *testing.T) {
	fn := mustOp(algebra.Fun(bigLit(FusedMinRows+100), "p", algebra.FunLt, "a", "b"))
	sel := mustOp(algebra.Select(fn, "p"))
	pj := mustOp(algebra.Project(sel, "a"))
	p := Lower(pj)
	if len(p.Chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(p.Chains))
	}
	ch := p.Chains[0]
	want := []algebra.OpKind{algebra.OpFun, algebra.OpSelect, algebra.OpProject}
	got := chainKinds(ch)
	if len(got) != len(want) {
		t.Fatalf("chain kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain kinds = %v, want %v", got, want)
		}
	}
	if ch.Input().Op.Kind != algebra.OpLit {
		t.Errorf("chain input = %s, want the literal leaf", ch.Input().Op.Kind)
	}
	if ch.Head().Op != fn {
		t.Errorf("chain head is not the map node")
	}
	if ch.Tail().Op != pj {
		t.Errorf("chain tail is not the projection")
	}
}

// TestDiscoverChainsTinyGate: the identical plan shape over a
// statically tiny input forms no chains at all — the point-lookup fast
// path must pay zero fusion overhead.
func TestDiscoverChainsTinyGate(t *testing.T) {
	fn := mustOp(algebra.Fun(bigLit(10), "p", algebra.FunLt, "a", "b"))
	sel := mustOp(algebra.Select(fn, "p"))
	pj := mustOp(algebra.Project(sel, "a"))
	p := Lower(pj)
	if len(p.Chains) != 0 {
		t.Fatalf("tiny input formed %d chain(s); the EstRows gate must skip them", len(p.Chains))
	}
	if nd := nodeOf(p, fn); nd.EstRows < 0 || nd.EstRows >= FusedMinRows {
		t.Fatalf("test premise broken: head EstRows = %d, want a small static bound", nd.EstRows)
	}
}

// TestDiscoverChainsMarkAfterFilter: a mark consuming a filter must not
// join the filter's chain — fused mark numbers rows by chain-input
// position, which a preceding filter disturbs. Mark before the filter
// fuses fine.
func TestDiscoverChainsMarkAfterFilter(t *testing.T) {
	fn := mustOp(algebra.Fun(bigLit(FusedMinRows+100), "p", algebra.FunLt, "a", "b"))
	sel := mustOp(algebra.Select(fn, "p"))
	mk := mustOp(algebra.RowID(sel, "pos"))
	pj := mustOp(algebra.Project(mk, "a", "pos"))
	p := Lower(pj)
	for _, ch := range p.Chains {
		seenFilter := false
		for _, nd := range ch.Nodes {
			if nd.Op.Kind == algebra.OpRowID && seenFilter {
				t.Fatalf("chain #%d places mark after a filter: %v", ch.ID, chainKinds(ch))
			}
			if nd.Op.Kind == algebra.OpSelect {
				seenFilter = true
			}
		}
	}

	// mark → filter (mark first) is a legal chain.
	mk2 := mustOp(algebra.RowID(bigLit(FusedMinRows+100), "pos"))
	fn2 := mustOp(algebra.Fun(mk2, "p", algebra.FunLt, "a", "b"))
	sel2 := mustOp(algebra.Select(fn2, "p"))
	p2 := Lower(sel2)
	if len(p2.Chains) != 1 || len(p2.Chains[0].Nodes) != 3 {
		t.Fatalf("mark→map→filter did not form one 3-member chain: %d chain(s)", len(p2.Chains))
	}
}

// TestDiscoverChainsMultiConsumer: a node with two consumers ends its
// chain — the selection vector must never leak to the second consumer.
func TestDiscoverChainsMultiConsumer(t *testing.T) {
	fn := mustOp(algebra.Fun(bigLit(FusedMinRows+100), "p", algebra.FunLt, "a", "b"))
	p1 := mustOp(algebra.Project(fn, "a"))
	p2 := mustOp(algebra.Project(fn, "a"))
	u := mustOp(algebra.Union(p1, p2))
	p := Lower(u)
	for _, ch := range p.Chains {
		for i, nd := range ch.Nodes[:len(ch.Nodes)-1] {
			if nd.Op == fn {
				t.Fatalf("chain #%d holds the shared map as interior member %d", ch.ID, i)
			}
		}
	}
}
