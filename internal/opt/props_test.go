package opt

import (
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

func mustOp(o *algebra.Op, err error) *algebra.Op {
	if err != nil {
		panic(err)
	}
	return o
}

func sortedPrefix(p *props, o *algebra.Op) []string { return p.orderingOf(o).cols }

// cseRoot runs cse over a freshly indexed DAG and checks that the index
// it emits is the result's algebra.Topo numbering.
func cseRoot(t *testing.T, root *algebra.Op) *algebra.Op {
	t.Helper()
	out := new(scratch).cse(newPlanIndex(root, 0))
	assertTopoIndex(t, out)
	return out.root()
}

// assertTopoIndex checks an index against a fresh walk of its DAG: the
// numbering is algebra.Topo order and the input numbers match In.
func assertTopoIndex(t testing.TB, x *planIndex) {
	t.Helper()
	order := algebra.Topo(x.root())
	if len(order) != len(x.ops) || x.live() != len(order) {
		t.Fatalf("index numbers %d operators (%d live), DAG has %d", len(x.ops), x.live(), len(order))
	}
	for i, o := range order {
		if x.ops[i] != o {
			t.Fatalf("index position %d is not Topo position %d", i, i)
		}
		for k, c := range x.inputs(int32(i)) {
			if x.ops[c] != o.In[k] {
				t.Fatalf("operator %d: input %d numbered %d, which is a different operator", i, k, c)
			}
		}
	}
}

func TestLitSortedPrefix(t *testing.T) {
	p := newProps(growingIndex(0))
	sorted := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1, 2},
		"pos", bat.IntVec{1, 2, 1},
		"item", bat.ItemVec{bat.Str("b"), bat.Str("a"), bat.Str("c")},
	))
	// (iter, pos) orders the rows strictly, so the lexicographic prefix
	// extends across every column.
	got := sortedPrefix(p, sorted)
	if len(got) < 2 || got[0] != "iter" || got[1] != "pos" {
		t.Errorf("sorted prefix = %v", got)
	}
	if !p.orderingOf(sorted).strict {
		t.Error("key-ordered literal must be strict")
	}
	unsorted := algebra.Lit(bat.MustTable("x", bat.IntVec{2, 1}))
	if got := sortedPrefix(p, unsorted); len(got) != 0 {
		t.Errorf("unsorted lit prefix = %v", got)
	}
}

func TestSortednessPropagation(t *testing.T) {
	p := newProps(growingIndex(0))
	lit := algebra.Lit(bat.MustTable(
		"iter", bat.IntVec{1, 1, 2},
		"pos", bat.IntVec{1, 2, 1},
	))
	// Projection renames carry the prefix.
	proj := mustOp(algebra.Project(lit, "outer:iter", "p:pos"))
	if got := sortedPrefix(p, proj); len(got) != 2 || got[0] != "outer" {
		t.Errorf("projected prefix = %v", got)
	}
	// Dropping the leading column kills the guarantee.
	drop := mustOp(algebra.Project(lit, "pos"))
	if got := sortedPrefix(p, drop); len(got) != 0 {
		t.Errorf("dropped-column prefix = %v", got)
	}
	// Selection preserves.
	f := mustOp(algebra.Fun(lit, "b", algebra.FunEq, "iter", "pos"))
	sel := mustOp(algebra.Select(f, "b"))
	if got := sortedPrefix(p, sel); len(got) < 2 {
		t.Errorf("select prefix = %v", got)
	}
	// RowNum output sortedness: the canonical (part, numbering) key.
	rn := mustOp(algebra.RowNum(lit, "n", []algebra.OrderSpec{{Col: "pos"}}, "iter"))
	if got := sortedPrefix(p, rn); len(got) != 2 || got[0] != "iter" || got[1] != "n" {
		t.Errorf("rownum prefix = %v", got)
	}
	if !p.orderingOf(rn).strict {
		t.Error("(part, numbering) is a key")
	}
	// Union gives nothing.
	u := mustOp(algebra.Union(lit, lit))
	if got := sortedPrefix(p, u); got != nil {
		t.Errorf("union prefix = %v", got)
	}
}

func TestHasPrefix(t *testing.T) {
	if !hasPrefix([]string{"a", "b", "c"}, []string{"a", "b"}) {
		t.Error("prefix")
	}
	if hasPrefix([]string{"a"}, []string{"a", "b"}) {
		t.Error("longer want")
	}
	if hasPrefix([]string{"a", "b"}, []string{"b"}) {
		t.Error("mismatch")
	}
	if !hasPrefix([]string{"a"}, nil) {
		t.Error("empty want is always a prefix")
	}
}

func TestCSESharesIdenticalSubplans(t *testing.T) {
	// Two structurally identical (but distinct) subtrees must collapse.
	mk := func() *algebra.Op {
		lit := algebra.Lit(bat.MustTable("iter", bat.IntVec{1, 2}))
		return mustOp(algebra.Project(lit, "x:iter"))
	}
	shared := algebra.Lit(bat.MustTable("iter", bat.IntVec{1, 2}))
	a := mustOp(algebra.Project(shared, "x:iter"))
	b := mustOp(algebra.Project(shared, "y:iter"))
	j := mustOp(algebra.Join(a, b, []string{"x"}, []string{"y"}))
	before := algebra.CountOps(j)
	after := algebra.CountOps(cseRoot(t, j))
	if after != before {
		t.Errorf("no duplicates to remove, yet %d -> %d", before, after)
	}
	// Now with duplicated literals: mk() twice builds equal Projects over
	// *different* Lit tables — those must NOT merge (literal identity is
	// by table pointer).
	x, y := mk(), mk()
	u := mustOp(algebra.Union(x, mustOp(algebra.Project(y, "x"))))
	_ = u
	// Same lit, duplicated projection expression: must merge.
	p1 := mustOp(algebra.Project(shared, "z:iter"))
	p2 := mustOp(algebra.Project(shared, "z:iter"))
	u2 := mustOp(algebra.Union(p1, p2))
	if got := algebra.CountOps(cseRoot(t, u2)); got != 3 {
		t.Errorf("cse kept %d ops, want 3 (union, one project, lit)", got)
	}
}

// TestCSEConfirmsHashHits: cse looks operators up by a hash of their
// signature and shares only what the signatures confirm, so a collision —
// here, two distinct selections filed under one hash — costs a
// comparison, never a wrong share; and an operator further down a
// collision chain is still found.
func TestCSEConfirmsHashHits(t *testing.T) {
	lit := algebra.Lit(bat.MustTable("a", bat.BoolVec{true}, "b", bat.BoolVec{false}))
	sa := mustOp(algebra.Select(lit, "a"))
	sb := mustOp(algebra.Select(lit, "b"))
	root := mustOp(algebra.Union(sa, sb))
	s := new(scratch)
	out := s.cse(newPlanIndex(root, 0))
	ja, jb := int32(1), int32(2)
	if out.ops[ja].Col != "a" || out.ops[jb].Col != "b" {
		t.Fatalf("unexpected numbering: %v", out.ops)
	}
	sig := func(j int32) []byte { return appendSignature(nil, out.ops[j], out.inputs(j)) }
	const h = 42
	// b is filed under h with a behind it on the chain.
	s.canon[h], s.chain[jb], s.chain[ja] = jb, ja, -1
	s.key = sig(ja)
	if got := s.canonical(out, h); got != ja {
		t.Errorf("a behind b on one hash: canonical = %d, want %d", got, ja)
	}
	s.chain[jb] = -1
	if got := s.canonical(out, h); got != -1 {
		t.Errorf("a's signature under b's hash: canonical = %d, want -1 (no share)", got)
	}
	s.key = sig(jb)
	if got := s.canonical(out, h); got != jb {
		t.Errorf("b under its hash: canonical = %d, want %d", got, jb)
	}
}
