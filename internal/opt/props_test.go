package opt

import (
	"math"
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

// cseRoot interns a DAG as the pipeline's entry walk does and checks
// the index against a fresh walk of the result.
func cseRoot(t *testing.T, root *algebra.Op) *algebra.Op {
	t.Helper()
	r := enter(root)
	if live, n := r.x.live(), algebra.CountOps(r.x.root()); live != n {
		t.Fatalf("index counts %d live operators, the DAG has %d", live, n)
	}
	return r.x.root()
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

// A literal column that holds a NaN claims no order: NaN compares equal
// to every number, so [3, NaN, 1] passes a scan of neighbours.
func TestLitSortedNaN(t *testing.T) {
	p := newProps(growingIndex(0))
	for _, col := range []bat.Vec{
		bat.FloatVec{3, math.NaN(), 1},
		bat.FloatVec{1, math.NaN(), 3},
		bat.ItemVec{bat.Int(3), bat.Float(math.NaN()), bat.Int(1)},
	} {
		lit := algebra.Lit(bat.MustTable("iter", bat.IntVec{1, 1, 1}, "k", col))
		if got := p.orderingOf(lit); len(got.cols) != 1 || got.cols[0] != "iter" || got.strict {
			t.Errorf("iter|k with k = %v: ordering %+v, want a non-strict iter", col, got)
		}
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

// TestCSEConfirmsHashHits: the interning table looks operators up by a
// hash of their signature and shares only what the signatures confirm,
// so a collision — here, two distinct selections filed under one hash —
// costs a comparison, never a wrong share; and an operator further down
// a collision chain is still found.
func TestCSEConfirmsHashHits(t *testing.T) {
	lit := algebra.Lit(bat.MustTable("a", bat.BoolVec{true}, "b", bat.BoolVec{false}))
	sa := mustOp(algebra.Select(lit, "a"))
	sb := mustOp(algebra.Select(lit, "b"))
	root := mustOp(algebra.Union(sa, sb))
	r := enter(root)
	x := r.x
	ja, jb := int32(1), int32(2)
	if x.ops[ja].Col != "a" || x.ops[jb].Col != "b" {
		t.Fatalf("unexpected numbering: %v", x.ops)
	}
	sig := func(j int32) []byte { return appendSignature(nil, x.ops[j], x.inputs(j)) }
	const h = 42
	// b is filed under h with a behind it on the chain.
	r.canon[h], r.slots[jb].chain, r.slots[ja].chain = jb, ja, -1
	r.key = sig(ja)
	if got := r.lookup(h); got != ja {
		t.Errorf("a behind b on one hash: lookup = %d, want %d", got, ja)
	}
	r.slots[jb].chain = -1
	if got := r.lookup(h); got != -1 {
		t.Errorf("a's signature under b's hash: lookup = %d, want -1 (no share)", got)
	}
	r.key = sig(jb)
	if got := r.lookup(h); got != jb {
		t.Errorf("b under its hash: lookup = %d, want %d", got, jb)
	}
}
