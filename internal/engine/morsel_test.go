package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// TestWorkerBudget pins the shared-budget arithmetic: reservations never
// exceed the pool size minus the busy workers, and releases restore the
// spare capacity.
func TestWorkerBudget(t *testing.T) {
	e := &Engine{Workers: 4, sh: &engineShared{}}
	e.sh.working.Add(1) // the host itself
	if got := e.reserveWorkers(8); got != 3 {
		t.Fatalf("reserve(8) with 1 busy of 4 = %d, want 3", got)
	}
	if got := e.reserveWorkers(1); got != 0 {
		t.Fatalf("reserve on exhausted budget = %d, want 0", got)
	}
	e.releaseWorkers(3)
	if got := e.reserveWorkers(2); got != 2 {
		t.Fatalf("reserve(2) after release = %d, want 2", got)
	}
	e.releaseWorkers(2)
	e.sh.working.Add(-1)
	if w := e.sh.working.Load(); w != 0 {
		t.Fatalf("budget leaked: working = %d", w)
	}
}

// TestMorselRunOrderAndError pins the morsel team semantics: per-morsel
// results land in their own slots regardless of which worker ran them,
// and the error of the lowest-indexed failing morsel wins — the error
// the sequential scan would hit first.
func TestMorselRunOrderAndError(t *testing.T) {
	e := &Engine{Workers: 4, sh: &engineShared{}}
	ms := &morsels{e: e, ctx: context.Background(), par: true}
	out := make([]int, 40)
	if err := ms.run(40, func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
	if ms.n != 40 {
		t.Errorf("recorded morsels = %d, want 40", ms.n)
	}

	err := ms.run(40, func(i int) error {
		if i == 7 || i == 23 {
			return fmt.Errorf("morsel %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "morsel 7 failed" {
		t.Errorf("earliest-morsel error: got %v", err)
	}
	if w := e.sh.working.Load(); w != 0 {
		t.Fatalf("budget leaked after morsel runs: working = %d", w)
	}
}

// Property: the location step cut into units emits byte-identical
// iter|item rows to the one-unit step for every axis, with the morsel
// size forced down so multi-context descendant runs split into seeded
// sub-ranges. The output must also stay sorted and duplicate-free per
// iter — the staircase prune/skip contract the split must not break.
func TestQuickMorselStepMatchesSequential(t *testing.T) {
	axes := []algebra.Axis{
		algebra.Child, algebra.Descendant, algebra.DescendantOrSelf,
		algebra.Parent, algebra.Ancestor, algebra.AncestorOrSelf,
		algebra.Following, algebra.Preceding,
		algebra.FollowingSibling, algebra.PrecedingSibling, algebra.Self,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		store := xenc.NewStore()
		doc, err := store.LoadDocumentString("q.xml", randomTree(r))
		if err != nil {
			return false
		}
		frag := store.Frag(doc.Frag)
		nCtx := r.Intn(24) + 1
		ctx := make(bat.NodeVec, nCtx)
		iter := make(bat.IntVec, nCtx)
		for i := range ctx {
			ctx[i] = bat.NodeRef{Frag: doc.Frag, Pre: int32(r.Intn(frag.NodeCount()))}
			iter[i] = int64(r.Intn(3) + 1)
		}
		in, err := bat.NewTable("iter", iter, "item", ctx)
		if err != nil {
			return false
		}
		e := New(store)
		e.Workers = 4
		e.MorselRows = 2 // cut units after nearly every run, split nearly every descendant run
		ms := &morsels{e: e, ctx: context.Background(), par: true}
		for _, axis := range axes {
			test := algebra.KindTest{Kind: algebra.TestNode}
			want, err1 := e.evalStep(&morsels{e: e, ctx: context.Background()}, in, axis, test)
			got, err2 := e.evalStep(ms, in, axis, test)
			if err1 != nil || err2 != nil {
				t.Logf("axis %s: %v %v", axis, err1, err2)
				return false
			}
			if want.String() != got.String() {
				t.Logf("axis %s differs on seed %d:\nseq:\n%s\nmorsel:\n%s",
					axis, seed, want.String(), got.String())
				return false
			}
			oi, _ := got.Ints("iter")
			items := got.MustCol("item")
			for i := 1; i < got.Rows(); i++ {
				if oi[i] < oi[i-1] {
					t.Logf("axis %s: iter order broken at %d", axis, i)
					return false
				}
				if oi[i] == oi[i-1] && items.ItemAt(i).N.Pre <= items.ItemAt(i-1).N.Pre {
					t.Logf("axis %s: doc order/dedup broken at %d", axis, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMorselStepManyContexts drives the seeded descendant split over one
// big run — nested, overlapping contexts covering the whole
// fragment — where a wrong seed boundary would duplicate or drop pres.
func TestMorselStepManyContexts(t *testing.T) {
	store := xenc.NewStore()
	r := rand.New(rand.NewSource(7))
	trees := "<big>"
	for i := 0; i < 12; i++ {
		trees += randomTree(r)
	}
	doc, err := store.LoadDocumentString("big.xml", trees+"</big>")
	if err != nil {
		t.Fatal(err)
	}
	frag := store.Frag(doc.Frag)
	n := frag.NodeCount()
	// Every node is a context, twice, out of order: maximal overlap.
	ctx := make(bat.NodeVec, 0, 2*n)
	iter := make(bat.IntVec, 0, 2*n)
	for i := n - 1; i >= 0; i-- {
		ctx = append(ctx, bat.NodeRef{Frag: doc.Frag, Pre: int32(i)},
			bat.NodeRef{Frag: doc.Frag, Pre: int32(i)})
		iter = append(iter, 1, 1)
	}
	in, err := bat.NewTable("iter", iter, "item", ctx)
	if err != nil {
		t.Fatal(err)
	}
	e := New(store)
	e.Workers = 4
	e.MorselRows = 3
	for _, axis := range []algebra.Axis{algebra.Descendant, algebra.DescendantOrSelf} {
		test := algebra.KindTest{Kind: algebra.TestNode}
		ms := &morsels{e: e, ctx: context.Background(), par: true}
		want, err1 := e.evalStep(&morsels{e: e, ctx: context.Background()}, in, axis, test)
		got, err2 := e.evalStep(ms, in, axis, test)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", axis, err1, err2)
		}
		if want.String() != got.String() {
			t.Errorf("%s: split output differs\nseq:\n%s\nmorsel:\n%s", axis, want, got)
		}
		// The 2n rows sort into one run, which splits into seeded
		// sub-ranges of MorselRows contexts.
		if units := (2*n + e.MorselRows - 1) / e.MorselRows; ms.n != units {
			t.Errorf("%s over one run of %d contexts ran %d units, want %d", axis, 2*n, ms.n, units)
		}
	}
	// Any other axis carries state a seed cannot stand for: the run stays whole.
	ms := &morsels{e: e, ctx: context.Background(), par: true}
	if _, err := e.evalStep(ms, in, algebra.Child, algebra.KindTest{Kind: algebra.TestNode}); err != nil {
		t.Fatal(err)
	}
	if ms.n != 1 {
		t.Errorf("child step over one run ran %d units, want 1", ms.n)
	}
}
