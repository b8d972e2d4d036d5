package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// fuzzShapes are the columns FuzzTypedKernelsMatchBoxed draws: one per
// typed vector a producer emits, and a polymorphic one.
var fuzzShapes = []string{"int", "float", "str", "untyped", "mixed"}

// fuzzCol draws n rows of one shape from small domains, so that ties,
// numeric-looking strings, zero divisors, NaN and values that do not
// cast all come up.
func fuzzCol(rng *rand.Rand, shape string, n int) bat.Vec {
	words := []string{"", "1", "1.0", " 2 ", "10", "9", "abc", "NaN", "-0", "2.5e0"}
	item := func(shape string) bat.Item {
		switch shape {
		case "int":
			return bat.Int(int64(rng.Intn(7)) - 3)
		case "float":
			if rng.Intn(8) == 0 {
				return bat.Float(math.NaN())
			}
			return bat.Float(float64(rng.Intn(9))/2 - 2)
		case "str":
			return bat.Str(words[rng.Intn(len(words))])
		}
		return bat.Untyped(words[rng.Intn(len(words))])
	}
	b := bat.NewItems(n)
	if shape == "mixed" {
		items := make(bat.ItemVec, n)
		for i := range items {
			items[i] = item(fuzzShapes[rng.Intn(4)])
		}
		return items
	}
	for i := 0; i < n; i++ {
		b.AppendItem(item(shape))
	}
	if n == 0 {
		return bat.Typed(bat.ItemVec{item(shape)}).Slice(0, 0)
	}
	return b.Build()
}

// sortedCol is v with its rows in bat.CompareTotal order.
func sortedCol(v bat.Vec) bat.Vec {
	items := boxed(v)
	sort.SliceStable(items, func(i, j int) bool { return bat.CompareTotal(items[i], items[j]) < 0 })
	b := v.New(len(items))
	for _, it := range items {
		b.AppendItem(it)
	}
	return b.Build()
}

// boxed is v as an ItemVec: the polymorphic column every kernel read
// before the producers kept their kinds.
func boxed(v bat.Vec) bat.ItemVec {
	out := make(bat.ItemVec, v.Len())
	for i := range out {
		out[i] = v.ItemAt(i)
	}
	return out
}

// sameRows compares two result columns row for row, by kind and value.
func sameRows(got, want bat.Vec) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d rows, want %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		x, y := got.ItemAt(i), want.ItemAt(i)
		if x.Kind != y.Kind || x.StringValue() != y.StringValue() {
			return fmt.Errorf("row %d: %s %q, want %s %q", i, x.Kind, x.StringValue(), y.Kind, y.StringValue())
		}
	}
	return nil
}

// sameOutcome fails t unless both kernels failed with the same text or
// both produced the same rows.
func sameOutcome(t *testing.T, what string, got, want bat.Vec, gerr, werr error) {
	t.Helper()
	switch {
	case (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error():
		t.Fatalf("%s: error %v, boxed %v", what, gerr, werr)
	case gerr == nil:
		if err := sameRows(got, want); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
}

// FuzzTypedKernelsMatchBoxed differences the kernels that read typed
// columns directly — compare, arith, ⋈ with its run-time choice between
// the merge kernel and the hash kernel's key lanes, and ∪ — against the
// same columns boxed as ItemVecs, which take the per-row bat.Item paths:
// the same rows, the same row order and the same error text. A ∪ must
// also keep the vector of the kind its rows share.
//
// shapes/25 holds two flags for ⋈: bit 0 sorts the key columns, so that
// int keys ascend and merge, and bit 1 reads both sides through a
// selection view that skips every third row.
func FuzzTypedKernelsMatchBoxed(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed, uint8(seed*7), uint8(seed*3))
	}
	// int × int keys that ascend, on identity views (25) and on
	// selection views (75).
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed*5+3), uint8(25))
		f.Add(seed, uint8(seed*5+3), uint8(75))
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, seed int64, n, shapes uint8) {
		rng := rand.New(rand.NewSource(seed))
		ls, rs := fuzzShapes[int(shapes)%len(fuzzShapes)], fuzzShapes[int(shapes)/len(fuzzShapes)%len(fuzzShapes)]
		sorted, selected := shapes/25&1 != 0, shapes/25&2 != 0
		rows := int(n % 24)
		a, b := fuzzCol(rng, ls, rows), fuzzCol(rng, rs, rows)
		ba, bb := boxed(a), boxed(b)
		name := fmt.Sprintf("%s×%s", ls, rs)

		for _, fun := range []algebra.FunKind{algebra.FunEq, algebra.FunNe, algebra.FunLt, algebra.FunLe, algebra.FunGt, algebra.FunGe} {
			got, _, gerr := compareKernel(ctx, fun, a, b, rows)
			want, _, werr := compareKernel(ctx, fun, ba, bb, rows)
			sameOutcome(t, name+" "+fun.String(), got, want, gerr, werr)
		}
		for _, fun := range []algebra.FunKind{algebra.FunAdd, algebra.FunSub, algebra.FunMul, algebra.FunDiv, algebra.FunIDiv, algebra.FunMod} {
			got, _, gerr := arithKernel(ctx, fun, a, b, rows)
			want, _, werr := arithKernel(ctx, fun, ba, bb, rows)
			sameOutcome(t, name+" "+fun.String(), got, want, gerr, werr)
		}

		// ⋈ and ∪ over sides of their own lengths, an empty one included.
		r := fuzzCol(rng, rs, rng.Intn(12))
		ja, jr := a, r
		if sorted {
			ja, jr = sortedCol(a), sortedCol(r)
		}
		side := func(k bat.Vec, id string) *bat.View {
			t := bat.MustTable(id+"k", k, id, bat.Ramp(0, k.Len()))
			if !selected {
				return viewOf(t)
			}
			var sel []int32
			for i := 0; i < k.Len(); i++ {
				if i%3 != 1 {
					sel = append(sel, int32(i))
				}
			}
			return newView(t, sel)
		}
		o := &algebra.Op{Kind: algebra.OpJoin, KeyL: []string{"lk"}, KeyR: []string{"rk"}}
		for _, mode := range []joinMode{joinFull, joinSemi} {
			got, gerr := physJoin(ctx, o, side(ja, "l"), side(jr, "r"), mode)
			want, werr := physJoin(ctx, o, side(boxed(ja), "l"), side(boxed(jr), "r"), mode)
			if gerr != nil || werr != nil {
				t.Fatalf("%s ⋈: %v, boxed %v", name, gerr, werr)
			}
			_, lInt := ja.(bat.IntVec)
			_, rInt := jr.(bat.IntVec)
			if sorted && lInt && rInt && !strings.HasPrefix(got.kernel, "merge-") {
				t.Fatalf("%s ⋈ over ascending int keys ran %s", name, got.kernel)
			}
			for _, c := range want.view.Base().Cols() {
				if c == "lk" || c == "rk" {
					continue // the key columns differ in vector type, not in the rows matched
				}
				g, w := got.view.Materialize().MustCol(c), want.view.Materialize().MustCol(c)
				sameOutcome(t, fmt.Sprintf("%s ⋈ (%s vs %s) column %s", name, got.kernel, want.kernel, c), g, w, nil, nil)
			}
		}

		u := bat.MustTable("k", r)
		got, err := physConcat(viewOf(bat.MustTable("k", a)), viewOf(u))
		if err != nil {
			t.Fatal(err)
		}
		want, err := physConcat(viewOf(bat.MustTable("k", ba)), viewOf(bat.MustTable("k", boxed(r))))
		if err != nil {
			t.Fatal(err)
		}
		gk := got.view.Base().MustCol("k")
		sameOutcome(t, name+" ∪", gk, want.view.Base().MustCol("k"), nil, nil)
		// A "mixed" column of one row, or whose draws agree, is an ItemVec
		// of one kind, which no producer emits; from inputs that keep their
		// kinds the ∪ must keep its own.
		kept := func(v bat.Vec) bool { return bat.Typed(v).Type() == v.Type() }
		if kept(a) && kept(r) && !kept(gk) {
			t.Fatalf("%s ∪ is a %s column; its rows are all %s", name, gk.Type(), bat.Typed(gk).Type())
		}
	})
}
