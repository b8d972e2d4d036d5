package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// The order- and density-observing int kernels (sortedDistinct,
// countSortPerm, denseJoin, aggrRuns) against the kernels they shortcut
// (distinctIndices, comparatorRowNumSort, keyHashJoin, aggrHash), which
// stay in the executor as the path for unsorted or sparse input and are
// called here directly, so the comparison needs no switch in production
// code. Each pair must agree row for row: first-occurrence δ, stable ϱ,
// left-major join order, first-occurrence group order.

// keyShapes are the input shapes the kernels tell apart.
var keyShapes = []string{"empty", "one-row", "strict", "sorted-dups", "shuffled",
	"dense", "dense-gap", "negative", "wide-span", "constant"}

// shapedKeys draws arity int key columns of the given shape. The shape
// describes the rows in order: lexicographically (strictly) sorted, or
// shuffled, with column 0 dense, gapped, negative, sparse or constant.
func shapedKeys(rng *rand.Rand, shape string, arity int) []bat.IntVec {
	n := 2 + rng.Intn(60)
	switch shape {
	case "empty":
		n = 0
	case "one-row":
		n = 1
	}
	domain := int64(n/3 + 2)
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, arity)
		for c := range rows[i] {
			rows[i][c] = rng.Int63n(domain)
		}
	}
	lexSort := func() {
		sort.SliceStable(rows, func(a, b int) bool {
			for c := range rows[a] {
				if rows[a][c] != rows[b][c] {
					return rows[a][c] < rows[b][c]
				}
			}
			return false
		})
	}
	switch shape {
	case "strict":
		lexSort()
		for i := range rows {
			rows[i][arity-1] += int64(i) * domain // ascending within every tie
		}
	case "sorted-dups":
		lexSort()
	case "dense", "dense-gap":
		first := rng.Int63n(20) - 10
		for i := range rows {
			rows[i][0] = first + int64(i)
			if shape == "dense-gap" && i > n/2 {
				rows[i][0]++
			}
		}
	case "negative":
		for i := range rows {
			rows[i][0] -= domain
		}
		if rng.Intn(2) == 0 {
			lexSort()
		}
	case "wide-span":
		for i := range rows {
			rows[i][0] = (rows[i][0] - 1) * int64(20*n+100)
		}
	case "constant":
		for i := range rows {
			rows[i][0] = 7
		}
	}
	cols := make([]bat.IntVec, arity)
	for c := range cols {
		cols[c] = make(bat.IntVec, n)
		for i := range rows {
			cols[c][i] = rows[i][c]
		}
	}
	return cols
}

// keyView wraps the key columns (named k0, k1, …) plus a payload column
// numbering the rows as a view. With selected set the rows sit scattered
// among junk rows of a larger base table and a selection vector restores
// their order, so a kernel reading base order instead of view order
// fails.
func keyView(rng *rand.Rand, keys []bat.IntVec, selected bool) *bat.View {
	n := keys[0].Len()
	names := make([]string, len(keys))
	for c := range keys {
		names[c] = fmt.Sprintf("k%d", c)
	}
	if !selected {
		t := &bat.Table{}
		for c, k := range keys {
			mustAdd(t, names[c], k)
		}
		return viewOf(t)
	}
	total := n + 3
	pos := rng.Perm(total)[:n] // base row of view row i
	sel := make([]int32, n)
	cols := make([]bat.IntVec, len(keys))
	for c := range cols {
		cols[c] = make(bat.IntVec, total)
		for j := range cols[c] {
			cols[c][j] = rng.Int63n(9) - 4 // junk the selection must skip
		}
	}
	for i, p := range pos {
		sel[i] = int32(p)
		for c := range keys {
			cols[c][p] = keys[c][i]
		}
	}
	t := &bat.Table{}
	for c := range cols {
		mustAdd(t, names[c], cols[c])
	}
	return newView(t, sel)
}

// comparatorRowNumSort is the comparator ϱ sort over rows of unknown
// order: the reference the count-sort and scan paths are held to.
func comparatorRowNumSort(t *bat.Table, vecs []bat.Vec, descs []bool) (*bat.Table, string, error) {
	return comparatorSort(t, vecs, descs, false)
}

// viewOf is bat.ViewOf in the executor's result slot: kernels take their
// inputs by pointer.
func viewOf(t *bat.Table) *bat.View {
	v := bat.ViewOf(t)
	return &v
}

// newView is bat.NewView, by pointer like viewOf.
func newView(t *bat.Table, sel []int32) *bat.View {
	v := bat.NewView(t, sel)
	return &v
}

func mustAdd(t *bat.Table, name string, v bat.Vec) {
	if err := t.AddCol(name, v); err != nil {
		panic(err)
	}
}

// withPayload returns the view's rows as a table with a row-number
// payload appended: equal keys stay distinguishable, so a stability or
// match-order slip shows.
func withPayload(v *bat.View) *bat.Table {
	t := v.Materialize().Slice(0, v.Rows())
	mustAdd(t, "row", bat.Ramp(0, v.Rows()))
	return t
}

// hashDistinct is δ through the hash kernels of distinctIndices alone,
// the path an unsorted input takes.
func hashDistinct(v *bat.View, vecs []bat.Vec) (physOut, error) {
	sel, kernel, err := distinctIndices(context.Background(), vecs, v.Rows(), v.Sel())
	if err != nil {
		return physOut{}, err
	}
	return physOut{view: bat.ViewOf(v.Base().Gather(sel)), kernel: kernel}, nil
}

// forEachKeyCase runs fn over shapes × arities × with/without a
// selection vector, several random draws each.
func forEachKeyCase(t *testing.T, seed int64, fn func(name, shape string, rng *rand.Rand, v *bat.View)) {
	rng := rand.New(rand.NewSource(seed))
	for _, shape := range keyShapes {
		for arity := 1; arity <= 3; arity++ {
			for _, selected := range []bool{false, true} {
				for draw := 0; draw < 4; draw++ {
					keys := shapedKeys(rng, shape, arity)
					v := keyView(rng, keys, selected)
					fn(fmt.Sprintf("%s arity=%d sel=%v draw=%d", shape, arity, selected, draw), shape, rng, v)
				}
			}
		}
	}
}

func TestDistinctSortedMatchesHash(t *testing.T) {
	ran := map[string]int{}
	forEachKeyCase(t, 1, func(name, shape string, _ *rand.Rand, v *bat.View) {
		got, err := physDistinct(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		vecs, _ := colVecs(v.Base(), v.Base().Cols())
		want, err := hashDistinct(v, vecs)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameTable(got.view.Materialize(), want.view.Materialize()); err != nil {
			t.Fatalf("%s: %s vs %s: %v", name, got.kernel, want.kernel, err)
		}
		ran[got.kernel]++
		sorted := shape == "strict" || shape == "sorted-dups" || shape == "empty" || shape == "one-row"
		if sorted && got.kernel != "distinct[sorted]" {
			t.Fatalf("%s: sorted input ran %s", name, got.kernel)
		}
		if shape == "strict" && (got.pass != v || got.mat != 0) {
			t.Fatalf("%s: strictly sorted input was copied (mat %d)", name, got.mat)
		}
		if want.kernel != "distinct[int]" {
			t.Fatalf("%s: reference ran %s", name, want.kernel)
		}
	})
	if ran["distinct[sorted]"] == 0 || ran["distinct[int]"] == 0 {
		t.Errorf("kernels exercised: %v", ran)
	}
}

func TestRowNumCountSortMatchesComparator(t *testing.T) {
	ran := map[string]int{}
	forEachKeyCase(t, 2, func(name, shape string, rng *rand.Rand, v *bat.View) {
		tab := withPayload(v)
		cols := v.Base().Cols()
		// Every split of the key columns into partition + order columns,
		// in a random significance order.
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		for _, withPart := range []bool{false, true} {
			part, ord := "", cols
			if withPart {
				part, ord = cols[0], cols[1:]
			}
			order := make([]algebra.OrderSpec, len(ord))
			vecs, descs := []bat.Vec{}, []bool{}
			if part != "" {
				vecs, descs = append(vecs, tab.MustCol(part)), append(descs, false)
			}
			for i, c := range ord {
				order[i] = algebra.OrderSpec{Col: c}
				vecs, descs = append(vecs, tab.MustCol(c)), append(descs, false)
			}
			got, kernel, err := physRowNumSort(tab, order, part)
			if err != nil {
				t.Fatal(err)
			}
			want, refKernel, err := comparatorRowNumSort(tab, vecs, descs)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTable(got, want); err != nil {
				t.Fatalf("%s part=%q order=%v: %s vs %s: %v", name, part, ord, kernel, refKernel, err)
			}
			if (kernel == "rownum[scan-sorted]") != (refKernel == "rownum[scan-sorted]") {
				t.Fatalf("%s: %s, but the comparator scan says %s", name, kernel, refKernel)
			}
			ran[kernel]++
		}
	})
	for _, k := range []string{"rownum[scan-sorted]", "rownum[count-sort]", "rownum[sort]"} {
		if ran[k] == 0 {
			t.Errorf("%s never ran (saw %v)", k, ran)
		}
	}
}

// TestRowNumDescentAtLastRow: when ϱ's numbering pass runs to the last
// row before it meets the one descent, the sort it hands over to — told
// the rows are unsorted, so it does not scan them again — still sorts
// and numbers every row as the comparator kernel does.
func TestRowNumDescentAtLastRow(t *testing.T) {
	node := func(pre int32) bat.NodeRef { return bat.NodeRef{Frag: 1, Pre: pre} }
	for _, c := range []struct {
		name, part, kernel string
		tab                *bat.Table
		order              []algebra.OrderSpec
	}{
		{"int key", "", "rownum[count-sort]",
			bat.MustTable("k", bat.IntVec{1, 2, 3, 4, 0}), []algebra.OrderSpec{{Col: "k"}}},
		{"minor key", "", "rownum[count-sort]",
			bat.MustTable("k", bat.IntVec{1, 1, 2, 2, 2}, "minor", bat.IntVec{1, 2, 1, 2, 0}), []algebra.OrderSpec{{Col: "k"}, {Col: "minor"}}},
		{"partition", "p", "rownum[count-sort]",
			bat.MustTable("p", bat.IntVec{1, 1, 2, 2, 1}, "k", bat.IntVec{1, 2, 1, 2, 3}), []algebra.OrderSpec{{Col: "k"}}},
		{"sparse key", "", "rownum[sort]",
			bat.MustTable("k", bat.IntVec{0, 1 << 40, 1 << 41, 5}), []algebra.OrderSpec{{Col: "k"}}},
		{"node key", "", "rownum[sort]",
			bat.MustTable("k", bat.NodeVec{node(1), node(2), node(3), node(0)}), []algebra.OrderSpec{{Col: "k"}}},
	} {
		tab := withPayload(viewOf(c.tab))
		vecs, descs, err := rowNumKeys(tab, c.order, c.part)
		if err != nil {
			t.Fatal(err)
		}
		sorted, refKernel, err := comparatorRowNumSort(tab, vecs, descs)
		if err != nil || refKernel != "rownum[sort]" {
			t.Fatalf("%s: the comparator ran %s (err %v); the case must be unsorted", c.name, refKernel, err)
		}
		want, err := physRowNumAttach(sorted, "n", c.part, make([]int64, tab.Rows()))
		if err != nil {
			t.Fatal(err)
		}
		rn := &algebra.Op{Kind: algebra.OpRowNum, Col: "n", Order: c.order, Part: c.part}
		got, err := physRowNum(rn, viewOf(tab))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameTable(got.view.Materialize(), want); err != nil {
			t.Errorf("%s (%s): %v", c.name, got.name(), err)
		}
		if got.name() != c.kernel {
			t.Errorf("%s ran %s, want %s", c.name, got.name(), c.kernel)
		}
	}
}

// TestRowNumSortFallbacks: a descending key, a non-int key and a sparse
// key each keep the comparator kernel.
func TestRowNumSortFallbacks(t *testing.T) {
	tab := bat.MustTable("a", bat.IntVec{3, 1, 2}, "s", bat.StrVec{"x", "z", "y"}, "wide", bat.IntVec{0, 1 << 40, 5})
	for name, order := range map[string][]algebra.OrderSpec{
		"descending": {{Col: "a", Desc: true}},
		"string key": {{Col: "s"}},
		"sparse key": {{Col: "wide"}},
	} {
		_, kernel, err := physRowNumSort(tab, order, "")
		if err != nil {
			t.Fatal(err)
		}
		if kernel != "rownum[sort]" {
			t.Errorf("%s ran %s", name, kernel)
		}
	}
}

func TestDenseJoinMatchesHash(t *testing.T) {
	ran := map[string]int{}
	ctx := context.Background()
	forEachKeyCase(t, 3, func(name, shape string, rng *rand.Rand, rv *bat.View) {
		rb := rv.Base() // joined on k0; further key columns ride along as payload
		// Left keys: in and around the right side's key range, repeated.
		nr := rv.Rows()
		rk := rb.MustCol("k0").(bat.IntVec)
		lo, hi := int64(0), int64(0)
		for i := 0; i < nr; i++ {
			k := rk[rv.Index(i)]
			if i == 0 {
				lo, hi = k, k
			}
			lo, hi = min(lo, k), max(hi, k)
		}
		lo, hi = lo-3, hi+3
		lk := make(bat.IntVec, rng.Intn(40))
		for i := range lk {
			lk[i] = lo + rng.Int63n(hi-lo+1)
		}
		l := viewOf(bat.MustTable("lk", lk, "lrow", bat.Ramp(0, len(lk))))
		if rng.Intn(2) == 0 && len(lk) > 0 {
			sel := make([]int32, rng.Intn(len(lk)+1))
			for i := range sel {
				sel[i] = int32(rng.Intn(len(lk)))
			}
			l = newView(l.Base(), sel)
		}
		o := &algebra.Op{Kind: algebra.OpJoin, KeyL: []string{"lk"}, KeyR: []string{"k0"}}
		for _, mode := range []joinMode{joinFull, joinSemi} {
			got, err := physHashJoin(ctx, o, l, rv, mode)
			if err != nil {
				t.Fatal(err)
			}
			want, err := keyHashJoin(ctx, o, l, rv, mode, "[int]", lk, rk)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTable(got.view.Materialize(), want.view.Materialize()); err != nil {
				t.Fatalf("%s mode=%d: %s vs %s: %v", name, mode, got.name(), want.name(), err)
			}
			ran[got.name()]++
			// A draw of another shape can be a dense run too (sorted-dups
			// with no duplicate in k0); the shapes named dense always are.
			_, run := denseRun(rk, rv)
			if dense := strings.HasSuffix(got.name(), "[int:dense]"); dense != (shape == "dense" || shape == "one-row" || run) {
				t.Fatalf("%s: right keys of shape %s ran %s", name, shape, got.name())
			}
		}
	})
	for _, k := range []string{"hash-join[int:dense]", "hash-semijoin[int:dense]", "hash-join[int]", "hash-semijoin[int]"} {
		if ran[k] == 0 {
			t.Errorf("%s never ran (saw %v)", k, ran)
		}
	}
}

func TestAggrRunsMatchesHash(t *testing.T) {
	ran := map[string]int{}
	aggs := []algebra.AggKind{algebra.AggCount, algebra.AggSum, algebra.AggMin, algebra.AggMax, algebra.AggAvg, algebra.AggStrJoin}
	forEachKeyCase(t, 4, func(name, shape string, _ *rand.Rand, v *bat.View) {
		tab := withPayload(v)
		pInts := tab.MustCol("k0").(bat.IntVec)
		for _, agg := range aggs {
			got, tag, err := physAggr(context.Background(), tab, "res", agg, []string{"row"}, "k0", "|")
			if err != nil {
				t.Fatal(err)
			}
			partOut, aggOut, err := aggrHash(context.Background(), pInts, agg, tab.MustCol("row"), "|")
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTable(got, bat.MustTable("k0", partOut, "res", aggOut)); err != nil {
				t.Fatalf("%s %s%s: %v", name, agg, tag, err)
			}
			boxed, err := evalAggr(tab, "res", agg, []string{"row"}, "k0", "|")
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTable(got, boxed); err != nil {
				t.Fatalf("%s %s%s vs evalAggr: %v", name, agg, tag, err)
			}
			ran[tag]++
		}
	})
	if ran[":int:runs"] == 0 || ran[":int"] == 0 {
		t.Errorf("groupings exercised: %v", ran)
	}
}

// TestIntKernelsBeyondExactFloat pins the integer-equality rule at the
// fast-path boundary. totalCmp (ϱ) and Item.Key (aggr) see IntVec values
// through float64, where 2^53 and 2^53+1 are one value: ϱ keeps such rows
// in input order and aggr files them in one group. A counting sort or a
// run scan over native int64 would tell them apart, so both take the
// comparator / map kernel once a key leaves ±2^53. δ and ⋈ compare native
// int64 in the hash kernels already, and so do their fast paths.
func TestIntKernelsBeyondExactFloat(t *testing.T) {
	const big = int64(1) << 53
	ctx := context.Background()
	for name, keys := range map[string]bat.IntVec{
		"sorted":   {big, big + 1},
		"shuffled": {big + 1, big},
		"negative": {-big - 1, -big},
	} {
		tab := bat.MustTable("k", keys, "minor", bat.IntVec{5, 3})
		vecs := []bat.Vec{keys, tab.MustCol("minor")}

		// ϱ: the keys tie, so the minor key decides — (…, 3) sorts first.
		got, kernel, err := physRowNumSort(tab, []algebra.OrderSpec{{Col: "k"}, {Col: "minor"}}, "")
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := comparatorRowNumSort(tab, vecs, []bool{false, false})
		if err := sameTable(got, want); err != nil {
			t.Errorf("%s ϱ (%s): %v", name, kernel, err)
		}
		if m := got.MustCol("minor").(bat.IntVec); kernel != "rownum[sort]" || m[0] != 3 {
			t.Errorf("%s ϱ ran %s and put minor=%d first; the comparator ties the keys", name, kernel, m[0])
		}
		// The numbering pass in front of the sort must not take rows in
		// native int order for ϱ's order either.
		rn := &algebra.Op{Kind: algebra.OpRowNum, Col: "pos", Order: []algebra.OrderSpec{{Col: "k"}, {Col: "minor"}}}
		num, err := physRowNum(rn, viewOf(tab))
		if err != nil {
			t.Fatal(err)
		}
		if m := num.view.Base().MustCol("minor").(bat.IntVec); num.kernel != "rownum[sort]" || m[0] != 3 {
			t.Errorf("%s ϱ numbering ran %s and put minor=%d first; the comparator ties the keys", name, num.kernel, m[0])
		}

		// aggr: one group, represented by its first row.
		agg, tag, err := physAggr(context.Background(), tab, "n", algebra.AggCount, nil, "k", "")
		if err != nil {
			t.Fatal(err)
		}
		boxed, _ := evalAggr(tab, "n", algebra.AggCount, nil, "k", "")
		if err := sameTable(agg, boxed); err != nil {
			t.Errorf("%s aggr%s: %v", name, tag, err)
		}
		if tag != ":int" || agg.Rows() != 1 {
			t.Errorf("%s aggr ran %s and found %d groups; Item.Key merges the keys", name, tag, agg.Rows())
		}

		// δ: native equality — two distinct rows, on either path.
		v := viewOf(bat.MustTable("k", keys))
		d, err := physDistinct(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := hashDistinct(v, []bat.Vec{keys})
		if err := sameTable(d.view.Materialize(), ref.view.Materialize()); err != nil || d.view.Rows() != 2 {
			t.Errorf("%s δ (%s): %d rows, %v", name, d.kernel, d.view.Rows(), err)
		}

		// ⋈: native equality — each left key meets exactly its own.
		l := viewOf(bat.MustTable("lk", bat.IntVec{keys[1], keys[0], keys[1] + 1}))
		r := viewOf(bat.MustTable("k", keys, "rrow", bat.IntVec{0, 1}))
		o := &algebra.Op{Kind: algebra.OpJoin, KeyL: []string{"lk"}, KeyR: []string{"k"}}
		j, err := physHashJoin(ctx, o, l, r, joinFull)
		if err != nil {
			t.Fatal(err)
		}
		jref, _ := keyHashJoin(ctx, o, l, r, joinFull, "[int]", l.Base().MustCol("lk").(bat.IntVec), keys)
		if err := sameTable(j.view.Materialize(), jref.view.Materialize()); err != nil {
			t.Errorf("%s ⋈ (%s): %v", name, j.name(), err)
		}
		if wantDense := name != "shuffled"; strings.HasSuffix(j.name(), ":dense]") != wantDense {
			t.Errorf("%s ⋈ ran %s", name, j.name())
		}
	}
}
