package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/physical"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
)

// Micro-benchmarks for the join tail of a loop-lifted plan at XMark Q11's
// size (SF 0.1: 61 805 (ai, bi) pairs over 1 200 × 1 762 iterations),
// each beside the kernel it shortcuts. BenchmarkDistinct's sorted cases
// are in distinct_bench_test.go.

const q11Pairs = 61805

// bandPairs is a band join's output: pairs in (ai, bi) order, each ai
// meeting every 34th bi or so.
func bandPairs() (ai, bi bat.IntVec) {
	for a := int64(1); len(ai) < q11Pairs; a++ {
		for b := 1 + a%34; b <= 1762 && len(ai) < q11Pairs; b += 34 {
			ai, bi = append(ai, a), append(bi, b)
		}
	}
	return ai, bi
}

func BenchmarkRowNumSort(b *testing.B) {
	ai, bi := bandPairs()
	shuffled := func(v bat.IntVec, seed int64) bat.IntVec {
		out := append(bat.IntVec(nil), v...)
		rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	wide := make(bat.IntVec, len(bi))
	for i, x := range bi {
		wide[i] = x * 1_000_000
	}
	order := []algebra.OrderSpec{{Col: "bi"}, {Col: "ai"}}
	for _, c := range []struct {
		name, kernel string
		tab          *bat.Table
	}{
		{"bi-ai-over-ai-bi-sorted", "rownum[count-sort]", bat.MustTable("ai", ai, "bi", bi)},
		{"shuffled", "rownum[count-sort]", bat.MustTable("ai", shuffled(ai, 1), "bi", shuffled(bi, 2))},
		{"wide-span", "rownum[sort]", bat.MustTable("ai", ai, "bi", wide)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, kernel, err := physRowNumSort(c.tab, order, "")
				if err != nil || kernel != c.kernel {
					b.Fatalf("kernel = %s, want %s (err %v)", kernel, c.kernel, err)
				}
			}
		})
	}
	b.Run("comparator", func(b *testing.B) { // the same (bi, ai) sort through the kernel count-sort replaced
		tab := bat.MustTable("ai", ai, "bi", bi)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := comparatorRowNumSort(tab, []bat.Vec{bi, ai}, []bool{false, false}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// denseJoinInput is ⋈ ai=vin: n pairs probing a dense run of keys
// distinct keys, every probe a hit.
func denseJoinInput(n, keys int) (l, r *bat.View, o *algebra.Op) {
	lk := make(bat.IntVec, n)
	for i := range lk {
		lk[i] = int64(1 + i*keys/n)
	}
	l = viewOf(bat.MustTable("ai", lk, "s2", bat.Ramp(1, n)))
	r = viewOf(bat.MustTable("vin", bat.Ramp(1, keys), "item", bat.Ramp(100, keys)))
	return l, r, &algebra.Op{Kind: algebra.OpJoin, KeyL: []string{"ai"}, KeyR: []string{"vin"}}
}

func BenchmarkIntJoinDense(b *testing.B) {
	l, r, o := denseJoinInput(q11Pairs, 1200)
	ctx := context.Background()
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := physHashJoin(ctx, o, l, r, joinFull)
			if err != nil || out.kernel != "hash-join[int:dense]" {
				b.Fatalf("kernel = %s, err = %v", out.kernel, err)
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		lk, rk := l.Base().MustCol("ai").(bat.IntVec), r.Base().MustCol("vin").(bat.IntVec)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := keyHashJoin(ctx, o, l, r, joinFull, "[int]", lk, rk); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAggrRuns(b *testing.B) {
	_, bi := bandPairs()
	part := make(bat.IntVec, len(bi)) // count cnt:()/iter over the pairs in bi order
	for i := range part {
		part[i] = int64(1 + i*1730/len(part))
	}
	tab := bat.MustTable("iter", part)
	b.Run("runs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, tag, err := physAggr(context.Background(), tab, "cnt", algebra.AggCount, nil, "iter", "")
			if err != nil || tag != ":int:runs" {
				b.Fatalf("tag = %s, err = %v", tag, err)
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := aggrHash(context.Background(), part, algebra.AggCount, nil, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// thetaCountInput is Q11's join under count($l): nb outer (income) rows
// against na inner (5000 × initial) rows, `outer > inner` holding for the
// share sel of all pairs, lowered to a count-only unit.
func thetaCountInput(tb testing.TB, na, nb int, sel float64) (tj *physical.ThetaJoin, l, r *bat.View) {
	rng := rand.New(rand.NewSource(11))
	inner, outer := make(bat.FloatVec, na), make(bat.FloatVec, nb)
	for i := range inner {
		inner[i] = rng.Float64()
	}
	for i := range outer {
		outer[i] = rng.Float64() * 2 * sel
	}
	lt := bat.MustTable("li", bat.Ramp(1, nb), "lk", outer)
	rt := bat.MustTable("ri", bat.Ramp(1, na), "rk", inner)
	units := physical.Lower(thetaCountPlan(tb, lt, rt, algebra.FunGt, false, false)).ThetaJoins
	if len(units) != 1 || units[0].Count == nil {
		tb.Fatalf("no count-only unit in the lowered plan")
	}
	return units[0], viewOf(lt), viewOf(rt)
}

// thetaCountByPairs answers a count-only unit the way its members would:
// the band kernel emits the pairs, δ and count consume them.
func thetaCountByPairs(e *Engine, tj *physical.ThetaJoin, l, r *bat.View) (physOut, int, error) {
	pairsOnly := *tj
	pairsOnly.Count = nil
	pairs, reason, err := thetaKernel(context.Background(), &pairsOnly, l, r)
	if err != nil || reason != "" || pairs.kernel != "merge-thetajoin[float]" {
		return physOut{}, 0, fmt.Errorf("band kernel: %q, reason %q, err %v", pairs.kernel, reason, err)
	}
	members := tj.Members()
	slots := make([]bat.View, slices.MaxFunc(members, func(a, b *physical.Node) int { return a.Pos - b.Pos }).Pos+1)
	out, err := e.replayNodes(context.Background(), members[3:], []*bat.View{&pairs.view}, slots, nil, nil)
	if err != nil {
		return physOut{}, 0, err
	}
	return physOut{view: *out}, pairs.view.Rows(), nil
}

// BenchmarkThetaCount: count($l) over Q11's join at the sizes of SF 0.1
// (1 200 × 1 762 → ≈ 62 k pairs) and SF 1 (12 000 × 17 600 → ≈ 6 M), from
// the bounds against through the pairs.
func BenchmarkThetaCount(b *testing.B) {
	e := New(xenc.NewStore())
	for _, size := range [][2]int{{1200, 1762}, {12000, 17600}} {
		tj, l, r := thetaCountInput(b, size[0], size[1], 0.029)
		b.Run(fmt.Sprintf("%dx%d/count-only", size[0], size[1]), func(b *testing.B) {
			b.ReportAllocs()
			counted := 0
			for i := 0; i < b.N; i++ {
				out, n, reason := thetaCountKernel(tj, l, r)
				if reason != "" || out.kernel != "merge-thetacount[float]" {
					b.Fatalf("kernel = %s, reason %q", out.kernel, reason)
				}
				counted = n
			}
			b.ReportMetric(float64(counted), "pairs")
		})
		b.Run(fmt.Sprintf("%dx%d/pairs", size[0], size[1]), func(b *testing.B) {
			b.ReportAllocs()
			emitted := 0
			for i := 0; i < b.N; i++ {
				_, n, err := thetaCountByPairs(e, tj, l, r)
				if err != nil {
					b.Fatal(err)
				}
				emitted = n
			}
			b.ReportMetric(float64(emitted), "pairs")
		})
	}
}

// atomizeJoinInput is XMark Q8's join at SF 0.1 before atomization: the
// 2 550 person/@id attribute nodes and the 975 closed_auction/buyer/@person
// ones, each in an iteration of its own.
func atomizeJoinInput(tb testing.TB) (e *Engine, ids, buyers bat.NodeVec) {
	e = New(xenc.NewStore())
	doc, err := e.Store.LoadDocumentString("xmark.xml", xmark.GenerateString(0.1))
	if err != nil {
		tb.Fatal(err)
	}
	root := bat.MustTable("iter", bat.IntVec{1}, "item", bat.NodeVec{doc})
	attrs := func(elem, attr string) bat.NodeVec {
		owners := stepOnce(tb, e, root, algebra.Descendant, algebra.KindTest{Kind: algebra.TestElem, Name: elem})
		return stepOnce(tb, e, owners, algebra.Attribute, algebra.KindTest{Kind: algebra.TestAttr, Name: attr}).MustCol("item").(bat.NodeVec)
	}
	ids, buyers = attrs("person", "id"), attrs("buyer", "person")
	if len(ids) != 2550 || len(buyers) != 975 {
		tb.Fatalf("%d person ids and %d buyers, want 2550 and 975", len(ids), len(buyers))
	}
	return e, ids, buyers
}

// atomizeJoin is Q8's ⊛data on either side and the ⋈ of the atomized
// values, buyers probing the persons' table.
func atomizeJoin(e *Engine, ids, buyers bat.NodeVec) (physOut, error) {
	ctx := context.Background()
	data := &algebra.Op{Kind: algebra.OpFun, Fun: algebra.FunAtomize}
	atomize := func(nodes bat.NodeVec, iter, item string) (*bat.View, error) {
		v, _, err := e.funKernel(ctx, data, []bat.Vec{nodes}, len(nodes))
		if err != nil {
			return nil, err
		}
		return viewOf(bat.MustTable(iter, bat.Ramp(1, len(nodes)), item, v)), nil
	}
	l, err := atomize(buyers, "bi", "bitem")
	if err != nil {
		return physOut{}, err
	}
	r, err := atomize(ids, "ai", "aitem")
	if err != nil {
		return physOut{}, err
	}
	join := &algebra.Op{Kind: algebra.OpJoin, KeyL: []string{"bitem"}, KeyR: []string{"aitem"}}
	return physHashJoin(ctx, join, l, r, joinFull)
}

// BenchmarkAtomizeJoin is Q8's value join at SF 0.1, atomization
// included: both sides atomize to untyped vectors of the store's strings
// and the join hashes those strings.
func BenchmarkAtomizeJoin(b *testing.B) {
	e, ids, buyers := atomizeJoinInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := atomizeJoin(e, ids, buyers)
		if err != nil || out.kernel != "hash-join[str]" || out.view.Rows() != len(buyers) {
			b.Fatalf("kernel = %s, %d rows, err %v", out.kernel, out.view.Rows(), err)
		}
	}
	b.ReportMetric(float64(len(ids)+len(buyers)), "rows-atomized")
}

// TestKernelAllocBudget: δ over strictly sorted pairs hands its input on
// and a join on a dense key builds no table, so neither allocates per
// row or per key — a handful of slices whatever the size. (The kernels
// they shortcut insert every row into a map, and keep a match list per
// distinct key.) A count-only theta unit allocates for its
// inputs — keys, permutation, bounds, one output row per outer row — and
// nothing for the pairs it counts: the same few slices, of the same
// size, whether 3 % or 50 % of the product qualifies. Q8's atomize-and-
// join keeps one string header per atomized row, the hash table and the
// joined columns: a boxed Item per row (56 bytes each side, and an
// encoded key per row to hash) does not fit.
func TestKernelAllocBudget(t *testing.T) {
	ctx := context.Background()
	{
		ae, ids, buyers := atomizeJoinInput(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := atomizeJoin(ae, ids, buyers)
		runtime.ReadMemStats(&after)
		if err != nil || out.kernel != "hash-join[str]" {
			t.Fatalf("Q8's join ran %s, err %v", out.kernel, err)
		}
		rows := uint64(len(ids) + len(buyers))
		if per := (after.TotalAlloc - before.TotalAlloc) / rows; per > atomizeJoinBytesPerRow {
			t.Errorf("atomizing and joining %d rows allocates %d bytes per row, want at most %d", rows, per, atomizeJoinBytesPerRow)
		}
	}
	for _, n := range []int{400, 4000, 40000} {
		v := sortedPairs(n, false)
		if got := testing.AllocsPerRun(10, func() {
			if out, err := physDistinct(context.Background(), v); err != nil || out.pass != v {
				t.Fatalf("δ did not return its input (err %v)", err)
			}
		}); got > 8 {
			t.Errorf("δ over %d strictly sorted pairs allocates %.0f times, want at most 8 for any size", n, got)
		}
		l, r, o := denseJoinInput(10*n, n)
		if got := testing.AllocsPerRun(10, func() {
			if out, err := physHashJoin(ctx, o, l, r, joinFull); err != nil || out.view.Rows() != 10*n {
				t.Fatalf("dense join: %d rows, err %v", out.view.Rows(), err)
			}
		}); got > 30 {
			t.Errorf("join of %d rows on %d dense keys allocates %.0f times, want at most 30 for any size", 10*n, n, got)
		}
		var bytes [2]uint64
		for i, sel := range []float64{0.03, 0.5} {
			tj, l, r := thetaCountInput(t, n, n, sel)
			var counted int
			run := func() {
				var reason string
				if _, counted, reason = thetaCountKernel(tj, l, r); reason != "" {
					t.Fatalf("count-only unit demoted: %s", reason)
				}
			}
			if got := testing.AllocsPerRun(10, run); got > 24 {
				t.Errorf("count-only unit over %d × %d rows (%d pairs) allocates %.0f times, want at most 24 for any size", n, n, counted, got)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			if bytes[i] = after.TotalAlloc - before.TotalAlloc; bytes[i] > uint64(160*n) {
				t.Errorf("count-only unit over %d × %d rows (%d pairs) allocates %d bytes, want at most 160 per row", n, n, counted, bytes[i])
			}
		}
		if bytes[1] > bytes[0]+bytes[0]/4 {
			t.Errorf("count-only unit over %d × %d rows allocates %d bytes at 3 %% selectivity but %d at 50 %%", n, n, bytes[0], bytes[1])
		}
	}
}

// atomizeJoinBytesPerRow is the ceiling TestKernelAllocBudget holds Q8's
// atomize-and-join to, per atomized row: 95 bytes on the untyped
// vectors and the string-keyed table, 166 when each atomized row was a
// boxed Item and the join hashed an encoded key per row.
const atomizeJoinBytesPerRow = 120
