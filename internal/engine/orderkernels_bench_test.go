package engine

import (
	"context"
	"math/rand"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
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
	l = bat.ViewOf(bat.MustTable("ai", lk, "s2", bat.Ramp(1, n)))
	r = bat.ViewOf(bat.MustTable("vin", bat.Ramp(1, keys), "item", bat.Ramp(100, keys)))
	return l, r, &algebra.Op{Kind: algebra.OpJoin, KeyL: []string{"ai"}, KeyR: []string{"vin"}}
}

func BenchmarkIntJoinDense(b *testing.B) {
	l, r, o := denseJoinInput(q11Pairs, 1200)
	e := New(xenc.NewStore())
	ctx := context.Background()
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := physHashJoin(ctx, e.testMorsels(), o, l, r, joinFull)
			if err != nil || out.kernel != "hash-join[int:dense]" {
				b.Fatalf("kernel = %s, err = %v", out.kernel, err)
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		lk, rk := l.Base().MustCol("ai").(bat.IntVec), r.Base().MustCol("vin").(bat.IntVec)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := intHashJoin(ctx, e.testMorsels(), o, l, r, joinFull, lk, rk); err != nil {
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
	e := New(xenc.NewStore())
	b.Run("runs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, tag, err := physAggr(e.testMorsels(), tab, "cnt", algebra.AggCount, nil, "iter", "")
			if err != nil || tag != ":int:runs" {
				b.Fatalf("tag = %s, err = %v", tag, err)
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := aggrHash(e.testMorsels(), part, algebra.AggCount, nil, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestKernelAllocBudget: δ over strictly sorted pairs hands its input on
// and a join on a dense key builds no table, so neither allocates per
// row or per key — a handful of slices whatever the size. (The kernels
// they shortcut insert every row into a map, and keep a match list per
// distinct key.) The join runs unsplit here; a morsel split adds two
// index buffers per morsel.
func TestKernelAllocBudget(t *testing.T) {
	e := New(xenc.NewStore())
	ctx := context.Background()
	unsplit := &morsels{e: e, ctx: ctx}
	for _, n := range []int{400, 4000, 40000} {
		v := sortedPairs(n, false)
		if got := testing.AllocsPerRun(10, func() {
			if out, err := physDistinct(e.testMorsels(), v); err != nil || out.view != v {
				t.Fatalf("δ did not return its input (err %v)", err)
			}
		}); got > 8 {
			t.Errorf("δ over %d strictly sorted pairs allocates %.0f times, want at most 8 for any size", n, got)
		}
		l, r, o := denseJoinInput(10*n, n)
		if got := testing.AllocsPerRun(10, func() {
			if out, err := physHashJoin(ctx, unsplit, o, l, r, joinFull); err != nil || out.view.Rows() != 10*n {
				t.Fatalf("dense join: %d rows, err %v", out.view.Rows(), err)
			}
		}); got > 30 {
			t.Errorf("join of %d rows on %d dense keys allocates %.0f times, want at most 30 for any size", 10*n, n, got)
		}
	}
}
