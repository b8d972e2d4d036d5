package engine

import (
	"context"
	"testing"

	"pathfinder/internal/bat"
)

// The δ boxing fix (distinctIndices): loop-lifted plans apply δ to
// iter/pos/pre key sets almost exclusively, and the old generic path
// boxed every cell into an Item and encoded it through rowKey just to
// build a hash key. The typed path hashes the int vectors directly.
//
//	BenchmarkDistinct/typed-int-2col    vs   BenchmarkDistinct/generic-2col
//
// measure the same data through both paths.

func distinctBenchInput(n int) []bat.Vec {
	iter := make(bat.IntVec, n)
	item := make(bat.IntVec, n)
	for i := range iter {
		iter[i] = int64(i % (n / 4))
		item[i] = int64(i % 97)
	}
	return []bat.Vec{iter, item}
}

// genericDistinctIndices is the pre-refactor δ inner loop: Item boxing +
// rowKey encoding for every row, kept verbatim as the benchmark baseline.
func genericDistinctIndices(vecs []bat.Vec, n int) []int32 {
	seen := make(map[string]struct{}, n)
	var idx []int32
	var buf []byte
	for i := 0; i < n; i++ {
		buf = rowKey(buf[:0], vecs, i)
		if _, ok := seen[string(buf)]; !ok {
			seen[string(buf)] = struct{}{}
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// sortedPairs is n (a, b) rows in lexicographic order, the shape a
// loop-lifted join hands δ: with dup every pair appears twice in a row,
// otherwise the order is strict.
func sortedPairs(n int, dup bool) *bat.View {
	a, b := make(bat.IntVec, n), make(bat.IntVec, n)
	for i := range a {
		k := i
		if dup {
			k = i / 2
		}
		a[i], b[i] = int64(k/50), int64(k%50)
	}
	return viewOf(bat.MustTable("a", a, "b", b))
}

func BenchmarkDistinct(b *testing.B) {
	const n = 100_000
	vecs := distinctBenchInput(n)
	for _, c := range []struct {
		name string
		dup  bool
	}{{"sorted-2col", true}, {"strict-2col", false}} {
		v := sortedPairs(n, c.dup)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := physDistinct(context.Background(), v)
				if err != nil || out.kernel != "distinct[sorted]" {
					b.Fatalf("kernel = %s, err = %v", out.kernel, err)
				}
			}
		})
	}
	b.Run("typed-int-2col", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			idx, kernel, err := distinctIndices(context.Background(), vecs, n, nil)
			if err != nil || kernel != "distinct[int]" {
				b.Fatalf("kernel = %s, err = %v", kernel, err)
			}
			_ = idx
		}
	})
	b.Run("generic-2col", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = genericDistinctIndices(vecs, n)
		}
	})
}

// TestDistinctTypedMatchesGeneric pins the typed paths to the generic
// reference on every arity (1, 2, and the ≥3 byte-packed case).
func TestDistinctTypedMatchesGeneric(t *testing.T) {
	const n = 1000
	a := make(bat.IntVec, n)
	b := make(bat.IntVec, n)
	c := make(bat.IntVec, n)
	for i := 0; i < n; i++ {
		a[i] = int64(i % 7)
		b[i] = int64(i % 13)
		c[i] = int64(i % 3)
	}
	for arity, vecs := range map[int][]bat.Vec{
		1: {a}, 2: {a, b}, 3: {a, b, c},
	} {
		got, kernel, err := distinctIndices(context.Background(), vecs, n, nil)
		if err != nil || kernel != "distinct[int]" {
			t.Fatalf("arity %d: kernel = %s, err = %v", arity, kernel, err)
		}
		want := genericDistinctIndices(vecs, n)
		if len(got) != len(want) {
			t.Fatalf("arity %d: %d rows vs generic %d", arity, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("arity %d: row %d: %d vs generic %d", arity, i, got[i], want[i])
			}
		}
	}
	// A selection vector restricts and orders the rows considered:
	// values a[500]=3, a[2]=2, a[2]=2, a[9]=2 dedup to rows 500, 2.
	sel := []int32{500, 2, 2, 9}
	got, _, _ := distinctIndices(context.Background(), []bat.Vec{a}, len(sel), sel)
	if len(got) != 2 || got[0] != 500 || got[1] != 2 {
		t.Fatalf("sel-restricted distinct = %v, want [500 2]", got)
	}
}
