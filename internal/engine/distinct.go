package engine

import (
	"pathfinder/internal/bat"
)

// distinctIndices computes δ's surviving row indices — the first
// occurrence of each distinct row, in input order — over the given key
// column vectors. sel restricts (and orders) the rows considered; nil
// means rows off..off+n-1 (off lets a morsel scan its dense range
// without synthesizing a selection vector; it is ignored when sel is
// non-nil). The returned indices are absolute rows of the underlying
// vectors, and the second result names the kernel that ran.
//
// When every key column is a typed int vector the rows hash as native
// integers — single column through a map[int64], pairs through a
// map[[2]int64], wider keys through a fixed-width byte packing — instead
// of boxing every cell into an Item and encoding it through rowKey. The
// loop-lifted plans δ appears in key on iter/pos/pre columns almost
// exclusively, so this path dominates (see BenchmarkDistinct).
func distinctIndices(vecs []bat.Vec, n int, sel []int32, off int) ([]int32, string) {
	row := func(i int) int32 {
		if sel == nil {
			return int32(i + off)
		}
		return sel[i]
	}
	ints := allIntVecs(vecs)
	idx := make([]int32, 0, n)
	if len(ints) > 0 {
		switch len(ints) {
		case 1:
			seen := make(map[int64]struct{}, n)
			k0 := ints[0]
			for i := 0; i < n; i++ {
				r := row(i)
				k := k0[r]
				if _, ok := seen[k]; !ok {
					seen[k] = struct{}{}
					idx = append(idx, r)
				}
			}
		case 2:
			seen := make(map[[2]int64]struct{}, n)
			k0, k1 := ints[0], ints[1]
			for i := 0; i < n; i++ {
				r := row(i)
				k := [2]int64{k0[r], k1[r]}
				if _, ok := seen[k]; !ok {
					seen[k] = struct{}{}
					idx = append(idx, r)
				}
			}
		default:
			// Fixed-width little-endian packing: 8 bytes per column, no
			// separators needed since every field has the same width.
			seen := make(map[string]struct{}, n)
			buf := make([]byte, 0, 8*len(ints))
			for i := 0; i < n; i++ {
				r := row(i)
				buf = buf[:0]
				for _, iv := range ints {
					u := uint64(iv[r])
					for s := 0; s < 64; s += 8 {
						buf = append(buf, byte(u>>s))
					}
				}
				if _, ok := seen[string(buf)]; !ok {
					seen[string(buf)] = struct{}{}
					idx = append(idx, r)
				}
			}
		}
		return idx, "distinct[int]"
	}
	seen := make(map[string]struct{}, n)
	var buf []byte
	for i := 0; i < n; i++ {
		r := row(i)
		buf = rowKey(buf[:0], vecs, int(r))
		if _, ok := seen[string(buf)]; !ok {
			seen[string(buf)] = struct{}{}
			idx = append(idx, r)
		}
	}
	return idx, "distinct[hash]"
}

// allIntVecs returns the vectors as typed int vectors, or nil when any
// of them has another physical type.
func allIntVecs(vecs []bat.Vec) []bat.IntVec {
	ints := make([]bat.IntVec, 0, len(vecs))
	for _, v := range vecs {
		iv, ok := v.(bat.IntVec)
		if !ok {
			return nil
		}
		ints = append(ints, iv)
	}
	return ints
}

// sortedDistinct is δ over int key columns whose rows arrive
// lexicographically non-decreasing — what a loop-lifted join emits and
// the paper's back-end counts on: duplicates are then adjacent, so one
// compare per row replaces the hash insert. sel restricts and orders the
// rows as in distinctIndices. ok=false at the first descending pair: the
// caller hashes. strict reports that no two rows were equal — the input
// is its own δ and idx is nil; otherwise idx holds the first row of every
// run of equal rows, exactly the hash kernels' first occurrences. Keys
// compare as native int64, like the map keys of distinct[int].
func sortedDistinct(ints []bat.IntVec, n int, sel []int32) (idx []int32, strict, ok bool) {
	if len(ints) == 0 {
		return nil, false, false
	}
	row := func(i int) int32 {
		if sel == nil {
			return int32(i)
		}
		return sel[i]
	}
	strict = true
	for i := 1; i < n; i++ {
		p, r := row(i-1), row(i)
		c := 0
		for _, k := range ints {
			if a, b := k[p], k[r]; a != b {
				if a > b {
					return nil, false, false
				}
				c = -1
				break
			}
		}
		switch {
		case c < 0 && !strict:
			idx = append(idx, r)
		case c == 0 && strict:
			strict = false
			idx = make([]int32, i, n)
			for j := range idx {
				idx[j] = row(j)
			}
		}
	}
	return idx, strict, true
}
