package engine

import (
	"sort"
	"strings"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// Typed comparators for the physical ϱ kernels. A boxed comparator
// builds two Items and calls CompareTotal for every comparison — during
// the sortedness scan and then O(n log n) more times inside the sort.
// A typed column admits a monomorphic comparator over the raw slice;
// each one reproduces CompareTotal's same-kind behavior exactly
// (integers compare through float64 like the boxed path, nodes by
// (fragment, preorder) document position).

// totalCmp returns a comparator equivalent to CompareTotal over rows of
// one column, specialized to the column's physical type.
func totalCmp(v bat.Vec) func(a, b int) int {
	switch x := v.(type) {
	case bat.IntVec:
		return func(a, b int) int { return cmpF(float64(x[a]), float64(x[b])) }
	case bat.FloatVec:
		return func(a, b int) int { return cmpF(x[a], x[b]) }
	case bat.StrVec:
		return func(a, b int) int { return strings.Compare(x[a], x[b]) }
	case bat.BoolVec:
		return func(a, b int) int {
			bi := func(v bool) int {
				if v {
					return 1
				}
				return 0
			}
			return bi(x[a]) - bi(x[b])
		}
	case bat.NodeVec:
		return func(a, b int) int {
			if x[a].Frag != x[b].Frag {
				return int(x[a].Frag) - int(x[b].Frag)
			}
			return int(x[a].Pre) - int(x[b].Pre)
		}
	default:
		return func(a, b int) int { return bat.CompareTotal(v.ItemAt(a), v.ItemAt(b)) }
	}
}

// physRowNumSort brings t into ϱ's (partition, order...) order and names
// the kernel that did it. The choice is made per execution by scanning
// the key columns:
//
//   - every key an ascending IntVec inside ±2^53: rows already in order
//     are returned as a column-sharing slice (rownum[scan-sorted]);
//     otherwise countSortPerm sorts by counting passes
//     (rownum[count-sort]) unless a key is too sparse for that;
//   - anything else — item, string or node keys, a descending key, a
//     sparse or huge int key: the same sortedness scan and stable sort
//     through typed comparators (rownum[sort]).
//
// All three produce the same rows in the same order.
func physRowNumSort(t *bat.Table, order []algebra.OrderSpec, part string) (*bat.Table, string, error) {
	vecs := make([]bat.Vec, 0, len(order)+1)
	descs := make([]bool, 0, len(order)+1)
	if part != "" {
		v, err := t.Col(part)
		if err != nil {
			return nil, "", err
		}
		vecs = append(vecs, v)
		descs = append(descs, false)
	}
	for _, o := range order {
		v, err := t.Col(o.Col)
		if err != nil {
			return nil, "", err
		}
		vecs = append(vecs, v)
		descs = append(descs, o.Desc)
	}
	n := t.Rows()
	if keys, lo, hi, ok := countSortKeys(vecs, descs); ok {
		if intRowsSorted(keys) {
			return t.Slice(0, n), "rownum[scan-sorted]", nil
		}
		if perm, ok := countSortPerm(keys, lo, hi, n); ok {
			return t.Gather(perm), "rownum[count-sort]", nil
		}
	}
	return comparatorRowNumSort(t, vecs, descs)
}

// comparatorRowNumSort is the ϱ sort for keys of any type: a sortedness
// scan, then sort.SliceStable, both through totalCmp's typed comparators.
func comparatorRowNumSort(t *bat.Table, vecs []bat.Vec, descs []bool) (*bat.Table, string, error) {
	cmps := make([]func(a, b int) int, len(vecs))
	for k, v := range vecs {
		cmps[k] = totalCmp(v)
	}
	less := func(ia, ib int) int {
		for k, cmp := range cmps {
			if c := cmp(ia, ib); c != 0 {
				if descs[k] {
					return -c
				}
				return c
			}
		}
		return 0
	}
	sorted := true
	for i := 1; i < t.Rows(); i++ {
		if less(i-1, i) > 0 {
			sorted = false
			break
		}
	}
	if sorted {
		return t.Slice(0, t.Rows()), "rownum[scan-sorted]", nil
	}
	idx := make([]int32, t.Rows())
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(int(idx[a]), int(idx[b])) < 0 })
	return t.Gather(idx), "rownum[sort]", nil
}

// exactFloatInt bounds the integers float64 represents exactly. totalCmp
// — and Item.Key, which groups aggr's partitions — order and identify
// IntVec values through float64, so beyond ±2^53 neighbouring integers
// tie. The kernels below compare native int64 and agree with that order
// only inside the bound; a key outside it sends them to the comparator /
// hash kernel they shortcut.
const exactFloatInt = int64(1) << 53

// countSortKeys reports whether every ϱ key is an ascending typed int
// column within ±exactFloatInt, and returns the columns (most
// significant first) with each one's minimum and maximum.
func countSortKeys(vecs []bat.Vec, descs []bool) (keys []bat.IntVec, lo, hi []int64, ok bool) {
	keys = allIntVecs(vecs)
	if len(keys) == 0 || keys[0].Len() == 0 {
		return nil, nil, nil, false
	}
	lo, hi = make([]int64, len(keys)), make([]int64, len(keys))
	for k, key := range keys {
		if descs[k] {
			return nil, nil, nil, false
		}
		mn, mx := key[0], key[0]
		for _, x := range key {
			mn, mx = min(mn, x), max(mx, x)
		}
		if mn < -exactFloatInt || mx > exactFloatInt {
			return nil, nil, nil, false
		}
		lo[k], hi[k] = mn, mx
	}
	return keys, lo, hi, true
}

// intRowsSorted reports whether the rows are lexicographically
// non-decreasing on the key columns.
func intRowsSorted(keys []bat.IntVec) bool {
	for i, n := 1, keys[0].Len(); i < n; i++ {
		for _, key := range keys {
			if a, b := key[i-1], key[i]; a != b {
				if a > b {
					return false
				}
				break
			}
		}
	}
	return true
}

// countSortSpan bounds the histogram of one counting pass: a key whose
// values spread over countSortSpan·n slots or more costs more to count
// than to compare.
const countSortSpan = 4

// countSortPerm sorts rows 0..n-1 stably on the key columns (most
// significant first) by least-significant-digit counting passes, one key
// per pass, and returns the permutation. A pass is skipped when the
// permutation reached so far is already non-decreasing on its key — a
// stable sort would not move a row. For ϱ (bi,ai) over a join result in
// (ai,bi) order that leaves a single pass, on bi. ok=false when a key
// that does need its pass is too sparse.
func countSortPerm(keys []bat.IntVec, lo, hi []int64, n int) (perm []int32, ok bool) {
	var next, counts []int32 // perm == nil stands for the identity
	for k := len(keys) - 1; k >= 0; k-- {
		key, base := keys[k], lo[k]
		if permNonDecreasing(key, perm) {
			continue
		}
		span := hi[k] - base + 1
		if span > int64(countSortSpan)*int64(n) {
			return nil, false
		}
		if int64(cap(counts)) < span+1 {
			counts = make([]int32, span+1)
		} else {
			counts = counts[:span+1]
			clear(counts)
		}
		for _, x := range key {
			counts[x-base+1]++
		}
		for c := 1; c < len(counts); c++ {
			counts[c] += counts[c-1]
		}
		if next == nil {
			next = make([]int32, n)
		}
		if perm == nil {
			for r, x := range key {
				next[counts[x-base]] = int32(r)
				counts[x-base]++
			}
		} else {
			for _, r := range perm {
				c := key[r] - base
				next[counts[c]] = r
				counts[c]++
			}
		}
		perm, next = next, perm
	}
	if perm == nil {
		perm = allRows(n)
	}
	return perm, true
}

// permNonDecreasing reports whether key, read in perm order (nil = row
// order), never descends.
func permNonDecreasing(key bat.IntVec, perm []int32) bool {
	if perm == nil {
		return ascending(key)
	}
	for i := 1; i < len(perm); i++ {
		if key[perm[i]] < key[perm[i-1]] {
			return false
		}
	}
	return true
}

// physAggr is the aggregation kernel with typed partitioned grouping.
// Group order is first-occurrence and each group's rows stay in input
// order; per-group aggregation reuses the shared aggregate() so every
// diagnostic and promotion rule is the boxed evalAggr's. Scalar aggregates and
// non-int partitions run the boxed evalAggr (the lowering never marks a
// scalar aggregate Parallel: it is a single fold whose float summation
// order must not change). An int partition column takes one of two
// groupings, chosen by scanning it:
//
//   - non-decreasing (what ϱ and the loop-lifted joins hand over): a
//     group is a run of rows, found by comparing neighbours (:int:runs);
//   - otherwise: a float64-keyed map per morsel, merged (:int).
func physAggr(ms *morsels, t *bat.Table, newCol string, agg algebra.AggKind, args []string, part, sep string) (*bat.Table, string, error) {
	var pInts bat.IntVec
	if part != "" {
		pv, err := t.Col(part)
		if err != nil {
			return nil, "", err
		}
		pInts, _ = pv.(bat.IntVec)
	}
	if pInts == nil {
		out, err := evalAggr(t, newCol, agg, args, part, sep)
		return out, "", err
	}
	var argVec bat.Vec
	if len(args) > 0 {
		var err error
		if argVec, err = t.Col(args[0]); err != nil {
			return nil, "", err
		}
	}
	var partOut bat.IntVec
	var aggOut bat.ItemVec
	var err error
	tag := ":int:runs"
	if starts, ok := intRuns(pInts); ok {
		partOut, aggOut, err = aggrRuns(ms, pInts, starts, agg, argVec, sep)
	} else {
		tag = ":int"
		partOut, aggOut, err = aggrHash(ms, pInts, agg, argVec, sep)
	}
	if err != nil {
		return nil, "", err
	}
	out, err := bat.NewTable(part, partOut, newCol, aggOut)
	return out, tag, err
}

// intRuns splits a non-decreasing int column into its runs of equal
// values: run g is rows starts[g]..starts[g+1]-1. ok=false when the
// column descends somewhere, or leaves ±exactFloatInt, where the map
// grouping's float64 keys merge neighbouring integers.
func intRuns(p bat.IntVec) (starts []int32, ok bool) {
	n := len(p)
	if n > 0 && (p[0] < -exactFloatInt || p[n-1] > exactFloatInt) {
		return nil, false
	}
	for i := 0; i < n; i++ {
		if i == 0 || p[i] != p[i-1] {
			if i > 0 && p[i] < p[i-1] {
				return nil, false
			}
			starts = append(starts, int32(i))
		}
	}
	return append(starts, int32(n)), true
}

// aggrRuns aggregates the runs of a sorted partition column: no map, no
// per-group row list (every group reads its slice of one shared ramp,
// count not even that), nothing to merge. The per-group aggregation fans
// out across group ranges, each group writing its own output slot.
func aggrRuns(ms *morsels, pInts bat.IntVec, starts []int32, agg algebra.AggKind, argVec bat.Vec, sep string) (bat.IntVec, bat.ItemVec, error) {
	ng := len(starts) - 1
	partOut := make(bat.IntVec, ng)
	aggOut := make(bat.ItemVec, ng)
	var ramp []int32
	if agg != algebra.AggCount {
		ramp = allRows(len(pInts))
	}
	gRanges := ms.split(ng)
	err := ms.run(len(gRanges), func(m int) error {
		for gi := gRanges[m].Lo; gi < gRanges[m].Hi; gi++ {
			lo, hi := starts[gi], starts[gi+1]
			partOut[gi] = pInts[lo]
			if agg == algebra.AggCount {
				aggOut[gi] = bat.Int(int64(hi - lo))
				continue
			}
			it, err := aggregate(agg, argVec, ramp[lo:hi], sep)
			if err != nil {
				return err
			}
			aggOut[gi] = it
		}
		return nil
	})
	return partOut, aggOut, err
}

// aggrHash groups an int partition column in any order through a
// float64-keyed map (the same numeric normalization Item.Key applies, so
// group identity — including the int/float meet — is evalAggr's) without
// boxing a Key per row. Each morsel groups its own row range (group
// lists in input order, group discovery in first-occurrence order), the
// partial groupings merge in morsel order — so the merged group lists
// and the global first-occurrence order are exactly the sequential
// scan's — and the per-group aggregation then fans out like aggrRuns'.
func aggrHash(ms *morsels, pInts bat.IntVec, agg algebra.AggKind, argVec bat.Vec, sep string) (bat.IntVec, bat.ItemVec, error) {
	type grouping struct {
		groups map[float64][]int32
		order  []float64
		rep    map[float64]int64
	}
	ranges := ms.split(len(pInts))
	parts := make([]grouping, len(ranges))
	if err := ms.run(len(ranges), func(m int) error {
		r := ranges[m]
		g := grouping{groups: make(map[float64][]int32), rep: make(map[float64]int64)}
		for i := r.Lo; i < r.Hi; i++ {
			k := float64(pInts[i])
			if _, seen := g.groups[k]; !seen {
				g.order = append(g.order, k)
				g.rep[k] = pInts[i]
			}
			g.groups[k] = append(g.groups[k], int32(i))
		}
		parts[m] = g
		return nil
	}); err != nil {
		return nil, nil, err
	}
	groups, order, rep := parts[0].groups, parts[0].order, parts[0].rep
	for _, p := range parts[1:] {
		for _, k := range p.order {
			if _, seen := groups[k]; !seen {
				order = append(order, k)
				rep[k] = p.rep[k]
			}
			groups[k] = append(groups[k], p.groups[k]...)
		}
	}
	partOut := make(bat.IntVec, len(order))
	aggOut := make(bat.ItemVec, len(order))
	gRanges := ms.split(len(order))
	err := ms.run(len(gRanges), func(m int) error {
		for gi := gRanges[m].Lo; gi < gRanges[m].Hi; gi++ {
			k := order[gi]
			it, err := aggregate(agg, argVec, groups[k], sep)
			if err != nil {
				return err
			}
			partOut[gi] = rep[k]
			aggOut[gi] = it
		}
		return nil
	})
	return partOut, aggOut, err
}

// physRowNumAttach appends ϱ's numbering column to a table already in
// (partition, order...) order, restarting at 1 on every partition change.
func physRowNumAttach(out *bat.Table, newCol, part string) error {
	nums := make(bat.IntVec, out.Rows())
	var n int64
	if part == "" {
		for i := range nums {
			nums[i] = int64(i) + 1
		}
		return out.AddCol(newCol, nums)
	}
	cmp := totalCmp(out.MustCol(part))
	for i := range nums {
		if i == 0 || cmp(i, i-1) != 0 {
			n = 0
		}
		n++
		nums[i] = n
	}
	return out.AddCol(newCol, nums)
}
