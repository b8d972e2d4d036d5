package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/physical"
)

// Sort-based inequality (band) join: the kernel behind a
// physical.ThetaJoin. The per-operator path builds all |A|·|B| rows of
// the × to keep the pairs σ lets through; this kernel extracts the two
// key columns once, sorts the inner side's row ids by key, and finds by
// binary search, per outer row, the band of the sorted inner side that
// qualifies — O((|A|+|B|)·log|B| + |out|), never touching a pair that
// does not qualify.
//
// Order contract: × emits left-major, right-minor, and σ keeps that
// order, so the kernel walks the outer rows in view order and emits each
// band in ascending inner view-row order (the band is a run of the
// key-sorted permutation; it is put back into row order before it is
// written). The output is row-for-row what × + ⊛ + σ produce.
//
// Demotion: the band search is only sound when bat.Compare induces one
// total order over the two columns and cannot fail. thetaLane mirrors
// Compare's branches; whatever it cannot vouch for — and any NaN or
// uncastable value met while extracting keys — demotes the unit to the
// ordinary ×, ⊛, σ kernels, which then produce the identical result or
// the identical error.
//
// Count-only units (physical.ThetaJoin.Count): when the pairs are read
// only by π by,of → δ → count/by, the answer per outer row is the width of
// its band and no pair is emitted (thetaCountKernel) — the join then costs
// O((|A|+|B|)·log|A|) whatever the size of its result.

// thetaKinds is the set of item kinds present in one key column.
type thetaKinds uint8

const (
	tkNum thetaKinds = 1 << iota
	tkStr
	tkUntyped
	tkBool
	tkNode
)

var thetaKindOf = [...]thetaKinds{
	bat.KInt: tkNum, bat.KFloat: tkNum, bat.KStr: tkStr,
	bat.KBool: tkBool, bat.KUntyped: tkUntyped, bat.KNode: tkNode,
}

// thetaColKinds scans the selected rows of a key column for the kinds it
// holds; typed vectors answer without a scan.
func thetaColKinds(v *bat.View, col bat.Vec) thetaKinds {
	if v.Rows() == 0 {
		return 0
	}
	switch c := col.(type) {
	case bat.IntVec, bat.FloatVec:
		return tkNum
	case bat.StrVec:
		return tkStr
	case bat.BoolVec:
		return tkBool
	case bat.ItemVec:
		var k thetaKinds
		for i, n := 0, v.Rows(); i < n; i++ {
			k |= thetaKindOf[c[v.Index(i)].Kind]
		}
		return k
	}
	return tkNode // node vectors, and any vector type the lanes cannot read
}

// thetaLane decides, from the kinds on each side, which single order
// bat.Compare applies to every (left, right) pair: the float lane
// (numeric × numeric, or numeric × untyped cast to double), the string
// lane (string × string, or string × untyped), or none — reported as the
// demotion reason. Keyed to Compare's branches:
//
//	node operand                      → error            → "node"
//	numeric × numeric|untyped         → cmpFloat         → float lane
//	untyped × untyped                 → per-pair choice  → "untyped×untyped"
//	bool operand                      → bool-only order  → "bool"
//	string|untyped × string|untyped   → strings.Compare  → string lane
//	numeric × string                  → error            → "mixed"
//
// An empty side holds no kinds and vetoes nothing: its product is empty.
func thetaLane(l, r thetaKinds) (float bool, reason string) {
	all := l | r
	switch {
	case all&tkNode != 0:
		return false, "node"
	case all&tkBool != 0:
		return false, "bool"
	case l&tkUntyped != 0 && r&tkUntyped != 0:
		return false, "untyped×untyped"
	case all&tkNum != 0 && all&tkStr != 0:
		return false, "mixed"
	}
	return all&tkNum != 0, ""
}

// thetaFloatKeys extracts a float-lane key column in view order, through
// the same AsFloat cast bat.Compare applies. A NaN — a double NaN or an
// untyped value that does not cast — is an error in Compare, so it is a
// demotion reason here.
func thetaFloatKeys(v *bat.View, col bat.Vec) ([]float64, string) {
	keys := make([]float64, v.Rows())
	switch c := col.(type) {
	case bat.IntVec:
		for i := range keys {
			keys[i] = float64(c[v.Index(i)])
		}
	case bat.FloatVec:
		for i := range keys {
			keys[i] = c[v.Index(i)]
		}
	case bat.ItemVec:
		for i := range keys {
			it := c[v.Index(i)]
			keys[i] = it.AsFloat()
			if it.Kind == bat.KUntyped && math.IsNaN(keys[i]) {
				return nil, "uncastable"
			}
		}
	}
	for _, k := range keys {
		if math.IsNaN(k) {
			return nil, "nan"
		}
	}
	return keys, ""
}

// thetaStrKeys extracts a string-lane key column in view order.
func thetaStrKeys(v *bat.View, col bat.Vec) []string {
	keys := make([]string, v.Rows())
	switch c := col.(type) {
	case bat.StrVec:
		for i := range keys {
			keys[i] = c[v.Index(i)]
		}
	case bat.ItemVec:
		for i := range keys {
			keys[i] = c[v.Index(i)].S // KStr and KUntyped both carry S
		}
	}
	return keys
}

// thetaBands is the probe side's answer: per outer row, the half-open
// band [lo, hi) of the key-sorted inner permutation that qualifies.
// Every band is a suffix (lo varies, hi = len(perm)) for < and ≤, a
// prefix (lo = 0) for > and ≥, so one bound per outer row suffices.
type thetaBands struct {
	perm   []int32 // inner view rows, ascending by key
	rank   []int32 // rank[perm[k]] = k
	bound  []int32 // per outer row: lo of a suffix band, hi of a prefix band
	suffix bool
}

func (b *thetaBands) band(i int) (lo, hi int) {
	if b.suffix {
		return int(b.bound[i]), len(b.perm)
	}
	return 0, int(b.bound[i])
}

// thetaProbe sorts the inner keys and binary-searches each outer key's
// bound: outer cmp inner qualifies the inner keys above (or at) the
// outer key for < (≤), below (or at) it for > (≥).
func thetaProbe[K cmp.Ordered](fun algebra.FunKind, outer, inner []K) *thetaBands {
	nr := len(inner)
	b := &thetaBands{
		perm:   make([]int32, nr),
		rank:   make([]int32, nr),
		bound:  make([]int32, len(outer)),
		suffix: fun == algebra.FunLt || fun == algebra.FunLe,
	}
	for j := range b.perm {
		b.perm[j] = int32(j)
	}
	// Ties may land in any order: a band always ends on a tie-group
	// boundary, and its rows are put back into row order when emitted.
	slices.SortFunc(b.perm, func(x, y int32) int { return cmp.Compare(inner[x], inner[y]) })
	sorted := make([]K, nr)
	for k, j := range b.perm {
		sorted[k] = inner[j]
		b.rank[j] = int32(k)
	}
	// l < r and l ≥ r split the sorted keys at the first one above l;
	// l ≤ r and l > r at the first one not below it.
	strict := fun == algebra.FunLt || fun == algebra.FunGe
	for i, key := range outer {
		if strict {
			b.bound[i] = int32(sort.Search(nr, func(k int) bool { return sorted[k] > key }))
		} else {
			b.bound[i] = int32(sort.Search(nr, func(k int) bool { return sorted[k] >= key }))
		}
	}
	return b
}

// thetaMorsels carves the outer rows into morsels of roughly equal work
// — rows probed plus pairs emitted, read off the output offsets — since
// a band join's cost follows its output, not its input.
func (m *morsels) thetaMorsels(off []int) []bat.Range {
	n := len(off) - 1
	size := m.e.morselRows()
	if !m.par || size <= 0 || n+off[n] <= size {
		return []bat.Range{{Lo: 0, Hi: n}}
	}
	var out []bat.Range
	lo := 0
	for i := 1; i <= n; i++ {
		if i == n || (i-lo)+(off[i]-off[lo]) >= size {
			out = append(out, bat.Range{Lo: lo, Hi: i})
			lo = i
		}
	}
	return out
}

// thetaEmit writes the (left, right) base-row pairs of the outer rows in
// rg into their slots of lIdx/rIdx. A narrow band is copied out of the
// permutation and sorted back into row order; a wide one is cheaper to
// collect by one pass over the inner rows testing each row's rank.
func thetaEmit(ctx context.Context, b *thetaBands, l, r *bat.View, off []int, rg bat.Range, lIdx, rIdx []int32) error {
	nr := len(b.perm)
	rsel := r.Sel()
	work := 0
	for i := rg.Lo; i < rg.Hi; i++ {
		dst := rIdx[off[i]:off[i+1]]
		k := len(dst)
		if work += k + 1; work >= cancelStride {
			if err := ctx.Err(); err != nil {
				return err
			}
			work = 0
		}
		if k == 0 {
			continue
		}
		lo, hi := b.band(i)
		if k*bits.Len(uint(k)) < nr {
			copy(dst, b.perm[lo:hi])
			slices.Sort(dst)
		} else {
			w, lo32, span := 0, int32(lo), uint32(k)
			for j, rk := range b.rank {
				if uint32(rk-lo32) < span { // lo ≤ rk < hi in one compare
					dst[w] = int32(j)
					w++
				}
			}
		}
		if rsel != nil {
			for x, j := range dst {
				dst[x] = rsel[j]
			}
		}
		li := int32(l.Index(i))
		ldst := lIdx[off[i]:off[i+1]]
		for x := range ldst {
			ldst[x] = li
		}
	}
	return nil
}

// thetaKeys holds a unit's two key columns in view order, on the one lane
// bat.Compare applies to every (left, right) pair.
type thetaKeys struct {
	float  bool
	lf, rf []float64 // float lane
	ls, rs []string  // string lane
}

func (k *thetaKeys) lane() string {
	if k.float {
		return "[float]"
	}
	return "[str]"
}

// thetaExtract reads the unit's key columns. A non-empty reason means the
// band search cannot vouch for them and the unit must be demoted.
func thetaExtract(tj *physical.ThetaJoin, l, r *bat.View) (k thetaKeys, reason string) {
	lcol, lerr := l.Base().Col(tj.LeftCol)
	rcol, rerr := r.Base().Col(tj.RightCol)
	if lerr != nil || rerr != nil {
		return k, "column" // × or ⊛ owns the diagnostic
	}
	if k.float, reason = thetaLane(thetaColKinds(l, lcol), thetaColKinds(r, rcol)); reason != "" {
		return k, reason
	}
	if !k.float {
		k.ls, k.rs = thetaStrKeys(l, lcol), thetaStrKeys(r, rcol)
		return k, ""
	}
	if k.lf, reason = thetaFloatKeys(l, lcol); reason != "" {
		return k, reason
	}
	k.rf, reason = thetaFloatKeys(r, rcol)
	return k, reason
}

// thetaKernel runs the band join over the unit's two input views. A
// non-empty reason means the kernel declined (nothing was produced) and
// the caller must run the unit's operators one by one.
func thetaKernel(ctx context.Context, ms *morsels, tj *physical.ThetaJoin, l, r *bat.View) (out physOut, reason string, err error) {
	keys, reason := thetaExtract(tj, l, r)
	if reason != "" {
		return physOut{}, reason, nil
	}
	var bands *thetaBands
	if keys.float {
		bands = thetaProbe(tj.Cmp, keys.lf, keys.rf)
	} else {
		bands = thetaProbe(tj.Cmp, keys.ls, keys.rs)
	}
	lb, rb := l.Base(), r.Base()

	nl := l.Rows()
	off := make([]int, nl+1)
	for i := 0; i < nl; i++ {
		lo, hi := bands.band(i)
		off[i+1] = off[i] + hi - lo
	}
	total := off[nl]
	if total > math.MaxInt32 {
		return physOut{}, "", fmt.Errorf("theta join result of %d rows exceeds the executor's row limit", total)
	}
	lIdx := make([]int32, total)
	rIdx := make([]int32, total)
	ranges := ms.thetaMorsels(off)
	if err := ms.run(len(ranges), func(m int) error {
		return thetaEmit(ctx, bands, l, r, off, ranges[m], lIdx, rIdx)
	}); err != nil {
		return physOut{}, "", err
	}
	// Only the columns the unit's consumers read are gathered; the rest
	// of σ's schema is never built.
	t, err := joinGather(demandedCols(lb, tj.Demand), demandedCols(rb, tj.Demand), lIdx, rIdx)
	if err != nil {
		return physOut{}, "", err
	}
	if slices.Contains(tj.Demand, tj.Fun.Op.Col) {
		// Every emitted pair satisfied the predicate: σ's column is all true.
		pass := make(bat.BoolVec, total)
		for i := range pass {
			pass[i] = true
		}
		if err := t.AddCol(tj.Fun.Op.Col, pass); err != nil {
			return physOut{}, "", err
		}
	}
	return physOut{view: bat.ViewOf(t), kernel: "merge-thetajoin" + keys.lane(), mat: total}, "", nil
}

// thetaIterCol reads an iteration column of a count-only unit in view
// order. ok=false unless it is a typed int column that never descends and
// stays within ±exactFloatInt — what δ and count's run grouping need to
// agree with their hashing fallbacks on which rows are equal.
func thetaIterCol(v *bat.View, name string) (iter []int64, ok bool) {
	col, err := v.Base().Col(name)
	if err != nil {
		return nil, false
	}
	ints, isInt := col.(bat.IntVec)
	if !isInt {
		return nil, false
	}
	iter = intKeysOf(ints, v)
	if n := len(iter); n > 0 && (iter[0] < -exactFloatInt || iter[n-1] > exactFloatInt) {
		return nil, false
	}
	return iter, ascending(iter)
}

// thetaReduce keeps one key per run of equal iter values, in place: the
// run's largest when wantMax, its smallest otherwise. The comparison is
// existential — `some x in X satisfies x < y` is `min X < y` — so the
// extreme key decides for the whole run, and a side reduced this way has
// no two rows δ could merge.
func thetaReduce[K cmp.Ordered](iter []int64, keys []K, wantMax bool) []K {
	w := 0
	for i, k := range keys {
		if i > 0 && iter[i] == iter[i-1] {
			if (k > keys[w-1]) == wantMax {
				keys[w-1] = k
			}
			continue
		}
		keys[w] = k
		w++
	}
	return keys[:w]
}

// thetaCount is count/by(δ(π by,of(σ(outer cmp inner)))) read off the
// band widths: one (by, count) row per run of the outer side's by column
// that has a partner, in by order, and the number of pairs counted.
func thetaCount[K cmp.Ordered](fun algebra.FunKind, by []int64, outer []K, of []int64, inner []K) (bat.IntVec, bat.ItemVec, int) {
	// outer > inner holds for some pair of two runs iff it holds for the
	// largest outer and the smallest inner key; < mirrors that.
	outerMax := fun == algebra.FunGt || fun == algebra.FunGe
	bands := thetaProbe(fun, thetaReduce(by, outer, outerMax), thetaReduce(of, inner, !outerMax))
	part := make(bat.IntVec, 0, len(bands.bound))
	cnt := make(bat.ItemVec, 0, len(bands.bound))
	run, total := -1, 0
	for i, v := range by {
		if i > 0 && v == by[i-1] {
			continue
		}
		run++
		if lo, hi := bands.band(run); hi > lo {
			part = append(part, v)
			cnt = append(cnt, bat.Int(int64(hi-lo)))
			total += hi - lo
		}
	}
	return part, cnt, total
}

// thetaCountKernel answers a count-only unit over its two input views
// without emitting a pair. counted is the number of (by, of) pairs the
// counts add up to; a non-empty reason means the kernel declined.
func thetaCountKernel(tj *physical.ThetaJoin, l, r *bat.View) (out physOut, counted int, reason string) {
	by, byOK := thetaIterCol(l, tj.CountBy)
	of, ofOK := thetaIterCol(r, tj.CountOf)
	if !byOK || !ofOK {
		return physOut{}, 0, "iter-order"
	}
	keys, reason := thetaExtract(tj, l, r)
	if reason != "" {
		return physOut{}, 0, reason
	}
	var part bat.IntVec
	var cnt bat.ItemVec
	if keys.float {
		part, cnt, counted = thetaCount(tj.Cmp, by, keys.lf, of, keys.rf)
	} else {
		part, cnt, counted = thetaCount(tj.Cmp, by, keys.ls, of, keys.rs)
	}
	o := tj.Count.Op
	return physOut{view: bat.ViewOf(bat.MustTable(o.Part, part, o.Col, cnt)), kernel: "merge-thetacount" + keys.lane()}, counted, ""
}

// demandedCols is t restricted to the demanded columns, in t's order;
// the column vectors are shared.
func demandedCols(t *bat.Table, demand []string) *bat.Table {
	var keep []string
	for _, c := range t.Cols() {
		if slices.Contains(demand, c) {
			keep = append(keep, c)
		}
	}
	out, err := t.Project(keep...)
	if err != nil {
		panic(err) // unreachable: keep names columns of t, each once
	}
	return out
}

// execTheta runs one theta-join unit: the band kernel (or, for a
// count-only unit, the count read off its bounds) when the key columns
// admit it, the member kernels otherwise. Errors return pre-wrapped with
// the failing member's operator kind — callers must not wrap them again.
func (e *Engine) execTheta(ctx context.Context, tj *physical.ThetaJoin, in []*bat.View, tr *Trace, worker int) (_ *bat.View, err error) {
	defer recoverKernel(&err, tj.Select.Op.Kind, "theta join")
	members := tj.Members()
	if e.onApply != nil {
		for _, nd := range members {
			e.onApply(nd.Op)
		}
	}
	e.sh.working.Add(1)
	defer e.sh.working.Add(-1)
	start := time.Now() //pfvet:allow determinism -- trace wall-time only, not query results
	ms := &morsels{e: e, ctx: ctx, par: tj.Select.Parallel}
	reason := e.thetaDemote
	var out physOut
	counted := 0
	switch {
	case reason != "":
	case tj.Count != nil:
		out, counted, reason = thetaCountKernel(tj, in[0], in[1])
	default:
		var err error
		out, reason, err = thetaKernel(ctx, ms, tj, in[0], in[1])
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, wrapKernelErr(err, tj.Select.Op.Kind, "theta join")
		}
	}
	if reason != "" {
		// The reason goes on the first member, so that it is on record
		// even when a later member fails.
		return e.replayNodes(ctx, members, in, tr, worker, func(i int, st OpStat) OpStat {
			if i == 0 {
				st.Kernel += " (demoted:" + reason + ")"
			}
			return st
		})
	}
	if e.Check {
		owed := tj.Demand
		if tj.Count != nil {
			owed = tj.Count.Op.Schema()
		}
		if err := checkOutput(tj.Out(), out.view, owed); err != nil {
			return nil, fmt.Errorf("%s: %w", tj.Out().Op.Kind, err)
		}
	}
	if tr != nil {
		wall := time.Since(start) //pfvet:allow determinism -- trace wall-time only, not query results
		rowsIn, rowsOut := viewRowsIn(in), out.view.Rows()
		// The unit's wall time, input rows and materialization sit on its
		// output boundary. The members below it report the pairs that
		// passed through them — the product itself never existed, and a
		// count-only unit emitted no pair at all: its count reports the
		// pairs it counted as its input.
		pairs := rowsOut
		if tj.Count != nil {
			pairs = 0
		}
		for i, nd := range members[:len(members)-1] {
			st := OpStat{RowsIn: pairs, RowsOut: pairs, Worker: worker, Kernel: nd.Kernel, ThetaJoin: tj.ID}
			if i == 0 {
				st.RowsIn = rowsIn
			}
			tr.recordStat(nd.Op, st)
		}
		st := OpStat{Wall: wall, RowsIn: rowsIn, RowsOut: rowsOut, Worker: worker,
			Kernel: out.kernel, RowsMat: out.mat, ThetaJoin: tj.ID}
		if tj.Count != nil {
			st.RowsIn = counted
		}
		st.setMorsels(ms)
		tr.recordStat(tj.Out().Op, st)
	}
	return out.view, nil
}
