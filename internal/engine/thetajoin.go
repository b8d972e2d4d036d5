package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/physical"
)

// Sort-based inequality (band) join: the kernel of a theta-join node
// (physical.ThetaJoin). Running the ×, ⊛ and σ the node covers builds
// all |A|·|B| rows of the product to keep the pairs σ lets through; this
// kernel extracts the two key columns once, sorts the inner side's row
// ids by key, and finds by binary search, per outer row, the band of the
// sorted inner side that qualifies — O((|A|+|B|)·log|B| + |out|), never
// touching a pair that does not qualify.
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
// uncastable value met while extracting keys — demotes the node: it
// runs the ×, ⊛, σ kernels itself (thetaMembers), which then produce the
// identical result or the identical error.
//
// Count-only nodes (physical.ThetaJoin.Count): when the pairs are read
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
	case bat.UntypedVec:
		return tkUntyped
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
// lane (string × string, string × untyped, untyped × untyped), or none —
// reported as the demotion reason. Keyed to Compare's branches:
//
//	node operand                      → error            → "node"
//	bool operand                      → bool-only order  → "bool"
//	numeric × string                  → error            → "mixed"
//	untyped on both sides, a number   → two orders       → "mixed"
//	numeric × numeric|untyped         → cmpFloat         → float lane
//	string|untyped × string|untyped   → strings.Compare  → string lane
//
// An empty side holds no kinds and vetoes nothing: its product is empty.
func thetaLane(l, r thetaKinds) (float bool, reason string) {
	all := l | r
	switch {
	case all&tkNode != 0:
		return false, "node"
	case all&tkBool != 0:
		return false, "bool"
	case all&tkNum != 0 && all&tkStr != 0,
		all&tkNum != 0 && l&tkUntyped != 0 && r&tkUntyped != 0:
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
	case bat.UntypedVec:
		for i := range keys {
			keys[i] = bat.Untyped(c[v.Index(i)]).AsFloat()
			if math.IsNaN(keys[i]) {
				return nil, "uncastable"
			}
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
	if c, ok := strRows(col); ok {
		for i := range keys {
			keys[i] = c[v.Index(i)]
		}
	} else if c, ok := col.(bat.ItemVec); ok {
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

// thetaEmit writes the (left, right) base-row pairs of every outer row
// into its slots of lIdx/rIdx. A narrow band is copied out of the
// permutation and sorted back into row order; a wide one is cheaper to
// collect by one pass over the inner rows testing each row's rank.
func thetaEmit(ctx context.Context, b *thetaBands, l, r *bat.View, off []int, lIdx, rIdx []int32) error {
	nr := len(b.perm)
	rsel := r.Sel()
	work := 0
	for i := 0; i < len(off)-1; i++ {
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

// thetaKeys holds a node's two key columns in view order, on the one lane
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

// thetaExtract reads the node's key columns. A non-empty reason means the
// band search cannot vouch for them and the node must be demoted.
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

// thetaKernel runs the band join over the node's two input views. A
// non-empty reason means the kernel declined (nothing was produced) and
// the caller must run the node's operators one by one.
func thetaKernel(ctx context.Context, tj *physical.ThetaJoin, l, r *bat.View) (out physOut, reason string, err error) {
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
	if err := thetaEmit(ctx, bands, l, r, off, lIdx, rIdx); err != nil {
		return physOut{}, "", err
	}
	// Only the columns the node's consumers read are gathered; the rest
	// of σ's schema is never built.
	t, err := joinGather(demandedCols(lb, tj.Demand), demandedCols(rb, tj.Demand), lIdx, rIdx)
	if err != nil {
		return physOut{}, "", err
	}
	if slices.Contains(tj.Demand, tj.Fun.Col) {
		// Every emitted pair satisfied the predicate: σ's column is all true.
		pass := make(bat.BoolVec, total)
		for i := range pass {
			pass[i] = true
		}
		if t, err = t.With(tj.Fun.Col, pass); err != nil {
			return physOut{}, "", err
		}
	}
	return physOut{view: bat.ViewOf(t), kernel: "merge-thetajoin", tag: keys.lane(), mat: total}, "", nil
}

// thetaIterCol reads an iteration column of a count-only node in view
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
func thetaCount[K cmp.Ordered](fun algebra.FunKind, by []int64, outer []K, of []int64, inner []K) (bat.IntVec, bat.IntVec, int) {
	// outer > inner holds for some pair of two runs iff it holds for the
	// largest outer and the smallest inner key; < mirrors that.
	outerMax := fun == algebra.FunGt || fun == algebra.FunGe
	bands := thetaProbe(fun, thetaReduce(by, outer, outerMax), thetaReduce(of, inner, !outerMax))
	part := make(bat.IntVec, 0, len(bands.bound))
	cnt := make(bat.IntVec, 0, len(bands.bound))
	run, total := -1, 0
	for i, v := range by {
		if i > 0 && v == by[i-1] {
			continue
		}
		run++
		if lo, hi := bands.band(run); hi > lo {
			part = append(part, v)
			cnt = append(cnt, int64(hi-lo))
			total += hi - lo
		}
	}
	return part, cnt, total
}

// thetaCountKernel answers a count-only node over its two input views
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
	var part, cnt bat.IntVec
	if keys.float {
		part, cnt, counted = thetaCount(tj.Cmp, by, keys.lf, of, keys.rf)
	} else {
		part, cnt, counted = thetaCount(tj.Cmp, by, keys.ls, of, keys.rs)
	}
	o := tj.Count
	return physOut{view: bat.ViewOf(bat.MustTable(o.Part, part, o.Col, cnt)), kernel: "merge-thetacount", tag: keys.lane()}, counted, ""
}

// demandedCols is t restricted to the demanded columns, in t's order;
// the column vectors are shared.
func demandedCols(t *bat.Table, demand []string) *bat.Table {
	var keep []bat.ProjPair
	for c := 0; c < t.NumCols(); c++ {
		if name := t.ColName(c); slices.Contains(demand, name) {
			keep = append(keep, bat.ProjPair{New: name, Old: name})
		}
	}
	out, err := t.Project(keep...)
	if err != nil {
		panic(err) // unreachable: keep names columns of t, each once
	}
	return out
}

// physThetaJoin runs a theta-join node over ×'s two inputs: the band
// kernel or, for a count-only node, the count read off its bands when
// the key columns admit it, and the operators the node covers when they
// do not — reported as the product they build, with the reason.
func (e *Engine) physThetaJoin(ctx context.Context, tj *physical.ThetaJoin, l, r *bat.View) (physOut, error) {
	reason := e.thetaDemote
	if reason == "" {
		var out physOut
		var err error
		if tj.Count != nil {
			out, _, reason = thetaCountKernel(tj, l, r)
		} else {
			out, reason, err = thetaKernel(ctx, tj, l, r)
		}
		if reason == "" {
			return out, err
		}
	}
	out, err := e.thetaMembers(ctx, tj, []*bat.View{l, r})
	out.kernel, out.tag = "nested-product", " (demoted:"+reason+")"
	return out, err
}

// thetaMembers runs the operators a theta-join node covers one after the
// other through their own kernels, the first over the node's inputs:
// ×, ⊛ and σ, then π, δ and count on a count-only node. They get no slot,
// stat or trace entry of their own; a pair-emitting node's output is cut
// to its Demand like the band kernel's. An error is named by the kind of
// the operator that raised it, as it would be had that operator been a
// node.
func (e *Engine) thetaMembers(ctx context.Context, tj *physical.ThetaJoin, in []*bat.View) (physOut, error) {
	ops := []*algebra.Op{tj.Cross, tj.Fun, tj.Select, tj.Project, tj.Distinct, tj.Count}
	if tj.Count == nil {
		ops = ops[:3]
	}
	mat := 0
	for _, o := range ops {
		out, err := e.execKernel(ctx, &physical.Node{Op: o}, in)
		if err != nil {
			return physOut{}, &memberError{kind: o.Kind, err: err}
		}
		mat += out.mat
		v := out.view
		in = []*bat.View{&v}
	}
	if tj.Count != nil {
		return physOut{view: *in[0], mat: mat}, nil
	}
	keep := make([]bat.ProjPair, len(tj.Demand))
	for i, c := range tj.Demand {
		keep[i] = bat.ProjPair{New: c, Old: c}
	}
	v, err := in[0].Project(keep...)
	if err != nil {
		return physOut{}, err
	}
	return physOut{view: v, mat: mat}, nil
}

// memberError is the error of an operator a theta-join node covers,
// already named by that operator's kind.
type memberError struct {
	kind algebra.OpKind
	err  error
}

func (m *memberError) Error() string { return m.kind.String() + ": " + m.err.Error() }
func (m *memberError) Unwrap() error { return m.err }
