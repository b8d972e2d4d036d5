// Package engine evaluates Pathfinder's relational algebra plans over
// bat.Table values and the xenc document store. It plays the role of the
// MonetDB back-end in the paper: a main-memory column engine with one
// local extension — the staircase join — that injects tree awareness into
// the otherwise generic relational operators.
package engine

import (
	"cmp"
	"context"
	"errors"
	"slices"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// The step operator is loop-lifted like every other operator of the
// algebra: one call evaluates the location step for all iterations. Its
// input is read as two typed columns ordered on (iter, fragment, pre); a
// run — the maximal stretch of rows sharing iter and fragment — is the
// context sequence of one iteration in one tree, already in document
// order, and is handed to the staircase join as a sub-slice of the input.
// Runs are independent and emit iter-major, so any cut of the rows at run
// boundaries yields parts that concatenate to the sequential output.

// nodeTest is a step's node test resolved against the store's name pools
// once, so the axis scans compare two integers per node.
type nodeTest struct {
	any   bool          // node(): every tree node and every attribute
	attr  bool          // attribute test: attribute refs only, never tree nodes
	kind  xenc.NodeKind // the tree-node kind kept; KindAttr, which no tree node has, keeps none
	name  int32         // surrogate the node must carry; anyName when the test names none
	alias int32         // the name's other surrogate on a scratch view (xenc.Store.TagIDs), else name
}

// anyName marks a test without a name. It differs from -1, what the
// pools answer for a name they never saw: such a test matches nothing.
const anyName int32 = -2

func (e *Engine) resolveTest(test algebra.KindTest) nodeTest {
	t := nodeTest{kind: xenc.KindAttr, name: anyName, alias: anyName}
	switch test.Kind {
	case algebra.TestNode:
		t.any = true
	case algebra.TestElem:
		t.kind = xenc.KindElem
		if test.Name != "" {
			t.name, t.alias = e.Store.TagIDs(test.Name)
		}
	case algebra.TestText:
		t.kind = xenc.KindText
	case algebra.TestComment:
		t.kind = xenc.KindComment
	case algebra.TestAttr:
		t.attr = true
		if test.Name != "" {
			t.name, t.alias = e.Store.AttrNameIDs(test.Name)
		}
	}
	return t
}

// tree reports whether tree node p of f passes the test.
func (t nodeTest) tree(f *xenc.Fragment, p int32) bool {
	return t.any || f.Kind[p] == t.kind && (t.name == anyName || f.Prop[p] == t.name || f.Prop[p] == t.alias)
}

// attribute reports whether the attribute at index a of f's attribute
// table passes the test.
func (t nodeTest) attribute(f *xenc.Fragment, a int32) bool {
	return t.any || t.attr && (t.name == anyName || f.AttrName[a] == t.name || f.AttrName[a] == t.alias)
}

// stepStaircase implements the staircase join of [7] for one run: ctx is
// the context of one iteration in fragment f, non-decreasing in pre
// (attribute refs, at AttrBase and above, last). Nodes that pass t are
// appended to out in document order and duplicate-free: context pruning,
// result skipping and single-pass range scans deliver that order for the
// recursive axes; for the others docOrder verifies it in one pass and
// sorts only a run whose contexts nest or repeat.
func stepStaircase(f *xenc.Fragment, ctx []bat.NodeRef, axis algebra.Axis, t nodeTest, out bat.NodeVec) bat.NodeVec {
	frag, from := ctx[0].Frag, len(out)
	switch axis {
	case algebra.Descendant, algebra.DescendantOrSelf:
		emittedTo := int32(-1) // the last pre a prior context's scan reached
		for _, c := range ctx {
			v := c.Pre
			if v >= xenc.AttrBase {
				continue // attributes have no subtree
			}
			lo, hi := v+1, v+f.Size[v]
			if axis == algebra.DescendantOrSelf {
				lo = v
			}
			if lo <= emittedTo {
				lo = emittedTo + 1 // skip: already produced by a prior context
			}
			for p := lo; p <= hi; p++ {
				if t.tree(f, p) {
					out = append(out, bat.NodeRef{Frag: frag, Pre: p})
				}
			}
			emittedTo = max(emittedTo, hi)
		}
		return out

	case algebra.Child:
		// Sibling jumps: O(children) per context.
		for _, c := range ctx {
			v := c.Pre
			if v >= xenc.AttrBase {
				continue
			}
			end := v + f.Size[v]
			for p := v + 1; p <= end; p += f.Size[p] + 1 {
				if t.tree(f, p) {
					out = append(out, bat.NodeRef{Frag: frag, Pre: p})
				}
			}
		}
		return docOrder(out, from)

	case algebra.Parent:
		for _, c := range ctx {
			p := c.Pre
			if p >= xenc.AttrBase {
				p = f.AttrOwner[p-xenc.AttrBase]
			} else if p = f.Parent[p]; p < 0 {
				continue
			}
			if t.tree(f, p) {
				out = append(out, bat.NodeRef{Frag: frag, Pre: p})
			}
		}
		return docOrder(out, from)

	case algebra.Ancestor, algebra.AncestorOrSelf:
		// Ancestor chains of document-ordered contexts overlap: walking up
		// from anchor a, every node below the previous anchor u (and u
		// itself when anchors are emitted) is an ancestor of u and was
		// produced by its walk, so the walk stops there — the staircase
		// pruning for reverse axes. Each walk's nodes lie above all earlier
		// ones; reversed in place they leave the output sorted. Attribute
		// contexts follow the tree contexts and restart the staircase at
		// their owners; docOrder merges the two sequences when both occur.
		u, self := int32(-1), axis == algebra.AncestorOrSelf
		for i, c := range ctx {
			a := c.Pre
			if a >= xenc.AttrBase {
				if i == 0 || ctx[i-1].Pre < xenc.AttrBase {
					u = -1
				}
				a, self = f.AttrOwner[a-xenc.AttrBase], true // the owner is an ancestor of its attributes
			}
			p, start := a, len(out)
			if !self {
				p = f.Parent[a]
			}
			for ; p > u || p == u && !self && p >= 0; p = f.Parent[p] {
				if t.tree(f, p) {
					out = append(out, bat.NodeRef{Frag: frag, Pre: p})
				}
			}
			slices.Reverse(out[start:])
			u = a
		}
		return docOrder(out, from)

	case algebra.Following:
		// following(v) = { w : pre(w) > pre(v)+size(v) }; the union over
		// the context is a single scan from the smallest boundary — the
		// staircase skip for forward axes.
		boundary := int32(-1)
		for _, c := range ctx {
			if v := c.Pre; v < xenc.AttrBase && (boundary < 0 || v+f.Size[v] < boundary) {
				boundary = v + f.Size[v]
			}
		}
		if boundary < 0 {
			return out
		}
		for p := boundary + 1; p < int32(f.NodeCount()); p++ {
			if t.tree(f, p) {
				out = append(out, bat.NodeRef{Frag: frag, Pre: p})
			}
		}
		return out

	case algebra.Preceding:
		// preceding(v) = { w : pre(w)+size(w) < pre(v) }; union over the
		// context is governed by the largest context pre.
		maxPre := int32(-1)
		for _, c := range ctx {
			if c.Pre < xenc.AttrBase {
				maxPre = max(maxPre, c.Pre)
			}
		}
		for p := int32(0); p < maxPre; p++ {
			if p+f.Size[p] < maxPre && t.tree(f, p) {
				out = append(out, bat.NodeRef{Frag: frag, Pre: p})
			}
		}
		return out

	case algebra.FollowingSibling, algebra.PrecedingSibling:
		for _, c := range ctx {
			v := c.Pre
			if v >= xenc.AttrBase || f.Parent[v] < 0 {
				continue
			}
			par := f.Parent[v]
			lo, hi := par+1, v-1
			if axis == algebra.FollowingSibling {
				lo, hi = v+f.Size[v]+1, par+f.Size[par]
			}
			for p := lo; p <= hi; p += f.Size[p] + 1 {
				if t.tree(f, p) {
					out = append(out, bat.NodeRef{Frag: frag, Pre: p})
				}
			}
		}
		return docOrder(out, from)

	case algebra.Self:
		for _, c := range ctx {
			if v := c.Pre; v >= xenc.AttrBase && t.attribute(f, v-xenc.AttrBase) || v < xenc.AttrBase && t.tree(f, v) {
				out = append(out, c)
			}
		}
		return docOrder(out, from)

	case algebra.Attribute:
		for _, c := range ctx {
			v := c.Pre
			if v >= xenc.AttrBase || f.Kind[v] != xenc.KindElem {
				continue
			}
			lo, hi := f.Attrs(v)
			for a := lo; a < hi; a++ {
				if t.attribute(f, a) {
					out = append(out, bat.NodeRef{Frag: frag, Pre: xenc.AttrBase + a})
				}
			}
		}
		return docOrder(out, from)
	}
	return out
}

// stepNaive is the tree-unaware fallback for one run: each context node
// issues an independent region query over the fragment (no pruning, no
// skipping), and duplicates across contexts are eliminated afterwards.
// This is the plan shape a generic RDBMS would run for the XPath
// Accelerator region predicates, and the ablation baseline for
// BenchmarkStaircase*.
func stepNaive(f *xenc.Fragment, ctx []bat.NodeRef, axis algebra.Axis, t nodeTest, out bat.NodeVec) bat.NodeVec {
	frag, from := ctx[0].Frag, len(out)
	switch axis {
	case algebra.Descendant, algebra.DescendantOrSelf:
		for _, c := range ctx {
			v := c.Pre
			if v >= xenc.AttrBase {
				continue
			}
			lo := v + 1
			if axis == algebra.DescendantOrSelf {
				lo = v
			}
			for p := lo; p <= v+f.Size[v]; p++ {
				if t.tree(f, p) {
					out = append(out, bat.NodeRef{Frag: frag, Pre: p})
				}
			}
		}
	case algebra.Following:
		for _, c := range ctx {
			v := c.Pre
			if v >= xenc.AttrBase {
				continue
			}
			for p := v + f.Size[v] + 1; p < int32(f.NodeCount()); p++ {
				if t.tree(f, p) {
					out = append(out, bat.NodeRef{Frag: frag, Pre: p})
				}
			}
		}
	case algebra.Preceding:
		for _, c := range ctx {
			v := c.Pre
			if v >= xenc.AttrBase {
				continue
			}
			for p := int32(0); p < v; p++ {
				if p+f.Size[p] < v && t.tree(f, p) {
					out = append(out, bat.NodeRef{Frag: frag, Pre: p})
				}
			}
		}
	case algebra.Ancestor, algebra.AncestorOrSelf:
		// Region predicate scan: w is an ancestor of v iff
		// pre(w) < pre(v) ∧ pre(v) ≤ pre(w)+size(w).
		for _, c := range ctx {
			v, self := c.Pre, axis == algebra.AncestorOrSelf
			if v >= xenc.AttrBase {
				v, self = f.AttrOwner[v-xenc.AttrBase], true // the owner is an ancestor of its attributes
			}
			for w := int32(0); w <= v; w++ {
				if (w < v && v <= w+f.Size[w] || w == v && self) && t.tree(f, w) {
					out = append(out, bat.NodeRef{Frag: frag, Pre: w})
				}
			}
		}
	default:
		// The remaining axes have no interesting naive/staircase split.
		return stepStaircase(f, ctx, axis, t, out)
	}
	return docOrder(out, from)
}

// docOrder establishes the output contract on out[from:], the nodes one
// run appended: strictly ascending pre. One linear scan verifies it; only
// a run that fails — its contexts nest or repeat — is sorted and loses
// its duplicates.
func docOrder(out bat.NodeVec, from int) bat.NodeVec {
	seg := out[from:]
	for i := 1; i < len(seg); i++ {
		if seg[i].Pre <= seg[i-1].Pre {
			slices.SortFunc(seg, func(a, b bat.NodeRef) int { return cmp.Compare(a.Pre, b.Pre) })
			return out[:from+len(slices.Compact(seg))]
		}
	}
	return out
}

// errStepOverAtomic is XPTY0019: a location step's context holds an
// atomic item.
var errStepOverAtomic = errors.New("XPTY0019: location step over atomic item")

// stepContext reads the context table as typed columns ordered on
// (iter, fragment, pre) — the order loop-lifted plans deliver, verified
// in one scan. An item column that is not node-typed is unboxed once and
// fails on its first atomic item; a table out of order is sorted once.
// Duplicate rows stay: the axis scans prune them or docOrder drops what
// they produce twice.
func stepContext(in *bat.Table) ([]int64, bat.NodeVec, error) {
	iters, err := in.Ints("iter")
	if err != nil {
		return nil, nil, err
	}
	col, err := in.Col("item")
	if err != nil {
		return nil, nil, err
	}
	items, typed := col.(bat.NodeVec)
	if !typed {
		items = make(bat.NodeVec, col.Len())
		for i := range items {
			it := col.ItemAt(i)
			if it.Kind != bat.KNode {
				return nil, nil, errStepOverAtomic
			}
			items[i] = it.N
		}
	}
	for i := 1; i < len(items); i++ {
		a, b := items[i-1], items[i]
		if iters[i-1] > iters[i] || iters[i-1] == iters[i] && (a.Frag > b.Frag || a.Frag == b.Frag && a.Pre > b.Pre) {
			iters, items = sortContext(iters, items)
			break
		}
	}
	return iters, items, nil
}

// sortContext returns copies of the context columns sorted on
// (iter, fragment, pre).
func sortContext(iters []int64, items bat.NodeVec) ([]int64, bat.NodeVec) {
	type row struct {
		iter int64
		node bat.NodeRef
	}
	rows := make([]row, len(items))
	for i := range rows {
		rows[i] = row{iters[i], items[i]}
	}
	slices.SortFunc(rows, func(a, b row) int {
		return cmp.Or(cmp.Compare(a.iter, b.iter), cmp.Compare(a.node.Frag, b.node.Frag), cmp.Compare(a.node.Pre, b.node.Pre))
	})
	iters, items = make([]int64, len(rows)), make(bat.NodeVec, len(rows))
	for i, r := range rows {
		iters[i], items[i] = r.iter, r.node
	}
	return iters, items
}

// stepOutHint caps the output capacity a step reserves up front.
const stepOutHint = 4096

// evalStep runs a full location step over all iterations at once and
// emits iter|item rows sorted by iter and document order, duplicate-free
// per iter — exactly the fs:distinct-doc-order contract XPath steps must
// satisfy. It walks the runs of the context rows in place, fetching the
// fragment only when it changes, and appends each run's result nodes,
// then that many copies of the run's iter, to one pair of output columns.
func (e *Engine) evalStep(ctx context.Context, in *bat.Table, axis algebra.Axis, test algebra.KindTest) (*bat.Table, error) {
	iters, items, err := stepContext(in)
	if err != nil {
		return nil, err
	}
	t := e.resolveTest(test)
	// Most steps keep about a node per context; a selective one over a
	// large context (//item) must not hold a context-sized column.
	n := len(items)
	hint := min(n, stepOutHint)
	outIter, outItem := make(bat.IntVec, 0, hint), make(bat.NodeVec, 0, hint)
	var f *xenc.Fragment
	fragID, lastPoll := int32(-1), 0
	for lo, hi := 0, 0; lo < n; lo = hi {
		iter, frag := iters[lo], items[lo].Frag
		for hi = lo + 1; hi < n && iters[hi] == iter && items[hi].Frag == frag; hi++ {
		}
		if lo-lastPoll >= cancelStride {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			lastPoll = lo
		}
		if frag != fragID {
			f, fragID = e.Store.Frag(frag), frag
		}
		if e.Staircase {
			outItem = stepStaircase(f, items[lo:hi], axis, t, outItem)
		} else {
			outItem = stepNaive(f, items[lo:hi], axis, t, outItem)
		}
		for range len(outItem) - len(outIter) {
			outIter = append(outIter, iter)
		}
	}
	return bat.NewTable("iter", outIter, "item", outItem)
}
