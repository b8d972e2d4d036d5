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
// order. The step dispatches on its axis once. An axis that gives each
// context its nodes independently of the others (child, attribute,
// parent, self, the siblings) is one loop over all context rows; a
// recursive axis (descendant, ancestor, following, preceding, whose
// staircase pruning spans the contexts of a run) hands the staircase join
// one run at a time, as a sub-slice of the input. Either way the output
// is iter-major, each run's nodes in document order.

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

// stepStaircase implements the staircase join of [7] for one run of a
// recursive axis: ctx is the context of one iteration in fragment f,
// non-decreasing in pre (attribute refs, at AttrBase and above, last).
// Nodes that pass t are appended to out in document order and
// duplicate-free: context pruning, result skipping and single-pass range
// scans deliver that order; ancestor walks, reversed, leave tree and
// attribute contexts' sequences for docOrder to merge.
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
	}
	return out
}

// stepNaive is the tree-unaware fallback for one run of a recursive
// axis: each context node issues an independent region query over the
// fragment (no pruning, no skipping), and duplicates across contexts are
// eliminated afterwards.
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
// satisfy.
func (e *Engine) evalStep(ctx context.Context, in *bat.Table, axis algebra.Axis, test algebra.KindTest) (*bat.Table, error) {
	iters, items, err := stepContext(in)
	if err != nil {
		return nil, err
	}
	// Most steps keep about a node per context; a selective one over a
	// large context (//item) must not hold a context-sized column.
	hint := min(len(items), stepOutHint)
	s := &stepRows{
		store: e.Store, ctx: ctx, iters: iters, items: items, t: e.resolveTest(test),
		fragID: -1, poll: cancelStride,
		outIter: make(bat.IntVec, 0, hint), outItem: make(bat.NodeVec, 0, hint),
	}
	switch axis {
	case algebra.Child:
		err = s.child()
	case algebra.Attribute:
		err = s.attribute()
	case algebra.Parent:
		err = s.parent()
	case algebra.Self:
		err = s.self()
	case algebra.FollowingSibling, algebra.PrecedingSibling:
		err = s.siblings(axis == algebra.FollowingSibling)
	default:
		err = s.runs(axis, e.Staircase)
	}
	if err != nil {
		return nil, err
	}
	return bat.NewTable("iter", s.outIter, "item", s.outItem)
}

// stepRows is one step's pass over its context rows and its two output
// columns, appended together.
//
// A per-context axis is one loop over the rows that calls at on each. at
// has work only at the rows advance marks (next): where the context is
// due a poll, the fragment changes, or a run of several contexts begins
// or ends. A run of one context — what a join hands a step — costs
// nothing: its nodes are in document order already. Several contexts can
// produce out of order (nested contexts) or twice, so their run's output
// goes through docOrder when the run ends.
type stepRows struct {
	store   *xenc.Store
	ctx     context.Context
	iters   []int64
	items   bat.NodeVec
	t       nodeTest
	f       *xenc.Fragment // the fragment of the rows up to next
	fragID  int32
	run     int // the run of several contexts [run, end) is open while run < end
	end     int
	from    int // its first output row
	poll    int // the row at which the context is next polled
	next    int // the next row at has work at
	outIter bat.IntVec
	outItem bat.NodeVec
}

// at makes row i the current row.
func (s *stepRows) at(i int) error {
	if i < s.next {
		return nil
	}
	return s.advance(i)
}

// advance is at's work at row i.
func (s *stepRows) advance(i int) error {
	if i >= s.poll {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		s.poll = i + cancelStride
	}
	if i < s.end {
		s.next = min(s.end, s.poll)
		return nil
	}
	s.close()
	frag := s.items[i].Frag
	if frag != s.fragID {
		s.f, s.fragID = s.store.Frag(frag), frag
	}
	j := i + 1
	if s.sameRun(i, j) {
		for j++; s.sameRun(i, j); j++ {
		}
		s.run, s.end, s.from = i, j, len(s.outItem)
	} else {
		// Runs of one context in one fragment: no work up to the row that
		// starts a longer run or changes fragment.
		for ; j < len(s.items) && s.items[j].Frag == frag && !s.sameRun(j, j+1); j++ {
		}
	}
	s.next = min(j, s.poll)
	return nil
}

// sameRun reports whether row j continues the run of row i.
func (s *stepRows) sameRun(i, j int) bool {
	return j < len(s.items) && s.iters[j] == s.iters[i] && s.items[j].Frag == s.items[i].Frag
}

// close puts the output of the open run of several contexts, if there is
// one, in document order.
func (s *stepRows) close() {
	if s.run < s.end {
		s.outItem = docOrder(s.outItem, s.from)
		s.outIter = s.outIter[:len(s.outItem)]
		s.run = s.end
	}
}

// emit appends node p of fragment frag to iter's output.
func (s *stepRows) emit(iter int64, frag, p int32) {
	s.outItem = append(s.outItem, bat.NodeRef{Frag: frag, Pre: p})
	s.outIter = append(s.outIter, iter)
}

// child: sibling jumps, O(children) per context.
func (s *stepRows) child() error {
	for i, c := range s.items {
		if err := s.at(i); err != nil {
			return err
		}
		f, v := s.f, c.Pre
		if v >= xenc.AttrBase {
			continue
		}
		for p, end := v+1, v+f.Size[v]; p <= end; p += f.Size[p] + 1 {
			if s.t.tree(f, p) {
				s.emit(s.iters[i], c.Frag, p)
			}
		}
	}
	s.close()
	return nil
}

// attribute: an element context's attribute table range.
func (s *stepRows) attribute() error {
	for i, c := range s.items {
		if err := s.at(i); err != nil {
			return err
		}
		f, v := s.f, c.Pre
		if v >= xenc.AttrBase || f.Kind[v] != xenc.KindElem {
			continue
		}
		lo, hi := f.Attrs(v)
		for a := lo; a < hi; a++ {
			if s.t.attribute(f, a) {
				s.emit(s.iters[i], c.Frag, xenc.AttrBase+a)
			}
		}
	}
	s.close()
	return nil
}

// parent: an attribute's owner, a tree node's parent.
func (s *stepRows) parent() error {
	for i, c := range s.items {
		if err := s.at(i); err != nil {
			return err
		}
		f, p := s.f, c.Pre
		if p >= xenc.AttrBase {
			p = f.AttrOwner[p-xenc.AttrBase]
		} else if p = f.Parent[p]; p < 0 {
			continue
		}
		if s.t.tree(f, p) {
			s.emit(s.iters[i], c.Frag, p)
		}
	}
	s.close()
	return nil
}

// self: the contexts that pass the test.
func (s *stepRows) self() error {
	for i, c := range s.items {
		if err := s.at(i); err != nil {
			return err
		}
		if v := c.Pre; v >= xenc.AttrBase && s.t.attribute(s.f, v-xenc.AttrBase) || v < xenc.AttrBase && s.t.tree(s.f, v) {
			s.emit(s.iters[i], c.Frag, v)
		}
	}
	s.close()
	return nil
}

// siblings: sibling jumps through the parent's children after a tree
// context (following) or before it.
func (s *stepRows) siblings(following bool) error {
	for i, c := range s.items {
		if err := s.at(i); err != nil {
			return err
		}
		f, v := s.f, c.Pre
		if v >= xenc.AttrBase || f.Parent[v] < 0 {
			continue
		}
		par := f.Parent[v]
		lo, hi := par+1, v-1
		if following {
			lo, hi = v+f.Size[v]+1, par+f.Size[par]
		}
		for p := lo; p <= hi; p += f.Size[p] + 1 {
			if s.t.tree(f, p) {
				s.emit(s.iters[i], c.Frag, p)
			}
		}
	}
	s.close()
	return nil
}

// runs hands a recursive axis to the staircase join — to its naive
// ablation when staircase is off — one run at a time, fetching the
// fragment only when it changes; the join orders each run's output
// itself.
func (s *stepRows) runs(axis algebra.Axis, staircase bool) error {
	n := len(s.items)
	for lo, hi := 0, 0; lo < n; lo = hi {
		iter, frag := s.iters[lo], s.items[lo].Frag
		for hi = lo + 1; s.sameRun(lo, hi); hi++ {
		}
		if lo >= s.poll {
			if err := s.ctx.Err(); err != nil {
				return err
			}
			s.poll = lo + cancelStride
		}
		if frag != s.fragID {
			s.f, s.fragID = s.store.Frag(frag), frag
		}
		if staircase {
			s.outItem = stepStaircase(s.f, s.items[lo:hi], axis, s.t, s.outItem)
		} else {
			s.outItem = stepNaive(s.f, s.items[lo:hi], axis, s.t, s.outItem)
		}
		for range len(s.outItem) - len(s.outIter) {
			s.outIter = append(s.outIter, iter)
		}
	}
	return nil
}
