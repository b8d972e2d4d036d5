package engine

// The step kernel this package shipped before the loop-lifted one,
// verbatim: contexts filed into a map keyed by (iter, fragment), one
// staircase join per group into a scratch buffer, node test applied
// afterwards. It is the reference TestStepMatchesReference compares the
// loop-lifted kernel against, row for row; nothing outside the tests
// calls it.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// refStepGroup evaluates one XPath location step for a group of context nodes
// that share an iter value and a fragment, appending the result pre ranks
// (document-ordered, duplicate-free) to out. ctx must be sorted in
// document order. When staircase is false, the evaluation falls back to a
// context-at-a-time region query without pruning or skipping — the
// "tree-unaware RDBMS" behaviour the staircase join improves upon — with a
// final sort/dedup pass.
func (e *Engine) refStepGroup(f *xenc.Fragment, ctx []int32, axis algebra.Axis, out []int32) []int32 {
	if e.Staircase {
		return refStepStaircase(f, ctx, axis, out)
	}
	return refStepNaive(f, ctx, axis, out)
}

// refStepStaircase implements the staircase join of [7]: context pruning,
// result skipping, and single-pass range scans keep the output sorted and
// duplicate-free without a separate δ.
func refStepStaircase(f *xenc.Fragment, ctx []int32, axis algebra.Axis, out []int32) []int32 {
	switch axis {
	case algebra.Descendant, algebra.DescendantOrSelf:
		return refStepDescSeeded(f, ctx, axis, -1, out)

	case algebra.Child:
		// Sibling jumps: O(children) per context. Nested contexts can
		// interleave results, so sort+dedup afterwards.
		for _, v := range ctx {
			v = refElemContext(f, v)
			if v < 0 {
				continue
			}
			end := v + f.Size[v]
			for c := v + 1; c <= end; c += f.Size[c] + 1 {
				out = append(out, c)
			}
		}
		return refSortDedup(out)

	case algebra.Parent:
		for _, v := range ctx {
			if v >= xenc.AttrBase {
				out = append(out, f.AttrOwner[v-xenc.AttrBase])
				continue
			}
			if p := f.Parent[v]; p >= 0 {
				out = append(out, p)
			}
		}
		return refSortDedup(out)

	case algebra.Ancestor, algebra.AncestorOrSelf:
		// Ancestor chains of document-ordered contexts overlap heavily;
		// stop each walk at the first already-seen node (its ancestors are
		// in the result already) — the staircase pruning for reverse axes.
		seen := make(map[int32]bool, len(ctx)*2)
		for _, v := range ctx {
			p := v
			if v >= xenc.AttrBase {
				p = f.AttrOwner[v-xenc.AttrBase]
				if axis == algebra.Ancestor {
					if !seen[p] {
						seen[p] = true
						out = append(out, p)
					}
					p = f.Parent[p]
				}
			} else if axis == algebra.Ancestor {
				p = f.Parent[v]
			}
			for p >= 0 && !seen[p] {
				seen[p] = true
				out = append(out, p)
				p = f.Parent[p]
			}
		}
		return refSortDedup(out)

	case algebra.Following:
		// following(v) = { w : pre(w) > pre(v)+size(v) }; the union over
		// the context is a single scan from the smallest boundary — the
		// staircase skip for forward axes.
		if len(ctx) == 0 {
			return out
		}
		boundary := int32(-1)
		first := true
		for _, v := range ctx {
			v = refElemContext(f, v)
			if v < 0 {
				continue
			}
			if b := v + f.Size[v]; first || b < boundary {
				boundary, first = b, false
			}
		}
		if first {
			return out
		}
		for p := boundary + 1; p < int32(f.NodeCount()); p++ {
			out = append(out, p)
		}
		return out

	case algebra.Preceding:
		// preceding(v) = { w : pre(w)+size(w) < pre(v) }; union over the
		// context is governed by the largest context pre.
		var maxPre int32 = -1
		for _, v := range ctx {
			v = refElemContext(f, v)
			if v > maxPre {
				maxPre = v
			}
		}
		for p := int32(0); p < maxPre; p++ {
			if p+f.Size[p] < maxPre {
				out = append(out, p)
			}
		}
		return out

	case algebra.FollowingSibling, algebra.PrecedingSibling:
		for _, v := range ctx {
			v = refElemContext(f, v)
			if v < 0 {
				continue
			}
			par := f.Parent[v]
			if par < 0 {
				continue
			}
			end := par + f.Size[par]
			for c := par + 1; c <= end; c += f.Size[c] + 1 {
				if axis == algebra.FollowingSibling && c > v {
					out = append(out, c)
				}
				if axis == algebra.PrecedingSibling && c < v {
					out = append(out, c)
				}
			}
		}
		return refSortDedup(out)

	case algebra.Self:
		out = append(out, ctx...)
		return refSortDedup(out)

	case algebra.Attribute:
		for _, v := range ctx {
			if v >= xenc.AttrBase || f.Kind[v] != xenc.KindElem {
				continue
			}
			lo, hi := f.Attrs(v)
			for i := lo; i < hi; i++ {
				out = append(out, xenc.AttrBase+i)
			}
		}
		return refSortDedup(out)
	}
	return out
}

// refStepDescSeeded is the descendant/descendant-or-self staircase scan
// with an explicit starting boundary: prune covered contexts, emit each
// (pre, pre+size] range, skip overlap with what has been emitted
// already. emittedTo = -1 is the whole-context scan; a morsel over a
// context sub-range seeds it with the prefix maximum of v+size(v) over
// all earlier contexts — exactly the boundary the sequential scan
// carries at that point, so per-morsel outputs concatenate into the
// identical pre sequence and the prune/skip guarantees (sorted,
// duplicate-free, each node visited once) survive the split.
func refStepDescSeeded(f *xenc.Fragment, ctx []int32, axis algebra.Axis, emittedTo int32, out []int32) []int32 {
	for _, v := range ctx {
		v = refElemContext(f, v)
		if v < 0 {
			continue
		}
		lo, hi := v+1, v+f.Size[v]
		if axis == algebra.DescendantOrSelf {
			lo = v
		}
		if lo <= emittedTo {
			lo = emittedTo + 1 // skip: already produced by a prior context
		}
		for p := lo; p <= hi; p++ {
			out = append(out, p)
		}
		if hi > emittedTo {
			emittedTo = hi
		}
	}
	return out
}

// refStepNaive is the tree-unaware fallback: each context node issues an
// independent region query over the fragment (binary-searched start, no
// pruning), and duplicates across contexts are eliminated afterwards. This
// is the plan shape a generic RDBMS would run for the XPath Accelerator
// region predicates, and the ablation baseline for BenchmarkStaircase*.
func refStepNaive(f *xenc.Fragment, ctx []int32, axis algebra.Axis, out []int32) []int32 {
	switch axis {
	case algebra.Descendant, algebra.DescendantOrSelf:
		for _, v := range ctx {
			v = refElemContext(f, v)
			if v < 0 {
				continue
			}
			lo := v + 1
			if axis == algebra.DescendantOrSelf {
				lo = v
			}
			for p := lo; p <= v+f.Size[v]; p++ {
				out = append(out, p)
			}
		}
		return refSortDedup(out)
	case algebra.Following:
		for _, v := range ctx {
			v = refElemContext(f, v)
			if v < 0 {
				continue
			}
			for p := v + f.Size[v] + 1; p < int32(f.NodeCount()); p++ {
				out = append(out, p)
			}
		}
		return refSortDedup(out)
	case algebra.Preceding:
		for _, v := range ctx {
			v = refElemContext(f, v)
			for p := int32(0); p < v; p++ {
				if p+f.Size[p] < v {
					out = append(out, p)
				}
			}
		}
		return refSortDedup(out)
	case algebra.Ancestor, algebra.AncestorOrSelf:
		// Region predicate scan: w is an ancestor of v iff
		// pre(w) < pre(v) ∧ pre(v) ≤ pre(w)+size(w).
		for _, v := range ctx {
			p := v
			if v >= xenc.AttrBase {
				// The owner element is an ancestor of its attributes.
				p = f.AttrOwner[v-xenc.AttrBase]
				out = append(out, p)
			}
			for w := int32(0); w <= p; w++ {
				if w < p && p <= w+f.Size[w] || (w == p && axis == algebra.AncestorOrSelf && v < xenc.AttrBase) {
					out = append(out, w)
				}
			}
		}
		return refSortDedup(out)
	default:
		// The remaining axes have no interesting naive/staircase split.
		return refStepStaircase(f, ctx, axis, out)
	}
}

// refElemContext normalizes a context pre for subtree axes: attribute refs
// have no descendants/children/following, signalled by -1.
func refElemContext(f *xenc.Fragment, v int32) int32 {
	if v >= xenc.AttrBase {
		return -1
	}
	return v
}

func refSortDedup(pres []int32) []int32 {
	if len(pres) < 2 {
		return pres
	}
	sorted := true
	for i := 1; i < len(pres); i++ {
		if pres[i] <= pres[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		return pres
	}
	sort.Slice(pres, func(i, j int) bool { return pres[i] < pres[j] })
	w := 1
	for i := 1; i < len(pres); i++ {
		if pres[i] != pres[i-1] {
			pres[w] = pres[i]
			w++
		}
	}
	return pres[:w]
}

// refMatchTest reports whether node pre of fragment f satisfies the node
// test; tagID/attrID are the pre-resolved surrogates for name tests
// (-1 = name unknown in the store, matches nothing).
func refMatchTest(s *xenc.Store, f *xenc.Fragment, pre int32, test algebra.KindTest, tagID, attrID int32) bool {
	if pre >= xenc.AttrBase {
		if test.Kind == algebra.TestAttr {
			return test.Name == "" || f.AttrName[pre-xenc.AttrBase] == attrID
		}
		return test.Kind == algebra.TestNode
	}
	switch test.Kind {
	case algebra.TestElem:
		if f.Kind[pre] != xenc.KindElem {
			return false
		}
		return test.Name == "" || f.Prop[pre] == tagID
	case algebra.TestText:
		return f.Kind[pre] == xenc.KindText
	case algebra.TestComment:
		return f.Kind[pre] == xenc.KindComment
	case algebra.TestNode:
		return true
	case algebra.TestAttr:
		return false
	}
	return false
}

// stepKey identifies one context group of a location step: the contexts
// of a single iteration living in a single fragment.
type stepKey struct {
	iter int64
	frag int32
}

// stepGroups groups the input context pairs by (iter, fragment) and
// returns the groups plus the keys sorted by (iter, frag) — the emission
// order of the step.
func stepGroups(in *bat.Table) (map[stepKey][]int32, []stepKey, error) {
	iters, err := in.Ints("iter")
	if err != nil {
		return nil, nil, err
	}
	itemsVec, err := in.Col("item")
	if err != nil {
		return nil, nil, err
	}
	groups := make(map[stepKey][]int32)
	var order []stepKey
	for i := 0; i < in.Rows(); i++ {
		it := itemsVec.ItemAt(i)
		k := stepKey{iter: iters[i], frag: it.N.Frag}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], it.N.Pre)
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].iter != order[b].iter {
			return order[a].iter < order[b].iter
		}
		return order[a].frag < order[b].frag
	})
	return groups, order, nil
}

// refStepTestIDs pre-resolves the node-test surrogates.
func (e *Engine) refStepTestIDs(test algebra.KindTest) (tagID, attrID int32) {
	tagID, attrID = -1, -1
	if test.Kind == algebra.TestElem && test.Name != "" {
		tagID = e.Store.TagID(test.Name)
	}
	if test.Kind == algebra.TestAttr && test.Name != "" {
		attrID = e.Store.AttrNameID(test.Name)
	}
	return tagID, attrID
}

// refEvalStep runs a full location step: it groups the input context pairs by
// (iter, fragment), document-orders each group, runs the (staircase) join,
// filters by the node test, and emits iter|item rows sorted by iter and
// document order — duplicate-free per iter, which is exactly the
// fs:distinct-doc-order contract XPath steps must satisfy.
func (e *Engine) refEvalStep(in *bat.Table, axis algebra.Axis, test algebra.KindTest) (*bat.Table, error) {
	groups, order, err := stepGroups(in)
	if err != nil {
		return nil, err
	}
	tagID, attrID := e.refStepTestIDs(test)
	outIter := bat.IntVec{}
	outItem := bat.NodeVec{}
	var scratch []int32
	for _, k := range order {
		ctx := refSortDedup(groups[k])
		f := e.Store.Frag(k.frag)
		scratch = e.refStepGroup(f, ctx, axis, scratch[:0])
		for _, p := range scratch {
			if refMatchTest(e.Store, f, p, test, tagID, attrID) {
				outIter = append(outIter, k.iter)
				outItem = append(outItem, bat.NodeRef{Frag: k.frag, Pre: p})
			}
		}
	}
	return bat.NewTable("iter", outIter, "item", outItem)
}

// randomForest loads 2–3 random documents with attributes, text and
// comment nodes into a fresh store and returns it.
func randomForest(t *testing.T, r *rand.Rand) *xenc.Store {
	t.Helper()
	store := xenc.NewStore()
	tags := []string{"a", "b", "c"}
	var sb strings.Builder
	var emit func(d int)
	emit = func(d int) {
		tag := tags[r.Intn(len(tags))]
		sb.WriteString("<" + tag)
		for _, name := range []string{"id", "k"} {
			if r.Intn(3) == 0 {
				fmt.Fprintf(&sb, ` %s="v%d"`, name, r.Intn(4))
			}
		}
		sb.WriteString(">")
		for i, n := 0, r.Intn(4); i < n && d < 5; i++ {
			switch r.Intn(5) {
			case 0:
				fmt.Fprintf(&sb, "x%d", r.Intn(5))
			case 1:
				fmt.Fprintf(&sb, "<!--c%d-->", r.Intn(5))
			default:
				emit(d + 1)
			}
		}
		sb.WriteString("</" + tag + ">")
	}
	for d, n := 0, 2+r.Intn(2); d < n; d++ {
		sb.Reset()
		emit(0)
		if _, err := store.LoadDocumentString(fmt.Sprintf("d%d.xml", d), sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// randomContext builds one iter|item context table over the store's
// fragments. shape picks what is unusual about it.
func randomContext(r *rand.Rand, store *xenc.Store, shape int) *bat.Table {
	anyNode := func() bat.NodeRef {
		frag := int32(r.Intn(store.FragCount()))
		f := store.Frag(frag)
		if f.AttrCount() > 0 && r.Intn(4) == 0 {
			return bat.NodeRef{Frag: frag, Pre: xenc.AttrBase + int32(r.Intn(f.AttrCount()))}
		}
		return bat.NodeRef{Frag: frag, Pre: int32(r.Intn(f.NodeCount()))}
	}
	var iters bat.IntVec
	var items bat.NodeVec
	add := func(iter int64, n bat.NodeRef) { iters, items = append(iters, iter), append(items, n) }
	nIter := 1 + r.Intn(6)
	if shape == 0 {
		nIter = 0 // empty table
	}
	for i := 0; i < nIter; i++ {
		iter := int64(1 + 3*i) // iters with gaps
		for k, n := 0, 1+r.Intn(5); k < n; k++ {
			c := anyNode()
			add(iter, c)
			if f := store.Frag(c.Frag); c.Pre < xenc.AttrBase && f.Size[c.Pre] > 0 && r.Intn(2) == 0 {
				add(iter, bat.NodeRef{Frag: c.Frag, Pre: c.Pre + 1 + int32(r.Intn(int(f.Size[c.Pre])))}) // nested within the iter
			}
			if r.Intn(4) == 0 {
				add(iter, c) // duplicated row
			}
		}
	}
	switch shape {
	case 1: // what plans deliver: ordered on (iter, fragment, pre), duplicates kept
		sorted, err := bat.MustTable("iter", iters, "item", items).SortBy("iter", "item")
		if err != nil {
			panic(err)
		}
		return sorted
	case 2: // shuffled
		r.Shuffle(len(items), func(a, b int) {
			iters[a], iters[b] = iters[b], iters[a]
			items[a], items[b] = items[b], items[a]
		})
	case 3: // untyped item column with atoms among the nodes
		boxed := make(bat.ItemVec, len(items))
		for i, n := range items {
			boxed[i] = bat.Node(n)
			if r.Intn(5) == 0 {
				boxed[i] = bat.Int(int64(r.Intn(9)))
			}
		}
		return bat.MustTable("iter", iters, "item", boxed)
	}
	if iters == nil {
		iters, items = bat.IntVec{}, bat.NodeVec{}
	}
	return bat.MustTable("iter", iters, "item", items)
}

// TestStepMatchesReference is the differential for the loop-lifted step
// kernel: over random forests and context tables of every shape, for all
// axes and node tests, it returns the reference's table row for row —
// sequentially and cut into units, with the staircase join on and off.
func TestStepMatchesReference(t *testing.T) {
	tests := []algebra.KindTest{
		{Kind: algebra.TestElem, Name: "b"},
		{Kind: algebra.TestElem},
		{Kind: algebra.TestText},
		{Kind: algebra.TestComment},
		{Kind: algebra.TestNode},
		{Kind: algebra.TestAttr, Name: "id"},
		{Kind: algebra.TestAttr},
		{Kind: algebra.TestElem, Name: "nosuchtag"},
		{Kind: algebra.TestAttr, Name: "nosuchattr"},
	}
	type config struct{ workers, morselRows int }
	var configs []config
	for _, w := range []int{1, 2, 8} {
		for _, m := range []int{7, 0} {
			configs = append(configs, config{w, m})
		}
	}
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		store := randomForest(t, r)
		for shape := 0; shape <= 3; shape++ {
			in := randomContext(r, store, shape)
			for _, staircase := range []bool{true, false} {
				ref := New(store)
				ref.Staircase = staircase
				for axis := algebra.Child; axis <= algebra.Attribute; axis++ {
					for _, test := range tests {
						want, err := ref.refEvalStep(in, axis, test)
						if err != nil {
							t.Fatal(err)
						}
						for _, c := range configs {
							e := NewWithConfig(store, Config{Workers: c.workers, MorselRows: c.morselRows})
							e.Staircase = staircase
							got, err := e.evalStep(&morsels{e: e, ctx: context.Background(), par: true}, in, axis, test)
							if err != nil {
								t.Fatal(err)
							}
							if got.String() != want.String() {
								t.Fatalf("seed %d shape %d staircase=%v workers=%d morselRows=%d %s::%s\ncontext:\n%s\nreference:\n%s\nkernel:\n%s",
									seed, shape, staircase, c.workers, c.morselRows, axis, test, in, want, got)
							}
						}
					}
				}
			}
		}
	}
}

// TestStepRejectsMalformedContext: a context table without a typed iter
// column or without an item column is an error, the reference's error.
func TestStepRejectsMalformedContext(t *testing.T) {
	e := New(xenc.NewStore())
	for _, in := range []*bat.Table{
		bat.MustTable("iter", bat.ItemVec{bat.Int(1)}, "item", bat.NodeVec{{}}),
		bat.MustTable("iter", bat.IntVec{1}),
		bat.MustTable("item", bat.NodeVec{{}}),
	} {
		_, want := e.refEvalStep(in, algebra.Child, algebra.KindTest{Kind: algebra.TestNode})
		_, got := e.evalStep(&morsels{e: e, ctx: context.Background()}, in, algebra.Child, algebra.KindTest{Kind: algebra.TestNode})
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("context %v: kernel error %v, reference error %v", in.Cols(), got, want)
		}
	}
}
