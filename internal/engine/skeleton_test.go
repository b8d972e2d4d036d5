package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// TestSkeletonMatchesNested: an ε over a random skeleton builds, per
// iteration, the tree the compiler built before skeletons — every element
// its own binary ε over its content operands in order (slot rows, and the
// elements and attributes below it, each constructed first) — and fails
// where that fails: an attribute after content, two attributes of one
// name. Its size pass is exact. Slots hold atomics with empty strings
// among them, texts, elements, document nodes and attribute refs, and
// are empty for some iterations.
func TestSkeletonMatchesNested(t *testing.T) {
	e := New(xenc.NewStore())
	fx := newContentFixture(t, e)
	r := rand.New(rand.NewSource(25))
	failures := 0
	for trial := 0; trial < 600; trial++ {
		loop, skel, slots := randomElemInput(r, fx, nil)
		label := fmt.Sprintf("trial %d: %s", trial, skel)
		got, gotErr := e.evalElem(loop, skel, slots, false)
		want, wantErr := nestedElem(e, loop, skel, slots)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: skeleton error %v, nested error %v", label, gotErr, wantErr)
		}
		if gotErr != nil {
			failures++
			continue
		}
		gotNodes, wantNodes := got.MustCol("item").(bat.NodeVec), want.MustCol("item").(bat.NodeVec)
		for i := range gotNodes {
			if g, w := e.Store.Serialize(gotNodes[i]), e.Store.Serialize(wantNodes[i]); g != w {
				t.Fatalf("%s: iter %d\n skeleton %s\n nested   %s", label, i+1, g, w)
			}
		}
		assertExact(t, label, e.Store.Frag(gotNodes[0].Frag))
	}
	if failures == 0 || failures > 300 {
		t.Errorf("%d of 600 trials failed with an error: the corpus should exercise both outcomes", failures)
	}
}

// randomElemInput draws one ε execution: up to four iterations over a
// random skeleton, each slot holding up to three rows per iteration —
// for an attribute slot at most one atomic, for a content slot atomics
// and nodes, now and then an attribute ref, and, when nested is given,
// now and then one of its items.
func randomElemInput(r *rand.Rand, fx *contentFixture, nested []bat.Item) (*bat.Table, algebra.Skeleton, []*bat.Table) {
	iters := 1 + r.Intn(4)
	skel := randomSkeleton(r)
	slots := make([]*bat.Table, 0, skel.Slots())
	for _, st := range skel {
		if st.Kind != algebra.SkelAttr && st.Kind != algebra.SkelSlot {
			continue
		}
		var is, ps bat.IntVec
		var items bat.ItemVec
		for it := 1; it <= iters; it++ {
			n := r.Intn(4)
			if st.Kind == algebra.SkelAttr {
				n = r.Intn(2) // the attribute constructor takes one value
			}
			for k := 1; k <= n; k++ {
				item := fx.atoms[r.Intn(len(fx.atoms))]
				if st.Kind == algebra.SkelSlot {
					item = fx.item(r)
					switch {
					case r.Intn(30) == 0:
						item = fx.attrRefs[r.Intn(len(fx.attrRefs))]
					case len(nested) > 0 && r.Intn(4) == 0:
						item = nested[r.Intn(len(nested))]
					}
				}
				is, ps, items = append(is, int64(it)), append(ps, int64(k)), append(items, item)
			}
		}
		slots = append(slots, seqTable(is, ps, items))
	}
	return bat.MustTable("iter", bat.Ramp(1, iters)), skel, slots
}

// randomSkeleton builds an element tree up to three levels deep over the
// names a, b, c: attributes w, x and y (repeats among them) after each
// start tag and now and then after content, content slots, and child
// elements.
func randomSkeleton(r *rand.Rand) algebra.Skeleton {
	var sk algebra.Skeleton
	var slot int32
	step := func(kind algebra.SkelKind, name string) {
		sk = append(sk, algebra.SkelNode{Kind: kind, Name: name, Slot: slot})
		slot++
	}
	var elem func(depth int)
	elem = func(depth int) {
		sk = append(sk, algebra.SkelNode{Kind: algebra.SkelOpen, Name: string(rune('a' + r.Intn(3)))})
		for i, n := 0, r.Intn(3); i < n; i++ {
			step(algebra.SkelAttr, string(rune('w'+r.Intn(3))))
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			switch {
			case depth > 0 && r.Intn(3) == 0:
				elem(depth - 1)
			case r.Intn(20) == 0:
				step(algebra.SkelAttr, "y")
			default:
				step(algebra.SkelSlot, "")
			}
		}
		sk = append(sk, algebra.SkelNode{Kind: algebra.SkelClose})
	}
	elem(2)
	return sk
}

// nestedElem evaluates a skeleton the way the compiler did before it
// inlined constructors: bottom-up, each element a binary ε over the
// ordered concatenation of its operands, each attribute an attribute
// constructor.
func nestedElem(e *Engine, loop *bat.Table, skel algebra.Skeleton, slots []*bat.Table) (*bat.Table, error) {
	iters := loop.MustCol("iter").(bat.IntVec)
	named := func(name string) *bat.Table {
		names := make(bat.StrVec, len(iters))
		for i := range names {
			names[i] = name
		}
		return bat.MustTable("iter", iters, "item", names)
	}
	type row struct {
		iter, ord, pos int64
		item           bat.Item
	}
	var build func(i int) (*bat.Table, int, error)
	build = func(i int) (*bat.Table, int, error) {
		var rows []row
		addAll := func(ord int64, t *bat.Table) {
			is := t.MustCol("iter").(bat.IntVec)
			items := t.MustCol("item")
			for k := range is {
				pos := int64(1)
				if t.HasCol("pos") {
					pos = t.MustCol("pos").(bat.IntVec)[k]
				}
				rows = append(rows, row{is[k], ord, pos, items.ItemAt(k)})
			}
		}
		j := i + 1
		for ord := int64(1); skel[j].Kind != algebra.SkelClose; ord++ {
			switch st := skel[j]; st.Kind {
			case algebra.SkelOpen:
				child, next, err := build(j)
				if err != nil {
					return nil, 0, err
				}
				addAll(ord, child)
				j = next
			case algebra.SkelAttr:
				vals, err := slots[st.Slot].Project(bat.ProjPair{New: "iter", Old: "iter"}, bat.ProjPair{New: "item", Old: "item"})
				if err != nil {
					return nil, 0, err
				}
				a, err := e.evalAttrC(named(st.Name), vals)
				if err != nil {
					return nil, 0, err
				}
				addAll(ord, a)
				j++
			case algebra.SkelSlot:
				addAll(ord, slots[st.Slot])
				j++
			}
		}
		sort.SliceStable(rows, func(a, b int) bool {
			x, y := rows[a], rows[b]
			if x.iter != y.iter {
				return x.iter < y.iter
			}
			if x.ord != y.ord {
				return x.ord < y.ord
			}
			return x.pos < y.pos
		})
		var is, ps bat.IntVec
		var items bat.ItemVec
		for k, rw := range rows {
			is, ps, items = append(is, rw.iter), append(ps, int64(k+1)), append(items, rw.item)
		}
		out, err := e.binaryElem(named(skel[i].Name), seqTable(is, ps, items))
		return out, j + 1, err
	}
	out, _, err := build(0)
	return out, err
}

// FuzzStreamedMatchesMaterialized: ε's two sinks agree outcome for
// outcome over randomElemInput's executions — the same error text, or
// trees whose streamed bytes are the built fragment's serialization.
// Content slots hold, besides what TestSkeletonMatchesNested draws, an
// empty document and the elements of an inner ε: streamed ones where the
// outer ε streams, their built twins where it builds. refusal, when not
// 0, bends the drawn input into one the streamed ε's columns cannot
// clear (refuseColumns), so that it must walk its trees first.
func FuzzStreamedMatchesMaterialized(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, uint8(0))
	}
	// One seed per refusal: an input the columns clear as drawn, bent so
	// that it fails for that reason alone.
	for refusal, seed := range []int64{1: 2, 2: 2, 3: 3, 4: 3, 5: 2, 6: 5} {
		if refusal > 0 {
			f.Add(seed, uint8(refusal))
		}
	}
	e := New(xenc.NewStore())
	fx := newContentFixture(f, e)
	innerLoop := bat.MustTable("iter", bat.Ramp(1, 3))
	innerContent := bat.MustTable("iter", bat.IntVec{1, 2, 2, 3}, "pos", bat.IntVec{1, 1, 2, 1},
		"item", bat.ItemVec{bat.Str("a<b"), bat.Int(2), bat.Node(fx.pool[1].N), bat.Str("")})
	innerSkel := mustSkel("<in k=$0>$1</in>")
	innerAttr := bat.MustTable("iter", bat.IntVec{2}, "pos", bat.IntVec{1}, "item", bat.StrVec{"v\t"})
	streamedInner, err := e.evalElem(innerLoop, innerSkel, []*bat.Table{innerAttr, innerContent}, true)
	if err != nil {
		f.Fatal(err)
	}
	builtInner, err := e.evalElem(innerLoop, innerSkel, []*bat.Table{innerAttr, innerContent}, false)
	if err != nil {
		f.Fatal(err)
	}
	// A document without children copies nothing: its element stays
	// <a/> if nothing else arrives.
	empty, err := e.Store.LoadDocumentString("empty.xml", "")
	if err != nil {
		f.Fatal(err)
	}
	nested := bat.ItemVec{bat.Node(empty)}
	twin := map[bat.NodeRef]bat.Item{}
	for i, n := range streamedInner.MustCol("item").(bat.NodeVec) {
		nested = append(nested, bat.Node(n))
		twin[n] = bat.Node(builtInner.MustCol("item").(bat.NodeVec)[i])
	}
	f.Fuzz(func(t *testing.T, seed int64, refusal uint8) {
		r := rand.New(rand.NewSource(seed))
		loop, skel, slots := randomElemInput(r, fx, nested)
		loop, skel, slots = refuseColumns(r, fx, refusal%refusals, loop, skel, slots)
		built := make([]*bat.Table, len(slots))
		for k, s := range slots {
			items := append(bat.ItemVec(nil), s.MustCol("item").(bat.ItemVec)...)
			for i, it := range items {
				if tw, ok := twin[it.N]; ok && it.Kind == bat.KNode {
					items[i] = tw
				}
			}
			built[k] = seqTable(s.MustCol("iter").(bat.IntVec), s.MustCol("pos").(bat.IntVec), items)
		}
		view := e.ForStore(e.Store.Scratch(), "")
		label := fmt.Sprintf("seed %d refusal %d: %s", seed, refusal%refusals, skel)
		got, gotErr := view.evalElem(loop, skel, slots, true)
		want, wantErr := view.evalElem(loop, skel, built, false)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: streamed error %v, materialized error %v", label, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		gotNodes, wantNodes := got.MustCol("item").(bat.NodeVec), want.MustCol("item").(bat.NodeVec)
		for i := range gotNodes {
			if g, w := view.Store.Serialize(gotNodes[i]), view.Store.Serialize(wantNodes[i]); g != w {
				t.Fatalf("%s: iter %d\n streamed     %s\n materialized %s", label, i+1, g, w)
			}
		}
	})
}

// refusals counts refuseColumns' cases, 0 (no change) among them.
const refusals = 7

// refuseColumns bends one drawn ε execution so that its columns cannot
// rule out an error, each case one reason elemExec.columnar refuses:
//
//	1  a dynamic root name, now and then an empty one
//	2  a root iter twice
//	3  a slot row without a root row
//	4  an attribute step after the root's content
//	5  two attribute steps of one name after the root's start tag
//	6  an attribute ref among a content slot's rows
func refuseColumns(r *rand.Rand, fx *contentFixture, refusal uint8, loop *bat.Table, skel algebra.Skeleton, slots []*bat.Table) (*bat.Table, algebra.Skeleton, []*bat.Table) {
	iters := loop.MustCol("iter").(bat.IntVec)
	// attrs inserts attribute steps named names at skeleton step at, each
	// valued "v" in every iteration, renumbering the slots after them.
	attrs := func(at int, names ...string) {
		first := int32(0)
		for _, st := range skel[:at] {
			if st.Kind == algebra.SkelAttr || st.Kind == algebra.SkelSlot {
				first++
			}
		}
		vals := make(bat.ItemVec, len(iters))
		for i := range vals {
			vals[i] = bat.Str("v")
		}
		out := append(algebra.Skeleton(nil), skel[:at]...)
		var added []*bat.Table
		for k, name := range names {
			out = append(out, algebra.SkelNode{Kind: algebra.SkelAttr, Name: name, Slot: first + int32(k)})
			added = append(added, seqTable(iters, bat.ConstInt(1, len(iters)), vals))
		}
		for _, st := range skel[at:] {
			if st.Kind == algebra.SkelAttr || st.Kind == algebra.SkelSlot {
				st.Slot += int32(len(names))
			}
			out = append(out, st)
		}
		skel, slots = out, slices.Concat(slots[:first], added, slots[first:])
	}
	switch refusal {
	case 1:
		names := make(bat.StrVec, len(iters))
		for i := range names {
			names[i] = "d"
		}
		if r.Intn(2) == 0 {
			names[r.Intn(len(names))] = ""
		}
		loop = bat.MustTable("iter", iters, "item", names)
		skel[0].Name = ""
	case 2:
		loop = bat.MustTable("iter", append(bat.IntVec{iters[0]}, iters...))
	case 3:
		if len(slots) > 0 {
			k := r.Intn(len(slots))
			t := slots[k]
			slots[k] = seqTable(append(slices.Clone(t.MustCol("iter").(bat.IntVec)), iters[len(iters)-1]+1),
				append(slices.Clone(t.MustCol("pos").(bat.IntVec)), 1),
				append(slices.Clone(t.MustCol("item").(bat.ItemVec)), fx.atoms[1]))
		}
	case 4:
		attrs(len(skel)-1, "v")
	case 5:
		attrs(1, "v", "v")
	case 6:
		for _, st := range skel {
			if st.Kind != algebra.SkelSlot || slots[st.Slot].Rows() == 0 {
				continue
			}
			t := slots[st.Slot]
			items := slices.Clone(t.MustCol("item").(bat.ItemVec))
			items[r.Intn(len(items))] = fx.attrRefs[r.Intn(len(fx.attrRefs))]
			slots[st.Slot] = seqTable(t.MustCol("iter").(bat.IntVec), t.MustCol("pos").(bat.IntVec), items)
			break
		}
	}
	return loop, skel, slots
}
