package engine

import (
	"fmt"
	"math/rand"
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
						if r.Intn(30) == 0 {
							item = fx.attrRefs[r.Intn(len(fx.attrRefs))]
						}
					}
					is, ps, items = append(is, int64(it)), append(ps, int64(k)), append(items, item)
				}
			}
			slots = append(slots, seqTable(is, ps, items))
		}
		loop := bat.MustTable("iter", bat.Ramp(1, iters))
		label := fmt.Sprintf("trial %d: %s", trial, skel)
		got, gotErr := e.evalElem(loop, skel, slots)
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
				vals, err := slots[st.Slot].Project("iter", "item")
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
