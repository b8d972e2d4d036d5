package engine

import (
	"fmt"
	"strconv"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// itemCol reads an item column through its physical type: the
// constructors look at every content row, and boxing each through ItemAt
// copies a six-field Item to learn that a NodeVec row is a node.
type itemCol struct {
	nodes bat.NodeVec
	items bat.ItemVec
	strs  bat.StrVec
	ints  bat.IntVec
	other bat.Vec // FloatVec, BoolVec: read through ItemAt
}

func readItems(v bat.Vec) itemCol {
	switch c := v.(type) {
	case bat.NodeVec:
		return itemCol{nodes: c}
	case bat.ItemVec:
		return itemCol{items: c}
	case bat.StrVec:
		return itemCol{strs: c}
	case bat.IntVec:
		return itemCol{ints: c}
	}
	return itemCol{other: v}
}

// node returns row i as a node ref; ok is false for an atomic row.
func (c *itemCol) node(i int) (n bat.NodeRef, ok bool) {
	switch {
	case c.nodes != nil:
		return c.nodes[i], true
	case c.items != nil && c.items[i].Kind == bat.KNode:
		return c.items[i].N, true
	}
	return bat.NodeRef{}, false
}

// str returns the string value of row i, as Item.StringValue gives it.
func (c *itemCol) str(i int) string {
	switch {
	case c.strs != nil:
		return c.strs[i]
	case c.items != nil:
		return c.items[i].StringValue()
	case c.ints != nil:
		return strconv.FormatInt(c.ints[i], 10)
	case c.nodes != nil:
		return c.nodes[i].String()
	}
	return c.other.ItemAt(i).StringValue()
}

// appendStr appends the string value of row i to buf.
func (c *itemCol) appendStr(buf []byte, i int) []byte {
	switch {
	case c.ints != nil:
		return strconv.AppendInt(buf, c.ints[i], 10)
	case c.items != nil && c.items[i].Kind == bat.KInt:
		return strconv.AppendInt(buf, c.items[i].I, 10)
	}
	return append(buf, c.str(i)...)
}

// emptyStr reports whether the string value of row i is "": only string
// payloads can be.
func (c *itemCol) emptyStr(i int) bool {
	switch {
	case c.strs != nil:
		return c.strs[i] == ""
	case c.items != nil:
		it := &c.items[i]
		return (it.Kind == bat.KStr || it.Kind == bat.KUntyped) && it.S == ""
	}
	return false
}

// fragCache resolves the fragment of a node ref once per run of refs into
// the same fragment; content columns hold long such runs.
type fragCache struct {
	store *xenc.Store
	id    int32
	frag  *xenc.Fragment
}

func (fc *fragCache) of(n bat.NodeRef) *xenc.Fragment {
	if fc.frag == nil || n.Frag != fc.id {
		fc.id, fc.frag = n.Frag, fc.store.Frag(n.Frag)
	}
	return fc.frag
}

// elemSlot is one ε input read iteration by iteration: its rows in
// (iter, pos) order and a cursor at the first row not yet claimed.
type elemSlot struct {
	iter  bat.IntVec
	items itemCol
	at    int
}

// claim advances the cursor past iter's rows and returns them as
// [lo, hi). Rows of a smaller iter have no element to live in: claim
// skips them and reports the first as orphan (-1 when there is none).
func (s *elemSlot) claim(iter int64) (lo, hi int, orphan int64) {
	orphan = -1
	if s.at < len(s.iter) && s.iter[s.at] < iter {
		orphan = s.iter[s.at]
		for s.at < len(s.iter) && s.iter[s.at] < iter {
			s.at++
		}
	}
	lo = s.at
	for s.at < len(s.iter) && s.iter[s.at] == iter {
		s.at++
	}
	return lo, s.at, orphan
}

// evalElem implements ε over a skeleton (algebra.Skeleton): per row of
// root — the loop (iter), or iter|item names for a dynamic root name —
// one element tree whose static part is the skeleton's and whose slots
// hold the iteration's rows of the slot tables (iter|pos|item). Slot
// items are processed in (iter, pos) order under the XQuery constructor
// content rules: attribute nodes become attributes (and must precede
// other content), nodes are deep-copied, runs of adjacent atomic items —
// across the slots of one element, not across a child element — merge
// into a single text node with single-space separators, and adjacent text
// nodes merge. An attribute step's value is its slot's string values,
// space-joined.
//
// Construction is two passes. The size pass (elemSize) totals the nodes
// and attribute rows the fragment will hold and the builder reserves its
// columns once; the fill pass appends into them — a copied subtree as a
// column range — and never reallocates. Every tree of one execution is a
// root of one fragment.
func (e *Engine) evalElem(root *bat.Table, skel algebra.Skeleton, slotTabs []*bat.Table) (*bat.Table, error) {
	rSorted, err := root.SortBy("iter")
	if err != nil {
		return nil, err
	}
	rIter, err := rSorted.Ints("iter")
	if err != nil {
		return nil, err
	}
	var names itemCol
	if skel.Dynamic() {
		col, err := rSorted.Col("item")
		if err != nil {
			return nil, err
		}
		names = readItems(col)
	}
	// Small skeletons — all of XMark's — keep their per-execution state
	// on the stack.
	var slotBuf [16]elemSlot
	slots := slotBuf[:]
	if len(slotTabs) > len(slots) {
		slots = make([]elemSlot, len(slotTabs))
	}
	slots = slots[:len(slotTabs)]
	for k, t := range slotTabs {
		sorted, err := slotOrder(t)
		if err != nil {
			return nil, err
		}
		iter, err := sorted.Ints("iter")
		if err != nil {
			return nil, err
		}
		col, err := sorted.Col("item")
		if err != nil {
			return nil, err
		}
		slots[k] = elemSlot{iter: iter, items: readItems(col)}
	}

	fb := xenc.NewFragBuilder(e.Store)
	fb.Reserve(elemSize(e.Store, skel, rIter, slots))
	for k := range slots {
		slots[k].at = 0
	}
	// The skeleton's names are interned once per execution, not once per
	// element.
	var idBuf [48]int32
	ids := idBuf[:]
	if len(skel) > len(ids) {
		ids = make([]int32, len(skel))
	}
	ids = ids[:len(skel)]
	for i, st := range skel {
		switch {
		case st.Kind == algebra.SkelOpen && st.Name != "":
			ids[i] = fb.Tag(st.Name)
		case st.Kind == algebra.SkelAttr:
			ids[i] = fb.AttrName(st.Name)
		}
	}
	outItem := make(bat.NodeVec, len(rIter))
	w := elemFill{e: e, fb: fb, src: fragCache{store: e.Store}}
	for qi, iter := range rIter {
		// rIter is sorted, so a second row for an iter is the next row.
		if qi > 0 && iter == rIter[qi-1] {
			return nil, fmt.Errorf("ε: multiple element names for iter %d", iter)
		}
		for i, st := range skel {
			switch st.Kind {
			case algebra.SkelOpen:
				w.flush()
				switch {
				case i > 0:
					fb.StartElemTag(ids[i])
				case st.Name != "":
					outItem[qi].Pre = fb.StartElemTag(ids[0])
				default:
					name := names.str(qi)
					if name == "" {
						return nil, fmt.Errorf("ε: empty element name in iter %d", iter)
					}
					outItem[qi].Pre = fb.StartElem(name)
				}
			case algebra.SkelClose:
				w.flush()
				fb.EndElem()
			case algebra.SkelAttr, algebra.SkelSlot:
				sl := &slots[st.Slot]
				lo, hi, orphan := sl.claim(iter)
				if orphan >= 0 {
					return nil, fmt.Errorf("ε: content iter %d has no element name", orphan)
				}
				if st.Kind == algebra.SkelAttr {
					err = w.attr(ids[i], &sl.items, lo, hi)
				} else {
					err = w.content(&sl.items, lo, hi)
				}
				if err != nil {
					return nil, fmt.Errorf("ε: iter %d: %w", iter, err)
				}
			}
		}
	}
	for k := range slots {
		if sl := &slots[k]; sl.at < len(sl.iter) {
			return nil, fmt.Errorf("ε: content iter %d has no element name", sl.iter[sl.at])
		}
	}
	frag, err := fb.Finish()
	if err != nil {
		return nil, err
	}
	for i := range outItem {
		outItem[i].Frag = frag
	}
	return bat.NewTable("iter", rIter, "item", outItem)
}

// iterPos is the order ε reads a slot in.
var iterPos = []algebra.OrderSpec{{Col: "iter"}, {Col: "pos"}}

// slotOrder returns t in (iter, pos) order: t itself when it is in that
// order already, else sorted the way ϱ sorts — counting passes over dense
// int keys, the stable comparator sort otherwise. A slot whose rows a ∪
// assembled (a count and the zeros of the iterations without one) comes
// unsorted.
func slotOrder(t *bat.Table) (*bat.Table, error) {
	iter, errIter := t.Ints("iter")
	pos, errPos := t.Ints("pos")
	if errIter == nil && errPos == nil {
		if keys := [2]bat.IntVec{iter, pos}; intRowsSorted(keys[:]) {
			return t, nil
		}
	}
	out, _, err := physRowNumSort(t, iterPos, "")
	return out, err
}

// elemFill is ε's fill pass state: the builder and the open run of
// atomics of the innermost open element.
type elemFill struct {
	e     *Engine
	fb    *xenc.FragBuilder
	src   fragCache
	atoms int    // atomics in the open run
	first string // the run's first atomic: a run of one needs no buffer
	run   []byte // a longer run, space-separated
}

// atom adds row c of items to the open run.
func (w *elemFill) atom(items *itemCol, c int) {
	switch w.atoms {
	case 0:
		w.first = items.str(c)
	case 1:
		w.run = append(w.run[:0], w.first...)
		fallthrough
	default:
		w.run = items.appendStr(append(w.run, ' '), c)
	}
	w.atoms++
}

// flush ends the open run of atomics as a text node.
func (w *elemFill) flush() {
	switch w.atoms {
	case 0:
		return
	case 1:
		w.fb.AddText(w.first)
	default:
		w.fb.AddText(string(w.run))
	}
	w.atoms, w.first = 0, ""
}

// content appends rows [lo, hi) of a content slot to the innermost open
// element.
func (w *elemFill) content(items *itemCol, lo, hi int) error {
	for c := lo; c < hi; c++ {
		n, isNode := items.node(c)
		if !isNode {
			w.atom(items, c)
			continue
		}
		w.flush()
		if err := w.fb.CopyFrom(w.src.of(n), n.Pre); err != nil {
			return err
		}
	}
	return nil
}

// attr adds the attribute name to the innermost open element, valued by
// the string values of rows [lo, hi) of its slot, space-joined.
func (w *elemFill) attr(name int32, items *itemCol, lo, hi int) error {
	w.flush()
	str := func(c int) string {
		if n, ok := items.node(c); ok {
			return w.e.Store.StringValue(n)
		}
		return items.str(c)
	}
	if hi-lo == 1 {
		// The usual value, one string per iteration, needs no buffer.
		return w.fb.AddAttrNamed(name, str(lo))
	}
	w.run = w.run[:0]
	for c := lo; c < hi; c++ {
		if c > lo {
			w.run = append(w.run, ' ')
		}
		w.run = append(w.run, str(c)...)
	}
	return w.fb.AddAttrNamed(name, string(w.run))
}

// elemSize is ε's size pass: the number of tree nodes and attribute rows
// the fill pass will append — one node per skeleton element and one
// attribute row per skeleton attribute per iteration; per content row,
// 1+size per copied subtree (a document node contributes its children
// only) with the attribute rows of its range, one attribute row per
// attribute ref, and one text node per run of atomics whose joined string
// is not empty, less every text that merges into a text sibling before it.
// It mirrors the fill pass's text state and nothing else: content the
// fill pass rejects is counted any which way, since no fragment comes of
// it. It leaves the slot cursors at the end.
func elemSize(store *xenc.Store, skel algebra.Skeleton, roots bat.IntVec, slots []elemSlot) (nodes, attrs int) {
	src := fragCache{store: store}
	run := 0          // atomics in the open run
	runText := false  // the open run's joined string is not empty
	lastText := false // the innermost open element's last child so far is a text node
	endRun := func() {
		if runText && !lastText {
			nodes++
		}
		lastText = lastText || runText
		run, runText = 0, false
	}
	for _, iter := range roots {
		for _, st := range skel {
			switch st.Kind {
			case algebra.SkelOpen, algebra.SkelClose:
				// A new element has no children yet; a closed one is its
				// parent's last child.
				endRun()
				lastText = false
				if st.Kind == algebra.SkelOpen {
					nodes++
				}
			case algebra.SkelAttr:
				slots[st.Slot].claim(iter)
				endRun()
				attrs++
			case algebra.SkelSlot:
				sl := &slots[st.Slot]
				lo, hi, _ := sl.claim(iter)
				for c := lo; c < hi; c++ {
					n, isNode := sl.items.node(c)
					if !isNode {
						// Two atomics join with a space, so only a lone empty
						// string makes no text.
						run++
						runText = runText || run > 1 || !sl.items.emptyStr(c)
						continue
					}
					endRun()
					if n.Pre >= xenc.AttrBase {
						attrs++
						continue
					}
					sf := src.of(n)
					end := n.Pre + sf.Size[n.Pre]
					alo, ahi := sf.AttrRange(n.Pre, end)
					attrs += int(ahi - alo)
					switch sf.Kind[n.Pre] {
					case xenc.KindText:
						if !lastText {
							nodes++
						}
						lastText = true
					case xenc.KindDoc:
						if end == n.Pre {
							continue
						}
						nodes += int(end - n.Pre)
						if lastText && sf.Kind[n.Pre+1] == xenc.KindText {
							nodes--
						}
						lastText = sf.Kind[end] == xenc.KindText && sf.Parent[end] == n.Pre
					default:
						nodes += int(end-n.Pre) + 1
						lastText = false
					}
				}
			}
		}
	}
	return nodes, attrs
}

// evalText implements τ: one text node per row from the item's string
// value. Rows whose string is empty construct no node and are dropped, per
// the text-constructor semantics for empty content.
func (e *Engine) evalText(t *bat.Table) (*bat.Table, error) {
	iters, err := t.Ints("iter")
	if err != nil {
		return nil, err
	}
	col, err := t.Col("item")
	if err != nil {
		return nil, err
	}
	items := readItems(col)
	n := 0
	for i := range iters {
		if !items.emptyStr(i) {
			n++
		}
	}
	fb := xenc.NewFragBuilder(e.Store)
	fb.Reserve(n, 0)
	outIter := make(bat.IntVec, 0, n)
	outItem := make(bat.NodeVec, 0, n)
	for i, iter := range iters {
		if items.emptyStr(i) {
			continue
		}
		outItem = append(outItem, bat.NodeRef{Pre: fb.NextPre()})
		fb.AddText(items.str(i))
		outIter = append(outIter, iter)
	}
	frag, err := fb.Finish()
	if err != nil {
		return nil, err
	}
	for i := range outItem {
		outItem[i].Frag = frag
	}
	return bat.NewTable("iter", outIter, "item", outItem)
}

// evalAttrC constructs one attribute node per iter: names and values are
// iter|item tables with at most one value row per iter. Constructed
// attributes live on hidden owner elements in a private fragment so they
// can be copied into elements (or serialized) like stored attributes.
func (e *Engine) evalAttrC(names, values *bat.Table) (*bat.Table, error) {
	names, err := names.SortBy("iter")
	if err != nil {
		return nil, err
	}
	nIter, err := names.Ints("iter")
	if err != nil {
		return nil, err
	}
	nCol, err := names.Col("item")
	if err != nil {
		return nil, err
	}
	values, err = values.SortBy("iter")
	if err != nil {
		return nil, err
	}
	vIter, err := values.Ints("iter")
	if err != nil {
		return nil, err
	}
	vCol, err := values.Col("item")
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(vIter); i++ {
		if vIter[i] == vIter[i-1] {
			return nil, fmt.Errorf("attribute: multiple values for iter %d", vIter[i])
		}
	}
	nItem, vItem := readItems(nCol), readItems(vCol)
	fb := xenc.NewFragBuilder(e.Store)
	fb.Reserve(len(nIter), len(nIter))
	// Both inputs are iter-ordered: the value of an iter is found by
	// walking the value rows forward alongside the names.
	v := 0
	for i, iter := range nIter {
		name := nItem.str(i)
		if name == "" {
			return nil, fmt.Errorf("attribute: empty name in iter %d", iter)
		}
		for v < len(vIter) && vIter[v] < iter {
			v++
		}
		val := "" // absent value = empty string (empty sequence content)
		if v < len(vIter) && vIter[v] == iter {
			val = vItem.str(v)
		}
		fb.StartElem("#attr")
		if err := fb.AddAttr(name, val); err != nil {
			return nil, err
		}
		fb.EndElem()
	}
	frag, err := fb.Finish()
	if err != nil {
		return nil, err
	}
	outItem := make(bat.NodeVec, len(nIter))
	for i := range outItem {
		outItem[i] = bat.NodeRef{Frag: frag, Pre: xenc.AttrBase + int32(i)}
	}
	return bat.NewTable("iter", nIter, "item", outItem)
}
