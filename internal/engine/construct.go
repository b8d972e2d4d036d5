package engine

import (
	"fmt"
	"strconv"

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

// evalElem implements ε: per iter, construct one element named by the
// qname table (iter|item, one row per iter) with the iter's slice of the
// content table (iter|pos|item) as content. Content items are processed in
// (iter, pos) order: attribute nodes become attributes (and must precede
// other content), nodes are deep-copied, runs of adjacent atomic items
// merge into a single text node with single-space separators, and
// adjacent text nodes merge — the XQuery constructor content rules.
//
// Construction is two passes over the ordered content. The size pass
// (elemSize) totals the nodes and attribute rows the fragment will hold
// and the builder reserves its columns once; the fill pass appends into
// them — a copied subtree as a column range — and never reallocates.
func (e *Engine) evalElem(qnames, content *bat.Table) (*bat.Table, error) {
	qSorted, err := qnames.SortBy("iter")
	if err != nil {
		return nil, err
	}
	qIter, err := qSorted.Ints("iter")
	if err != nil {
		return nil, err
	}
	qItem, err := qSorted.Col("item")
	if err != nil {
		return nil, err
	}
	sorted, err := content.SortBy("iter", "pos")
	if err != nil {
		return nil, err
	}
	cIter, err := sorted.Ints("iter")
	if err != nil {
		return nil, err
	}
	cItem, err := sorted.Col("item")
	if err != nil {
		return nil, err
	}
	names, items := readItems(qItem), readItems(cItem)

	// One fragment holds every element constructed by this operator
	// execution; each iter's element is a separate root tree within it.
	fb := xenc.NewFragBuilder(e.Store)
	nodes, attrs := elemSize(e.Store, len(qIter), cIter, &items)
	fb.Reserve(nodes, attrs)
	outItem := make(bat.NodeVec, len(qIter))

	src := fragCache{store: e.Store}
	var pending []byte // the open run of atomics, space-separated
	c := 0
	for qi, iter := range qIter {
		// qIter is sorted, so a second name for an iter is the next row.
		if qi > 0 && iter == qIter[qi-1] {
			return nil, fmt.Errorf("ε: multiple element names for iter %d", iter)
		}
		name := names.str(qi)
		if name == "" {
			return nil, fmt.Errorf("ε: empty element name in iter %d", iter)
		}
		outItem[qi].Pre = fb.StartElem(name)
		// Both tables are iter-sorted, so content rows line up with qname
		// rows; a content iter smaller than the current qname iter has no
		// element to live in.
		if c < len(cIter) && cIter[c] < iter {
			return nil, fmt.Errorf("ε: content iter %d has no element name", cIter[c])
		}
		atoms := false
		for ; c < len(cIter) && cIter[c] == iter; c++ {
			n, isNode := items.node(c)
			if !isNode {
				if atoms {
					pending = append(pending, ' ')
				}
				pending = items.appendStr(pending, c)
				atoms = true
				continue
			}
			if atoms {
				fb.AddText(string(pending))
				pending, atoms = pending[:0], false
			}
			if err := fb.CopyFrom(src.of(n), n.Pre); err != nil {
				return nil, fmt.Errorf("ε: iter %d: %w", iter, err)
			}
		}
		if atoms {
			fb.AddText(string(pending))
			pending = pending[:0]
		}
		fb.EndElem()
	}
	if c < len(cIter) {
		return nil, fmt.Errorf("ε: content iter %d has no element name", cIter[c])
	}
	frag, err := fb.Finish()
	if err != nil {
		return nil, err
	}
	for i := range outItem {
		outItem[i].Frag = frag
	}
	return bat.NewTable("iter", qIter, "item", outItem)
}

// elemSize is ε's size pass: the number of tree nodes and attribute rows
// the fill pass will append for elems elements over the (iter, pos)-ordered
// content — one node per element, 1+size per copied subtree (a document
// node contributes its children only) with the attribute rows of its
// range, one attribute row per attribute ref, and one text node per run of
// atomics whose joined string is not empty, less every text that merges
// into a text sibling before it. It mirrors the fill pass's text state and
// nothing else: content the fill pass rejects is counted any which way,
// since no fragment comes of it.
func elemSize(store *xenc.Store, elems int, cIter bat.IntVec, items *itemCol) (nodes, attrs int) {
	nodes = elems
	src := fragCache{store: store}
	run := 0          // atomics in the open run
	runText := false  // the open run's joined string is not empty
	lastText := false // the element's last child so far is a text node
	endRun := func() {
		if runText && !lastText {
			nodes++
		}
		lastText = lastText || runText
		run, runText = 0, false
	}
	for c := range cIter {
		if c > 0 && cIter[c] != cIter[c-1] {
			endRun()
			lastText = false
		}
		n, isNode := items.node(c)
		if !isNode {
			// Two atomics join with a space, so only a lone empty string
			// makes no text.
			run++
			runText = runText || run > 1 || !items.emptyStr(c)
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
	endRun()
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
