package engine

import (
	"fmt"
	"strconv"
	"sync/atomic"

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
	case bat.UntypedVec:
		return itemCol{strs: bat.StrVec(c)} // the same string values
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

// appendEscaped appends the string value of row i to buf through esc:
// numbers have nothing to escape.
func (c *itemCol) appendEscaped(buf []byte, i int, esc func([]byte, string) []byte) []byte {
	switch {
	case c.ints != nil:
		return strconv.AppendInt(buf, c.ints[i], 10)
	case c.items != nil && c.items[i].Kind == bat.KInt:
		return strconv.AppendInt(buf, c.items[i].I, 10)
	}
	return esc(buf, c.str(i))
}

// holdsAttrRef reports whether a row is an attribute ref: only a node
// column or a boxed one can hold one.
func (c *itemCol) holdsAttrRef() bool {
	for _, n := range c.nodes {
		if n.Pre >= xenc.AttrBase {
			return true
		}
	}
	for i := range c.items {
		if it := &c.items[i]; it.Kind == bat.KNode && it.N.Pre >= xenc.AttrBase {
			return true
		}
	}
	return false
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
	frag  *xenc.Fragment // nil: id is streamed
	ok    bool           // id and frag are set
}

// of returns n's fragment. Like Store.Frag it panics on a streamed one.
func (fc *fragCache) of(n bat.NodeRef) *xenc.Fragment {
	if f := fc.lookup(n); f != nil {
		return f
	}
	return fc.store.Frag(n.Frag)
}

// lookup returns n's fragment, or nil when n is an element of a streamed
// ε.
func (fc *fragCache) lookup(n bat.NodeRef) *xenc.Fragment {
	if !fc.ok || n.Frag != fc.id {
		fc.id, fc.frag, fc.ok = n.Frag, fc.store.Resolve(n.Frag), true
	}
	return fc.frag
}

// elemSlot is one ε input read iteration by iteration: its rows in
// (iter, pos) order and a cursor at the first row not yet claimed. A
// streamed ε keeps, in off, where each root row's rows start: row qi owns
// [off[qi], off[qi+1]).
type elemSlot struct {
	iter  bat.IntVec
	items itemCol
	at    int
	off   []int32
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

// merge records where each root row's rows start — root row qi of iters
// owns [off[qi], off[qi+1]) — in one pass of the slot's iter column
// against the strictly ascending root iters. It reports false when a row
// has no root row: an orphan, the walk's error.
func (s *elemSlot) merge(iters bat.IntVec) bool {
	j := 0
	for qi, iter := range iters {
		if j < len(s.iter) && s.iter[j] < iter {
			return false
		}
		s.off[qi] = int32(j)
		for j < len(s.iter) && s.iter[j] == iter {
			j++
		}
	}
	s.off[len(iters)] = int32(j)
	return j == len(s.iter)
}

// elemInput is one ε execution's inputs as its skeleton walk reads them:
// the root rows in iter order, their names when the root name is dynamic,
// and every slot in (iter, pos) order.
type elemInput struct {
	store *xenc.Store
	skel  algebra.Skeleton
	iters bat.IntVec
	names itemCol
	slots []elemSlot
}

// elemSink is what the skeleton walk (elemInput.walk) feeds: the scan
// (elemScan), the fragment builder (elemFill) or the byte writer
// (elemBytes). The walk owns the order — skeleton steps, slot rows in
// (iter, pos) order, a run of atomics ended by whatever is not an atomic
// — and each sink what it makes of them.
type elemSink interface {
	// tag handles the Open or Close at skeleton step i of root row qi and
	// returns the last step it covered: the byte writer writes a run of
	// tags at once.
	tag(i, qi int) int
	// attr adds skeleton step i's attribute, valued by rows [lo, hi) of
	// its slot.
	attr(i int, items *itemCol, lo, hi int) error
	// atom adds row c of items to the open run of atomics.
	atom(items *itemCol, c int)
	// flush ends the open run of atomics.
	flush()
	// node adds a content node: a copy of it, or an attribute for an
	// attribute ref.
	node(n bat.NodeRef) error
}

// walk feeds the element tree of root row qi to s. The first pass over
// the rows claims each slot's rows by advancing its cursor and raises
// every error construction can raise, in document order; it records the
// offsets of a streamed ε. A replay — the fill pass, or a streamed tree
// being written — reads the offsets when there are any.
func (in *elemInput) walk(qi int, s elemSink, first bool) error {
	var iter int64
	if first {
		iter = in.iters[qi]
		// iters is sorted, so a second row for an iter is the next row.
		if qi > 0 && iter == in.iters[qi-1] {
			return fmt.Errorf("ε: multiple element names for iter %d", iter)
		}
		if in.skel.Dynamic() && in.names.str(qi) == "" {
			return fmt.Errorf("ε: empty element name in iter %d", iter)
		}
	}
	for i := 0; i < len(in.skel); i++ {
		st := &in.skel[i]
		switch st.Kind {
		case algebra.SkelOpen, algebra.SkelClose:
			s.flush()
			i = s.tag(i, qi)
		case algebra.SkelAttr, algebra.SkelSlot:
			sl := &in.slots[st.Slot]
			var lo, hi int
			switch {
			case first || sl.off == nil:
				var orphan int64
				lo, hi, orphan = sl.claim(in.iters[qi])
				if orphan >= 0 {
					return fmt.Errorf("ε: content iter %d has no element name", orphan)
				}
				if sl.off != nil {
					sl.off[qi], sl.off[qi+1] = int32(lo), int32(hi)
				}
			default:
				lo, hi = int(sl.off[qi]), int(sl.off[qi+1])
			}
			var err error
			if st.Kind == algebra.SkelAttr {
				s.flush()
				err = s.attr(i, &sl.items, lo, hi)
			} else {
				err = in.content(s, &sl.items, lo, hi)
			}
			if err != nil {
				return fmt.Errorf("ε: iter %d: %w", iter, err)
			}
		}
	}
	return nil
}

// content feeds rows [lo, hi) of a content slot to s.
func (in *elemInput) content(s elemSink, items *itemCol, lo, hi int) error {
	for c := lo; c < hi; c++ {
		n, isNode := items.node(c)
		if !isNode {
			s.atom(items, c)
			continue
		}
		s.flush()
		if err := s.node(n); err != nil {
			return err
		}
	}
	return nil
}

// elemExec is one ε execution's state, allocated once: the inputs, the
// sinks the walk feeds (which escape through the sink interface), and
// for a streamed ε the emitter's own — it is the xenc.Emitter.
type elemExec struct {
	in    elemInput
	scan  elemScan
	fill  elemFill
	runs  []staticRun
	spare atomic.Pointer[elemBytes] // a byte writer between two trees
	slots [4]elemSlot
	ids   [16]int32
}

// scanAll is the first pass over every root row: the sizes the fill pass
// reserves, the offsets a streamed tree is written from when columnar
// could not record them, and the errors. It leaves the slot cursors at
// the start.
func (x *elemExec) scanAll() error {
	in := &x.in
	x.scan = elemScan{store: in.store, skel: in.skel, src: fragCache{store: in.store}}
	for qi := range in.iters {
		if err := in.walk(qi, &x.scan, true); err != nil {
			return err
		}
	}
	for k := range in.slots {
		if sl := &in.slots[k]; sl.at < len(sl.iter) {
			return fmt.Errorf("ε: content iter %d has no element name", sl.iter[sl.at])
		}
		in.slots[k].at = 0
	}
	return nil
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
// The first pass (elemScan) checks the content and totals the nodes and
// attribute rows the trees hold. Then one of two sinks takes the trees.
// The materializing one reserves a fragment's columns once and fills them
// — a copied subtree as a column range — without reallocating; every tree
// of one execution is a root of that fragment. When stream is set — the
// ε's elements reach only the serializer (physical.Node.Stream) — no
// fragment is built: the trees are registered as one streamed fragment
// (xenc.Store.AddStreamed) whose emitter writes each one's bytes when the
// serializer asks, from the slot columns and the per-root-row offsets
// into them. Those need no totals, so a streamed ε walks its trees in the
// first pass only when its columns cannot rule out every error
// (elemExec.columnar).
func (e *Engine) evalElem(root *bat.Table, skel algebra.Skeleton, slotTabs []*bat.Table, stream bool) (*bat.Table, error) {
	x, err := e.newElemExec(root, skel, slotTabs, stream)
	if err != nil {
		return nil, err
	}
	in := &x.in
	if !stream || !x.columnar() {
		if err := x.scanAll(); err != nil {
			return nil, err
		}
	}
	outItem := make(bat.NodeVec, len(in.iters))
	var frag int32
	if stream {
		for k := range in.slots {
			in.slots[k].iter = nil // only the first pass reads it
		}
		x.scan = elemScan{}
		x.runs = staticRuns(skel)
		frag = e.Store.AddStreamed(x)
		for qi := range outItem {
			outItem[qi].Pre = int32(qi)
		}
	} else if frag, err = x.fillAll(outItem); err != nil {
		return nil, err
	}
	for i := range outItem {
		outItem[i].Frag = frag
	}
	return bat.NewTable("iter", in.iters, "item", outItem)
}

// newElemExec reads one ε execution's inputs: the root rows in iter order
// and every slot in (iter, pos) order, with room for the per-root-row
// offsets when the ε streams.
func (e *Engine) newElemExec(root *bat.Table, skel algebra.Skeleton, slotTabs []*bat.Table, stream bool) (*elemExec, error) {
	rSorted, err := root.SortBy("iter")
	if err != nil {
		return nil, err
	}
	x := &elemExec{in: elemInput{store: e.Store, skel: skel}}
	in := &x.in
	if in.iters, err = rSorted.Ints("iter"); err != nil {
		return nil, err
	}
	if skel.Dynamic() {
		col, err := rSorted.Col("item")
		if err != nil {
			return nil, err
		}
		in.names = readItems(col)
	}
	in.slots = x.slots[:]
	if len(slotTabs) > len(in.slots) {
		in.slots = make([]elemSlot, len(slotTabs))
	}
	in.slots = in.slots[:len(slotTabs)]
	var offs []int32
	if stream {
		offs = make([]int32, len(slotTabs)*(len(in.iters)+1))
	}
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
		in.slots[k] = elemSlot{iter: iter, items: readItems(col)}
		if stream {
			in.slots[k].off, offs = offs[:len(in.iters)+1], offs[len(in.iters)+1:]
		}
	}
	return x, nil
}

// columnar is a streamed ε's first pass over columns instead of trees: it
// records each slot's offsets by one merge of the slot's iter column
// against the root iters (elemSlot.merge). It reports false, and the walk
// (scanAll) must run to raise the error in its place and order, unless
// the columns rule out every error the walk raises:
//   - the root name is literal, so none is empty;
//   - the root iters ascend strictly, so none has two names;
//   - every slot row has a root row, so none is an orphan (the merge
//     finds out);
//   - attribute steps directly follow their element's start tag, named
//     apart, and no content column holds an attribute ref, so no
//     attribute follows content (XQTY0024) or repeats a name (XQDY0025).
func (x *elemExec) columnar() bool {
	in := &x.in
	if in.skel.Dynamic() || !attrsLead(in.skel) {
		return false
	}
	for qi := 1; qi < len(in.iters); qi++ {
		if in.iters[qi] == in.iters[qi-1] {
			return false
		}
	}
	for _, st := range in.skel {
		if st.Kind == algebra.SkelSlot && in.slots[st.Slot].items.holdsAttrRef() {
			return false
		}
	}
	for k := range in.slots {
		if !in.slots[k].merge(in.iters) {
			return false
		}
	}
	return true
}

// attrsLead reports whether every attribute step of skel directly follows
// its element's start tag or another such attribute step, with a name no
// earlier one there has.
func attrsLead(skel algebra.Skeleton) bool {
	for i, st := range skel {
		if st.Kind != algebra.SkelAttr {
			continue
		}
		j := i - 1
		for ; skel[j].Kind == algebra.SkelAttr; j-- {
			if skel[j].Name == st.Name {
				return false
			}
		}
		if skel[j].Kind != algebra.SkelOpen {
			return false
		}
	}
	return true
}

// fillAll is the materializing sink's pass: the trees of every root row
// into one fragment reserved from the scan's totals, their roots' pre
// ranks into roots.
func (x *elemExec) fillAll(roots bat.NodeVec) (int32, error) {
	in := &x.in
	fb := xenc.NewFragBuilder(in.store)
	fb.Reserve(x.scan.nodes, x.scan.attrs)
	// The skeleton's names are interned once per execution, not once per
	// element.
	ids := x.ids[:]
	if len(in.skel) > len(ids) {
		ids = make([]int32, len(in.skel))
	}
	ids = ids[:len(in.skel)]
	for i, st := range in.skel {
		switch {
		case st.Kind == algebra.SkelOpen && st.Name != "":
			ids[i] = fb.Tag(st.Name)
		case st.Kind == algebra.SkelAttr:
			ids[i] = fb.AttrName(st.Name)
		}
	}
	x.fill = elemFill{store: in.store, fb: fb, src: fragCache{store: in.store}, skel: in.skel, names: &in.names, ids: ids, roots: roots}
	for qi := range in.iters {
		if err := in.walk(qi, &x.fill, false); err != nil {
			return 0, err
		}
	}
	return fb.Finish()
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

// elemScan is ε's first pass. It counts the tree nodes and attribute rows
// the fill pass will append — one node per skeleton element and one
// attribute row per skeleton attribute per iteration; per content row,
// 1+size per copied subtree (a document node contributes its children
// only) with the attribute rows of its range, one attribute row per
// attribute ref, and one text node per run of atomics whose joined string
// is not empty, less every text that merges into a text sibling before it.
// And it raises what the fragment builder would: an attribute after
// content of its element (XQTY0024), two attributes of one name on one
// element (XQDY0025). A streamed tree is written only after its ε
// returned, so these errors, not the serializer, are where it fails.
type elemScan struct {
	store    *xenc.Store
	skel     algebra.Skeleton
	src      fragCache
	nodes    int
	attrs    int
	run      int  // atomics in the open run
	runText  bool // the open run's joined string is not empty
	lastText bool // the innermost open element's last child so far is a text node
	open     []scanElem
	names    []string // the attribute names of the open elements, innermost last
	openBuf  [8]scanElem
	namesBuf [8]string
}

// scanElem is one open element of the scan.
type scanElem struct {
	names int  // where its attribute names start in elemScan.names
	kids  bool // it has a child
}

func (s *elemScan) tag(i, _ int) int {
	// A new element has no children yet; a closed one is its parent's
	// last child.
	s.lastText = false
	if s.skel[i].Kind == algebra.SkelClose {
		top := s.open[len(s.open)-1]
		s.names, s.open = s.names[:top.names], s.open[:len(s.open)-1]
		return i
	}
	s.nodes++
	s.child()
	if s.open == nil {
		s.open, s.names = s.openBuf[:0], s.namesBuf[:0]
	}
	s.open = append(s.open, scanElem{names: len(s.names)})
	return i
}

// child records that the innermost open element has a child.
func (s *elemScan) child() {
	if len(s.open) > 0 {
		s.open[len(s.open)-1].kids = true
	}
}

func (s *elemScan) attr(i int, _ *itemCol, _, _ int) error {
	s.attrs++
	return s.attrNamed(s.skel[i].Name)
}

// attrNamed checks an attribute of the innermost open element.
func (s *elemScan) attrNamed(name string) error {
	top := s.open[len(s.open)-1]
	if top.kids {
		return fmt.Errorf("XQTY0024: attribute %q follows element content", name)
	}
	for _, n := range s.names[top.names:] {
		if n == name {
			return fmt.Errorf("XQDY0025: duplicate attribute %q on a constructed element", name)
		}
	}
	s.names = append(s.names, name)
	return nil
}

func (s *elemScan) atom(items *itemCol, c int) {
	// Two atomics join with a space, so only a lone empty string makes
	// no text.
	s.run++
	s.runText = s.runText || s.run > 1 || !items.emptyStr(c)
}

func (s *elemScan) flush() {
	if s.runText {
		if !s.lastText {
			s.nodes++
		}
		s.lastText = true
		s.child()
	}
	s.run, s.runText = 0, false
}

func (s *elemScan) node(n bat.NodeRef) error {
	sf := s.src.lookup(n)
	if sf == nil {
		// An element of a streamed ε: only a streamed ε reads one, and
		// it counts nothing.
		s.lastText = false
		s.child()
		return nil
	}
	if n.Pre >= xenc.AttrBase {
		s.attrs++
		return s.attrNamed(s.store.AttrNameOf(sf.AttrName[n.Pre-xenc.AttrBase]))
	}
	end := n.Pre + sf.Size[n.Pre]
	alo, ahi := sf.AttrRange(n.Pre, end)
	s.attrs += int(ahi - alo)
	switch sf.Kind[n.Pre] {
	case xenc.KindText:
		if !s.lastText {
			s.nodes++
		}
		s.lastText = true
	case xenc.KindDoc:
		if end == n.Pre {
			return nil
		}
		s.nodes += int(end - n.Pre)
		if s.lastText && sf.Kind[n.Pre+1] == xenc.KindText {
			s.nodes--
		}
		s.lastText = sf.Kind[end] == xenc.KindText && sf.Parent[end] == n.Pre
	default:
		s.nodes += int(end-n.Pre) + 1
		s.lastText = false
	}
	s.child()
	return nil
}

// elemFill is the materializing sink: the builder and the open run of
// atomics of the innermost open element.
type elemFill struct {
	store *xenc.Store
	fb    *xenc.FragBuilder
	src   fragCache
	skel  algebra.Skeleton
	names *itemCol    // the root names of a dynamic skeleton
	ids   []int32     // the skeleton's names, interned
	roots bat.NodeVec // the root elements' pre ranks
	atoms int         // atomics in the open run
	first string      // the run's first atomic: a run of one needs no buffer
	run   []byte      // a longer run, space-separated
}

func (w *elemFill) tag(i, qi int) int {
	switch {
	case w.skel[i].Kind == algebra.SkelClose:
		w.fb.EndElem()
	case i > 0:
		w.fb.StartElemTag(w.ids[i])
	case w.skel[0].Name != "":
		w.roots[qi].Pre = w.fb.StartElemTag(w.ids[0])
	default:
		w.roots[qi].Pre = w.fb.StartElem(w.names.str(qi))
	}
	return i
}

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

func (w *elemFill) node(n bat.NodeRef) error {
	return w.fb.CopyFrom(w.src.of(n), n.Pre)
}

// attr adds the attribute to the innermost open element, valued by the
// string values of rows [lo, hi) of its slot, space-joined.
func (w *elemFill) attr(i int, items *itemCol, lo, hi int) error {
	str := func(c int) string {
		if n, ok := items.node(c); ok {
			return w.store.StringValue(n)
		}
		return items.str(c)
	}
	if hi-lo == 1 {
		// The usual value, one string per iteration, needs no buffer.
		return w.fb.AddAttrNamed(w.ids[i], str(lo))
	}
	w.run = w.run[:0]
	for c := lo; c < hi; c++ {
		if c > lo {
			w.run = append(w.run, ' ')
		}
		w.run = append(w.run, str(c)...)
	}
	return w.fb.AddAttrNamed(w.ids[i], string(w.run))
}

// AppendTree writes the tree of root row root of a streamed ε
// (xenc.Emitter): the node ref (fragment, root). Its content was checked
// when the ε ran, so the walk cannot fail here. The emitter keeps the
// slots' item columns and each root row's offsets into them, nothing
// else of its inputs.
func (x *elemExec) AppendTree(dst []byte, root int32) []byte {
	b := x.spare.Swap(nil)
	if b == nil {
		b = &elemBytes{x: x, src: fragCache{store: x.in.store}}
	}
	b.dst = dst
	x.in.walk(int(root), b, false) //nolint:errcheck // checked by the first pass
	dst = b.dst
	b.dst = nil
	x.spare.Store(b)
	return dst
}

// staticRun is a maximal run of skeleton tags with literal names,
// rendered once per execution: text is the run written after a closed
// start tag — its last start tag left open when it ends on one (endsOpen)
// — and closes the length of its first end tag when it begins with one,
// which an open start tag turns into "/>".
type staticRun struct {
	last     int // the run's last step
	text     []byte
	closes   int
	endsOpen bool
}

// staticRuns renders the skeleton's runs of literal tags, indexed by
// their first step. A dynamic root's tags are written per tree.
func staticRuns(skel algebra.Skeleton) []staticRun {
	runs := make([]staticRun, len(skel))
	literal := func(i int) bool {
		st := skel[i]
		switch st.Kind {
		case algebra.SkelOpen:
			return st.Name != ""
		case algebra.SkelClose:
			return i < len(skel)-1 || !skel.Dynamic()
		}
		return false
	}
	var open []string
	var buf []byte
	for i := 0; i < len(skel); {
		if !literal(i) {
			switch skel[i].Kind {
			case algebra.SkelOpen:
				open = append(open, "")
			case algebra.SkelClose:
				open = open[:len(open)-1]
			}
			i++
			continue
		}
		r := &runs[i]
		start := len(buf)
		j := i
		for ; j < len(skel) && literal(j); j++ {
			if skel[j].Kind == algebra.SkelOpen {
				if r.endsOpen {
					buf = append(buf, '>')
				}
				buf = append(append(buf, '<'), skel[j].Name...)
				open = append(open, skel[j].Name)
				r.endsOpen = true
				continue
			}
			if r.endsOpen {
				buf = append(buf, '/', '>')
				r.endsOpen = false
			} else {
				buf = append(append(append(buf, '<', '/'), open[len(open)-1]...), '>')
				if j == i {
					r.closes = len(buf) - start
				}
			}
			open = open[:len(open)-1]
		}
		r.last, r.text = j-1, buf[start:len(buf):len(buf)]
		i = j
	}
	return runs
}

// elemBytes is the byte sink: it appends one streamed tree's
// serialization to dst. A start tag stays open until the element's first
// child — attributes arrive from content slots too — and an element
// without one closes as "<a/>".
type elemBytes struct {
	x       *elemExec
	src     fragCache
	dst     []byte
	tagOpen bool // the innermost start tag is written up to its attributes
	atoms   int  // atomics in the open run
}

// child closes the innermost start tag before a child.
func (b *elemBytes) child() {
	if b.tagOpen {
		b.dst = append(b.dst, '>')
		b.tagOpen = false
	}
}

func (b *elemBytes) tag(i, qi int) int {
	if r := &b.x.runs[i]; r.text != nil {
		text := r.text
		if b.tagOpen {
			if r.closes > 0 {
				b.dst, text = append(b.dst, '/', '>'), text[r.closes:]
			} else {
				b.dst = append(b.dst, '>')
			}
		}
		b.dst = append(b.dst, text...)
		b.tagOpen = r.endsOpen
		return r.last
	}
	// The root's dynamic name.
	name := b.x.in.names.str(qi)
	switch {
	case i == 0:
		b.dst = append(append(b.dst, '<'), name...)
		b.tagOpen = true
	case b.tagOpen:
		b.dst = append(b.dst, '/', '>')
		b.tagOpen = false
	default:
		b.dst = append(append(append(b.dst, '<', '/'), name...), '>')
	}
	return i
}

func (b *elemBytes) attr(i int, items *itemCol, lo, hi int) error {
	b.dst = append(append(append(b.dst, ' '), b.x.in.skel[i].Name...), '=', '"')
	for c := lo; c < hi; c++ {
		if c > lo {
			b.dst = append(b.dst, ' ')
		}
		if n, ok := items.node(c); ok {
			b.dst = xenc.EscapeAttr(b.dst, b.x.in.store.StringValue(n))
		} else {
			b.dst = items.appendEscaped(b.dst, c, xenc.EscapeAttr)
		}
	}
	b.dst = append(b.dst, '"')
	return nil
}

func (b *elemBytes) atom(items *itemCol, c int) {
	if b.atoms == 0 && items.emptyStr(c) {
		b.atoms = 1
		return
	}
	b.child()
	if b.atoms > 0 {
		b.dst = append(b.dst, ' ')
	}
	b.dst = items.appendEscaped(b.dst, c, xenc.EscapeText)
	b.atoms++
}

func (b *elemBytes) flush() { b.atoms = 0 }

func (b *elemBytes) node(n bat.NodeRef) error {
	store := b.x.in.store
	sf := b.src.lookup(n)
	switch {
	case sf == nil:
		b.child()
		b.dst = store.AppendSerialized(b.dst, n)
	case n.Pre >= xenc.AttrBase:
		i := n.Pre - xenc.AttrBase
		b.dst = append(append(append(b.dst, ' '), store.AttrNameOf(sf.AttrName[i])...), '=', '"')
		b.dst = append(xenc.EscapeAttr(b.dst, store.AttrVal(sf.AttrVal[i])), '"')
	case sf.Kind[n.Pre] == xenc.KindText:
		// What a path ending in text() copies, the usual content.
		b.child()
		b.dst = xenc.EscapeText(b.dst, store.Text(sf.Prop[n.Pre]))
	case sf.Kind[n.Pre] == xenc.KindDoc && sf.Size[n.Pre] == 0:
		// A document without children copies nothing.
	default:
		b.child()
		b.dst = store.AppendSubtree(b.dst, sf, n.Pre)
	}
	return nil
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
