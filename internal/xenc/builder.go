package xenc

import "fmt"

// FragBuilder assembles a new fragment at query time — the runtime of the
// ε (element construction) and τ (text construction) operators. One
// builder execution produces one fragment that may contain several root
// trees (one per iteration of the constructing loop); roots sit at level 0
// and fn:root resolves to the constructed tree's top, not the fragment.
//
// The fragment is private to the builder until Finish registers it, so
// the builder writes its columns in place; a caller that knows the totals
// calls Reserve first and the fill never reallocates.
type FragBuilder struct {
	store    *Store
	sh       shredder
	tag      lastPut // one operator execution names its elements alike,
	attrName lastPut // and its attributes: intern per distinct name
	run      []byte  // the merged string of the text node at runAt
	runAt    int32   // -1: no text node has absorbed a sibling yet
}

// lastPut remembers what a pool answered for the previous string.
type lastPut struct {
	s  string
	id int32
	ok bool
}

func (l *lastPut) put(p *pool, s string) int32 {
	if !l.ok || s != l.s {
		l.s, l.id, l.ok = s, p.Put(s), true
	}
	return l.id
}

// NewFragBuilder starts a fresh constructed fragment in the store.
func NewFragBuilder(s *Store) *FragBuilder {
	f := &Fragment{}
	return &FragBuilder{store: s, sh: shredder{frag: f}, runAt: -1}
}

// Reserve sizes the five node columns for nodes more tree nodes and the
// three attribute columns for attrs more attribute rows.
func (b *FragBuilder) Reserve(nodes, attrs int) { b.sh.frag.reserve(nodes, attrs) }

// StartElem opens a new element with the given tag and returns its pre
// rank within the fragment under construction.
func (b *FragBuilder) StartElem(tag string) int32 {
	return b.StartElemTag(b.tag.put(b.store.tags, tag))
}

// Tag interns an element name for StartElemTag.
func (b *FragBuilder) Tag(name string) int32 { return b.store.tags.Put(name) }

// StartElemTag is StartElem by an interned tag.
func (b *FragBuilder) StartElemTag(tag int32) int32 {
	b.endRun()
	return b.sh.openNode(KindElem, tag)
}

// EndElem closes the innermost open element.
func (b *FragBuilder) EndElem() {
	b.endRun()
	b.sh.closeNode()
}

// AddText appends a text node, or — when the innermost open element's
// last child is a text node already — folds the text into that one:
// adjacent text nodes in constructor content merge (XQuery §3.7.1.3).
// Roots never merge; τ makes one node per call. Empty strings produce no
// node, per the XQuery constructor semantics.
func (b *FragBuilder) AddText(text string) {
	if text != "" && !b.extendText(text) {
		b.sh.leaf(KindText, b.store.texts.Put(text))
	}
}

// extendText appends text to the innermost open element's last child if
// that is a text node, and reports whether it did. The merged string
// collects in run and is interned once, when the run ends: interning each
// prefix would leave a run of n texts quadratic in the store-wide pool,
// which is never freed.
func (b *FragBuilder) extendText(text string) bool {
	last := b.lastChildText()
	if last < 0 {
		return false
	}
	if b.runAt != last {
		b.run = append(b.run[:0], b.store.texts.Get(b.sh.frag.Prop[last])...)
		b.runAt = last
	}
	b.run = append(b.run, text...)
	return true
}

// endRun gives the text node that absorbed its siblings its merged
// string. Every call that adds something other than text to the open
// element, or closes it, ends the run.
func (b *FragBuilder) endRun() {
	if b.runAt >= 0 {
		b.sh.frag.Prop[b.runAt] = b.store.texts.Put(string(b.run))
		b.runAt = -1
	}
}

// lastChildText returns the pre of the innermost open element's last
// child if that is a text node, -1 otherwise. A text node has no
// descendants, so it is its parent's last child exactly when it is the
// fragment's last node.
func (b *FragBuilder) lastChildText() int32 {
	f := b.sh.frag
	last := int32(len(f.Size)) - 1
	if len(b.sh.open) == 0 || last < 0 || f.Kind[last] != KindText || f.Parent[last] != b.sh.open[len(b.sh.open)-1] {
		return -1
	}
	return last
}

// AddAttr attaches an attribute to the innermost open element. It must be
// called before any content is added to that element.
func (b *FragBuilder) AddAttr(name, val string) error {
	return b.AddAttrNamed(b.attrName.put(b.store.attrNames, name), val)
}

// AttrName interns an attribute name for AddAttrNamed.
func (b *FragBuilder) AttrName(name string) int32 { return b.store.attrNames.Put(name) }

// AddAttrNamed is AddAttr by an interned name.
func (b *FragBuilder) AddAttrNamed(name int32, val string) error {
	return b.addAttr(name, b.store.attrVals.Put(val))
}

func (b *FragBuilder) addAttr(nameID, valID int32) error {
	f := b.sh.frag
	if len(b.sh.open) == 0 {
		return fmt.Errorf("attribute %q constructed outside an element", b.store.attrNames.Get(nameID))
	}
	owner := b.sh.open[len(b.sh.open)-1]
	if int32(len(f.Size))-1 != owner {
		return fmt.Errorf("XQTY0024: attribute %q follows element content", b.store.attrNames.Get(nameID))
	}
	// The owner is the fragment's last node, so its attributes are the
	// tail of the attribute table; an element has few.
	for i := len(f.AttrOwner) - 1; i >= 0 && f.AttrOwner[i] == owner; i-- {
		if b.sameName(f.AttrName[i], nameID) {
			return fmt.Errorf("XQDY0025: duplicate attribute %q on a constructed element", b.store.attrNames.Get(nameID))
		}
	}
	b.sh.addAttr(owner, nameID, valID)
	return nil
}

// sameName reports whether two attribute-name surrogates name the same
// attribute. Within one store a name has one surrogate, except on a
// scratch view whose base interned a name after the view did (see
// Scratch): only a base and a private surrogate can then disagree, and
// those are compared by content.
func (b *FragBuilder) sameName(x, y int32) bool {
	if x == y {
		return true
	}
	return (x >= PrivateBase) != (y >= PrivateBase) && b.store.attrNames.Get(x) == b.store.attrNames.Get(y)
}

// CopyFrom deep-copies the subtree rooted at pre in sf (any fragment of
// the store) into the fragment under construction — the node-copy
// semantics of enclosed constructor content. Attribute refs copy as
// attributes of the innermost open element; document nodes copy their
// children. ε resolves sf once per run of refs into one fragment.
func (b *FragBuilder) CopyFrom(sf *Fragment, pre int32) error {
	if pre >= AttrBase {
		i := pre - AttrBase
		return b.addAttr(sf.AttrName[i], sf.AttrVal[i])
	}
	lo, hi := pre, pre+sf.Size[pre]
	if sf.Kind[pre] == KindDoc {
		lo++ // copying a document node copies its children
		if lo > hi {
			return nil
		}
	}
	if sf.Kind[lo] == KindText && b.extendText(b.store.texts.Get(sf.Prop[lo])) {
		if lo++; lo > hi {
			return nil
		}
	}
	if lo == hi && sf.Kind[lo] != KindElem {
		// A text or comment — what a path ending in text() copies — has
		// no descendants and no attributes: one row, not five ranges.
		b.endRun()
		b.sh.leaf(sf.Kind[lo], sf.Prop[lo])
		return nil
	}
	b.copyRange(sf, lo, hi)
	return nil
}

// copyRange appends the source rows [lo, hi] — one subtree, or the sibling
// subtrees below a document node — under the innermost open element, or
// as roots when none is open. Pools are store-wide, so surrogates carry
// over unchanged and the copy is the structural array copy MonetDB/XQuery
// performs for constructors: five column ranges appended as they are, one
// pass re-levelling them, one shifting parents by the distance the range
// moved, and the attribute rows of the range appended with their owners
// shifted likewise. A subtree that was valid at its source stays valid, so
// nothing is re-checked per node.
func (b *FragBuilder) copyRange(sf *Fragment, lo, hi int32) {
	b.endRun()
	f := b.sh.frag
	base := int32(len(f.Size))
	shift := base - lo
	parent, level := int32(-1), int32(0)
	if len(b.sh.open) > 0 {
		parent = b.sh.open[len(b.sh.open)-1]
		level = f.Level[parent] + 1
	}
	f.Size = append(f.Size, sf.Size[lo:hi+1]...)
	f.Kind = append(f.Kind, sf.Kind[lo:hi+1]...)
	f.Prop = append(f.Prop, sf.Prop[lo:hi+1]...)
	f.Level = append(f.Level, sf.Level[lo:hi+1]...)
	f.Parent = append(f.Parent, sf.Parent[lo:hi+1]...)
	if relevel := level - sf.Level[lo]; relevel != 0 {
		shiftBy(f.Level[base:], relevel)
	}
	shiftBy(f.Parent[base:], shift)
	for c := lo; c <= hi; c += sf.Size[c] + 1 {
		f.Parent[c+shift] = parent
	}
	if alo, ahi := sf.AttrRange(lo, hi); alo < ahi {
		abase := len(f.AttrOwner)
		f.AttrOwner = append(f.AttrOwner, sf.AttrOwner[alo:ahi]...)
		f.AttrName = append(f.AttrName, sf.AttrName[alo:ahi]...)
		f.AttrVal = append(f.AttrVal, sf.AttrVal[alo:ahi]...)
		shiftBy(f.AttrOwner[abase:], shift)
	}
}

// shiftBy adds d to every element of a column range the builder has just
// appended to its unpublished fragment.
func shiftBy(col []int32, d int32) {
	for i := range col {
		col[i] += d
	}
}

// OpenCount returns the number of currently open elements (0 at a root
// boundary).
func (b *FragBuilder) OpenCount() int { return len(b.sh.open) }

// NextPre returns the pre rank the next node will receive.
func (b *FragBuilder) NextPre() int32 { return int32(len(b.sh.frag.Size)) }

// Finish validates, registers the fragment and returns its id. A builder
// must not be used after Finish.
func (b *FragBuilder) Finish() (int32, error) {
	if len(b.sh.open) != 0 {
		return 0, fmt.Errorf("fragment finished with %d open elements", len(b.sh.open))
	}
	b.sh.frag.sealAttrs()
	return b.store.addFrag(b.sh.frag), nil
}
