package xenc

import (
	"fmt"

	"pathfinder/internal/bat"
)

// NodeKind classifies a stored node.
type NodeKind uint8

// Node kinds. Attributes are not part of the pre|size|level table; they
// live in a side table per fragment (as in Pathfinder's storage layout)
// and are addressed with pre ranks offset by AttrBase.
const (
	KindDoc NodeKind = iota
	KindElem
	KindText
	KindComment
	KindAttr // only appears in NodeRef-space, never in Fragment.Kind
)

func (k NodeKind) String() string {
	switch k {
	case KindDoc:
		return "doc"
	case KindElem:
		return "elem"
	case KindText:
		return "text"
	case KindComment:
		return "comment"
	case KindAttr:
		return "attr"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// AttrBase offsets attribute indices into the pre-rank space of a fragment
// so a bat.NodeRef can address attribute nodes: Pre >= AttrBase refers to
// the attribute at index Pre-AttrBase in the fragment's attribute table.
// The attribute table is materialized in document order (owner pre
// ascending), so sorting refs by (Frag, Pre) keeps attribute nodes of a
// fragment in document order relative to each other.
const AttrBase int32 = 1 << 30

// Fragment is one shredded tree (a loaded document) or a forest of
// constructed trees (the result of one constructor execution). Arrays are
// indexed by pre rank.
type Fragment struct {
	Name string // document URI for loaded docs, "" for constructed fragments

	Size   []int32    // number of nodes in the subtree below each node
	Level  []int32    // distance from the fragment root(s)
	Kind   []NodeKind // node kind
	Prop   []int32    // surrogate: tag id (elem), text id (text/comment), 0 (doc)
	Parent []int32    // parent pre rank, -1 for roots (derived, not part of the paper's schema — used by the parent axis)

	// Attribute side table, sorted by owner pre; attrOfs[p]..attrOfs[p+1]
	// delimit the attributes of node p.
	AttrOwner []int32
	AttrName  []int32
	AttrVal   []int32
	attrOfs   []int32
}

// NodeCount returns the number of tree nodes (attributes excluded).
func (f *Fragment) NodeCount() int { return len(f.Size) }

// AttrCount returns the number of attribute nodes.
func (f *Fragment) AttrCount() int { return len(f.AttrOwner) }

// Attrs returns the index range [lo, hi) into the attribute table holding
// the attributes of node pre.
func (f *Fragment) Attrs(pre int32) (lo, hi int32) { return f.AttrRange(pre, pre) }

// AttrRange returns the index range [alo, ahi) of the attribute rows owned
// by the nodes lo..hi — for lo..lo+Size[lo], the attributes of a subtree.
func (f *Fragment) AttrRange(lo, hi int32) (alo, ahi int32) {
	return f.attrOfs[lo], f.attrOfs[hi+1]
}

// sealAttrs builds the attrOfs offsets; must be called once all nodes and
// attributes are in place and AttrOwner is sorted ascending.
func (f *Fragment) sealAttrs() {
	//pfvet:allow colown -- callers gate on len(attrOfs) == 0: only never-published fragments are sealed (NewStoreFromParts skips fragments whose offsets exist, PR 7 reseal-race fix)
	f.attrOfs = make([]int32, len(f.Size)+1)
	if len(f.AttrOwner) == 0 {
		return // every range is [0, 0), which is what make left
	}
	j := 0
	for p := 0; p < len(f.Size); p++ {
		f.attrOfs[p] = int32(j)
		for j < len(f.AttrOwner) && f.AttrOwner[j] == int32(p) {
			j++
		}
	}
	f.attrOfs[len(f.Size)] = int32(j)
}

// reserve makes room for nodes more tree nodes and attrs more attribute
// rows, so an unpublished fragment fills without reallocating.
func (f *Fragment) reserve(nodes, attrs int) {
	f.Size = reserve(f.Size, nodes)
	f.Level = reserve(f.Level, nodes)
	f.Kind = reserve(f.Kind, nodes)
	f.Prop = reserve(f.Prop, nodes)
	f.Parent = reserve(f.Parent, nodes)
	f.AttrOwner = reserve(f.AttrOwner, attrs)
	f.AttrName = reserve(f.AttrName, attrs)
	f.AttrVal = reserve(f.AttrVal, attrs)
}

func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// fit gives every column of an unpublished fragment a capacity equal to
// its length, copying those that were reserved by an estimate: a sealed
// document keeps no slack for as long as it is loaded.
func (f *Fragment) fit() {
	f.Size = fit(f.Size)
	f.Level = fit(f.Level)
	f.Kind = fit(f.Kind)
	f.Prop = fit(f.Prop)
	f.Parent = fit(f.Parent)
	f.AttrOwner = fit(f.AttrOwner)
	f.AttrName = fit(f.AttrName)
	f.AttrVal = fit(f.AttrVal)
}

func fit[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// EncodedBytes reports the storage footprint of the structural encoding:
// size|level|kind|prop plus the attribute table. The pre column itself is
// virtual (MonetDB void column), costing nothing — one of the properties
// the paper exploits.
func (f *Fragment) EncodedBytes() int64 {
	n := int64(len(f.Size))
	a := int64(len(f.AttrOwner))
	// size:4 level:4 kind:1 prop:4 per node; owner/name/val 4+4+4 per attr.
	return n*13 + a*12
}

// IsRoot reports whether pre is a root of the fragment (level 0 for
// constructed forests, the doc node for loaded documents).
func (f *Fragment) IsRoot(pre int32) bool { return f.Parent[pre] < 0 }

// RootOf walks to the topmost ancestor of pre within the fragment — the
// fn:root semantics for both document and constructed nodes.
func (f *Fragment) RootOf(pre int32) int32 {
	for f.Parent[pre] >= 0 {
		pre = f.Parent[pre]
	}
	return pre
}

// Validate checks the structural invariants of the encoding; used by tests
// and the property-based shredder checks.
func (f *Fragment) Validate() error {
	n := int32(len(f.Size))
	if int32(len(f.Level)) != n || int32(len(f.Kind)) != n || int32(len(f.Prop)) != n || int32(len(f.Parent)) != n {
		return fmt.Errorf("column lengths disagree")
	}
	for p := int32(0); p < n; p++ {
		if f.Size[p] < 0 || p+f.Size[p] > n-1 {
			return fmt.Errorf("node %d: size %d overflows fragment", p, f.Size[p])
		}
		par := f.Parent[p]
		if par >= 0 {
			// v' is a descendant of v iff pre(v) < pre(v') ≤ pre(v)+size(v).
			if !(par < p && p <= par+f.Size[par]) {
				return fmt.Errorf("node %d: parent %d does not contain it", p, par)
			}
			if f.Level[p] != f.Level[par]+1 {
				return fmt.Errorf("node %d: level %d, parent level %d", p, f.Level[p], f.Level[par])
			}
		} else if f.Level[p] != 0 {
			return fmt.Errorf("root %d has level %d", p, f.Level[p])
		}
		// Children subtrees tile the parent's size exactly.
		if f.Kind[p] == KindText && f.Size[p] != 0 {
			return fmt.Errorf("text node %d has size %d", p, f.Size[p])
		}
	}
	for p := int32(0); p < n; p++ {
		var sum int32
		c := p + 1
		for c <= p+f.Size[p] {
			sum += f.Size[c] + 1
			c += f.Size[c] + 1
		}
		if sum != f.Size[p] {
			return fmt.Errorf("node %d: children sizes sum to %d, size is %d", p, sum, f.Size[p])
		}
	}
	for i := 1; i < len(f.AttrOwner); i++ {
		if f.AttrOwner[i] < f.AttrOwner[i-1] {
			return fmt.Errorf("attribute table not sorted by owner at %d", i)
		}
	}
	return nil
}

// KindOf returns the node kind for a (possibly attribute) pre rank.
func (f *Fragment) KindOf(pre int32) NodeKind {
	if pre >= AttrBase {
		return KindAttr
	}
	return f.Kind[pre]
}

// Doc order helpers ---------------------------------------------------------

// Before reports whether a precedes b in document order within this
// fragment, treating attributes as located at their owner element
// (immediately after it, before its children).
func (f *Fragment) Before(a, b int32) bool {
	pa, pb := ownerPre(f, a), ownerPre(f, b)
	if pa != pb {
		return pa < pb
	}
	// Same owner position: element before its attributes, attributes in
	// table order.
	aa, ab := a >= AttrBase, b >= AttrBase
	switch {
	case !aa && ab:
		return true
	case aa && !ab:
		return false
	case aa && ab:
		return a < b
	default:
		return false
	}
}

func ownerPre(f *Fragment, p int32) int32 {
	if p >= AttrBase {
		return f.AttrOwner[p-AttrBase]
	}
	return p
}

// RefBefore orders two node refs globally: fragment id first, then
// fragment-local document order.
func (s *Store) RefBefore(a, b bat.NodeRef) bool {
	if a.Frag != b.Frag {
		return a.Frag < b.Frag
	}
	return s.Frag(a.Frag).Before(a.Pre, b.Pre)
}
