// Package bat implements the columnar storage substrate of the Pathfinder
// reproduction: typed column vectors and tables of named columns, in the
// spirit of MonetDB's Binary Association Tables (BATs).
//
// The relational algebra produced by the loop-lifting compiler
// (internal/core) is evaluated over bat.Table values by internal/engine.
// Sequence encodings follow the paper: an iter|pos|item schema where iter
// and pos are dense integer columns and item is a polymorphic column of
// XQuery items.
package bat

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates the runtime type of an Item. It mirrors the dynamic
// types of the XQuery data model subset supported by Pathfinder:
// xs:integer, xs:double, xs:string, xs:boolean, xs:untypedAtomic, and
// nodes (identified by fragment and preorder rank).
type Kind uint8

// Item kinds.
const (
	KInt Kind = iota
	KFloat
	KStr
	KBool
	KUntyped // xs:untypedAtomic: carries a string payload, compares numerically against numbers
	KNode
)

func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KFloat:
		return "dbl"
	case KStr:
		return "str"
	case KBool:
		return "bool"
	case KUntyped:
		return "uA"
	case KNode:
		return "node"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// NodeRef identifies a node: the fragment it lives in (loaded documents and
// constructor results each occupy one fragment) and its preorder rank
// within that fragment. Document order is (Frag, Pre) lexicographic.
type NodeRef struct {
	Frag int32
	Pre  int32
}

func (n NodeRef) String() string { return fmt.Sprintf("#%d.%d", n.Frag, n.Pre) }

// Less reports whether n precedes m in document order.
func (n NodeRef) Less(m NodeRef) bool {
	if n.Frag != m.Frag {
		return n.Frag < m.Frag
	}
	return n.Pre < m.Pre
}

// Item is a single XQuery item: one atomic value or one node reference.
// It is a tagged union; the fields used depend on Kind:
//
//	KInt      → I
//	KFloat    → F
//	KStr      → S
//	KBool     → B
//	KUntyped  → S
//	KNode     → N
type Item struct {
	Kind Kind
	I    int64
	F    float64
	B    bool
	S    string
	N    NodeRef
}

// Convenience constructors.

func Int(v int64) Item      { return Item{Kind: KInt, I: v} }
func Float(v float64) Item  { return Item{Kind: KFloat, F: v} }
func Str(v string) Item     { return Item{Kind: KStr, S: v} }
func Bool(v bool) Item      { return Item{Kind: KBool, B: v} }
func Untyped(v string) Item { return Item{Kind: KUntyped, S: v} }
func Node(n NodeRef) Item   { return Item{Kind: KNode, N: n} }
func True() Item            { return Bool(true) }
func False() Item           { return Bool(false) }

// IsNumeric reports whether the item is xs:integer or xs:double.
func (it Item) IsNumeric() bool { return it.Kind == KInt || it.Kind == KFloat }

// AsFloat converts a numeric or untyped item to float64. Untyped atomics
// are cast following XQuery's number() semantics; a failed cast yields NaN.
func (it Item) AsFloat() float64 {
	switch it.Kind {
	case KInt:
		return float64(it.I)
	case KFloat:
		return it.F
	case KBool:
		if it.B {
			return 1
		}
		return 0
	case KStr, KUntyped:
		f, err := strconv.ParseFloat(strings.TrimSpace(it.S), 64)
		if err != nil {
			return math.NaN()
		}
		return f
	}
	return math.NaN()
}

// AsInt converts the item to an int64, truncating doubles.
func (it Item) AsInt() (int64, error) {
	switch it.Kind {
	case KInt:
		return it.I, nil
	case KFloat:
		return int64(it.F), nil
	case KUntyped, KStr:
		s := strings.TrimSpace(it.S)
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n, nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("cannot cast %q to xs:integer", it.S)
		}
		return int64(f), nil
	}
	return 0, fmt.Errorf("cannot cast %s to xs:integer", it.Kind)
}

// StringValue renders atomic items the way fn:string does. Node items
// cannot be stringified here (their string value lives in the document
// store); callers must atomize nodes before calling StringValue.
func (it Item) StringValue() string {
	switch it.Kind {
	case KInt:
		return strconv.FormatInt(it.I, 10)
	case KFloat:
		return formatFloat(it.F)
	case KStr, KUntyped:
		return it.S
	case KBool:
		if it.B {
			return "true"
		}
		return "false"
	case KNode:
		return it.N.String()
	}
	return ""
}

// formatFloat renders a double using XQuery's canonical-ish form: integral
// doubles print without a trailing ".0" fraction marker mess, matching what
// the paper's serializer would emit for computed numeric content.
func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Key is a comparable projection of an Item, usable as a Go map key for
// hash joins and duplicate elimination. Numeric items of equal value map
// to the same key (5 and 5.0e0 join), matching XQuery's eq semantics.
type Key struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Key returns the hash key of the item.
func (it Item) Key() Key {
	switch it.Kind {
	case KInt:
		// Normalize integral values across int/float so eq-joins across
		// numeric types meet in the same hash bucket.
		return Key{Kind: KFloat, F: float64(it.I)}
	case KFloat:
		return Key{Kind: KFloat, F: it.F}
	case KStr, KUntyped:
		return Key{Kind: KStr, S: it.S}
	case KBool:
		if it.B {
			return Key{Kind: KBool, I: 1}
		}
		return Key{Kind: KBool}
	case KNode:
		return Key{Kind: KNode, I: int64(it.N.Frag)<<32 | int64(uint32(it.N.Pre))}
	}
	return Key{Kind: it.Kind}
}

// Compare performs an XQuery value comparison between two atomic items.
// It returns -1, 0, or +1, and an error when the items are incomparable.
// Following the general-comparison rules (XQuery 1.0 §3.5.2), an untyped
// atomic is cast to xs:double against a number and to xs:string against
// a string or another untyped atomic: "1" = "1.0" is false whatever the
// two strings would parse as.
func Compare(a, b Item) (int, error) {
	if a.Kind == KNode || b.Kind == KNode {
		return 0, fmt.Errorf("value comparison on node item (atomize first)")
	}
	// Promote untyped against numeric.
	an, bn := a.IsNumeric(), b.IsNumeric()
	switch {
	case an && bn, an && b.Kind == KUntyped, bn && a.Kind == KUntyped:
		af, bf := a.AsFloat(), b.AsFloat()
		if math.IsNaN(af) || math.IsNaN(bf) {
			return 0, fmt.Errorf("cannot compare %q numerically", pickNaN(a, b))
		}
		return cmpFloat(af, bf), nil
	case a.Kind == KBool || b.Kind == KBool:
		if a.Kind != KBool || b.Kind != KBool {
			return 0, fmt.Errorf("cannot compare %s with %s", a.Kind, b.Kind)
		}
		return cmpFloat(a.AsFloat(), b.AsFloat()), nil
	default:
		// String-ish comparison; both operands must be strings or untyped.
		if (a.Kind == KStr || a.Kind == KUntyped) && (b.Kind == KStr || b.Kind == KUntyped) {
			return strings.Compare(a.S, b.S), nil
		}
		return 0, fmt.Errorf("cannot compare %s with %s", a.Kind, b.Kind)
	}
}

func pickNaN(a, b Item) string {
	if math.IsNaN(a.AsFloat()) {
		return a.StringValue()
	}
	return b.StringValue()
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// DeepEqual reports exact equality of two items including node identity.
func DeepEqual(a, b Item) bool { return a.Key() == b.Key() }
