package xqcore

import (
	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// Expr is a Core expression. Every node carries its inferred static type.
type Expr interface {
	Ty() Type
}

type typed struct{ T Type }

func (t typed) Ty() Type { return t.T }

// Lit is an atomic literal.
type Lit struct {
	typed
	Val bat.Item
}

// Empty is the empty sequence.
type Empty struct{ typed }

// Seq is binary sequence concatenation (n-ary sequences normalize to
// right-nested Seq chains).
type Seq struct {
	typed
	L, R Expr
}

// Var is a variable reference.
type Var struct {
	typed
	Name string
}

// Let binds Var to Bound within Body.
type Let struct {
	typed
	Var   string
	Bound Expr
	Body  Expr
}

// OrderKey is a sort key of an ordered For; the key expression sees the
// loop variable.
type OrderKey struct {
	Key  Expr
	Desc bool
}

// For iterates Var over In, evaluating Body per binding; PosVar (optional)
// is bound to the 1-based iteration position. Order, when non-empty,
// reorders the bindings by the key values before concatenating the body
// results — the Core form of `order by`.
type For struct {
	typed
	Var    string
	PosVar string
	In     Expr
	Body   Expr
	Order  []OrderKey
}

// If branches on a boolean singleton condition (normalization inserts Ebv
// where the surface syntax allows any sequence).
type If struct {
	typed
	Cond, Then, Else Expr
}

// BinOp is an arithmetic (+ - * div idiv mod), value comparison
// (eq ne lt le gt ge), or Boolean (and or) operator over singleton
// (possibly optional) operands.
type BinOp struct {
	typed
	Op   string
	L, R Expr
}

// GenCmp is an existentially quantified general comparison (= != < <= > >=).
type GenCmp struct {
	typed
	Op   string
	L, R Expr
}

// NodeCmp is a node comparison (is, <<, >>).
type NodeCmp struct {
	typed
	Op   string
	L, R Expr
}

// Ebv computes the effective boolean value of its operand.
type Ebv struct {
	typed
	X Expr
}

// StepEx applies one location step to the node sequence In; the result is
// in distinct document order per the XPath semantics.
type StepEx struct {
	typed
	Axis algebra.Axis
	Test algebra.KindTest
	In   Expr
	// Reverse numbers the result in reverse document order: the step is
	// on a reverse axis and a positional predicate reads the numbering.
	Reverse bool
}

// DDO is fs:distinct-doc-order.
type DDO struct {
	typed
	X Expr
}

// Doc is fn:doc.
type Doc struct {
	typed
	X Expr
}

// Coll is fn:collection: the document sequence of a named collection, in
// shard-manifest order. X evaluates to the collection name; the empty
// string is the default collection (whatever store the evaluation is
// bound to).
type Coll struct {
	typed
	X Expr
}

// Root is fn:root.
type Root struct {
	typed
	X Expr
}

// Data is fn:data mapped over the operand sequence.
type Data struct {
	typed
	X Expr
}

// ElemC constructs an element (ε).
type ElemC struct {
	typed
	Name    Expr
	Content Expr
}

// AttrC constructs an attribute.
type AttrC struct {
	typed
	Name  Expr
	Value Expr
}

// TextC constructs a text node (τ).
type TextC struct {
	typed
	Content Expr
}

// InstanceOf tests whether X matches the sequence type (item class +
// occurrence); the compilation target of typeswitch.
type InstanceOf struct {
	typed
	X      Expr
	Of     algebra.SeqType
	OfName string // element(name) restriction
	Occ    byte   // 0, '?', '*', '+'
}

// Call is a call to one of the remaining built-ins that Core keeps
// primitive: count, sum, min, max, avg, empty, exists, not, boolean,
// string, number, concat, contains, starts-with, string-length,
// zero-or-one, exactly-one, position, last, true, false, string-join.
type Call struct {
	typed
	Name string
	Args []Expr
}

// PosFilter selects by position: the Nth item (1-based) or the last.
type PosFilter struct {
	typed
	In   Expr
	Nth  int64 // valid when !Last
	Last bool
}

// SortBy — reserved word avoidance: ordering is folded into For.Order.

// Helper constructors used by the normalizer and by tests.

// NewLit builds a literal with its precise type.
func NewLit(v bat.Item) *Lit {
	var c ItemClass
	switch v.Kind {
	case bat.KInt:
		c = IInt
	case bat.KFloat:
		c = IDbl
	case bat.KStr:
		c = IStr
	case bat.KBool:
		c = IBool
	case bat.KUntyped:
		c = IUntyped
	default:
		c = IAny
	}
	return &Lit{typed: typed{Type{Item: c, Card: COne}}, Val: v}
}

// NewEmpty builds the empty sequence.
func NewEmpty() *Empty { return &Empty{typed{Type{Item: IAny, Card: CEmpty}}} }

// NewLet builds a let binding; used by back ends that rewrite Core (e.g.
// the compiler's join recognition commuting lets past where-conditions).
func NewLet(v string, bound, body Expr) *Let {
	return &Let{typed: typed{body.Ty()}, Var: v, Bound: bound, Body: body}
}
