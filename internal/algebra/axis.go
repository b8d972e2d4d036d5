// Package algebra defines Pathfinder's target language: the "assembly
// style" relational algebra of Table 1 in the paper. Plans are DAGs of Op
// nodes over named columns; the operator set is deliberately restricted
// (all joins are equi-joins, π never eliminates duplicates, all unions are
// disjoint) because those restrictions are what make the algebra
// efficiently implementable on any relational back-end.
package algebra

import "fmt"

// Axis is an XPath axis, evaluated by the staircase join operator.
type Axis uint8

// XPath axes.
const (
	Child Axis = iota
	Descendant
	DescendantOrSelf
	Parent
	Ancestor
	AncestorOrSelf
	Following
	Preceding
	FollowingSibling
	PrecedingSibling
	Self
	Attribute
)

// Reverse reports whether a is a reverse axis (XPath 2.0 §3.2.1.1): a
// positional predicate on a step along it counts in reverse document
// order.
func (a Axis) Reverse() bool {
	switch a {
	case Parent, Ancestor, AncestorOrSelf, Preceding, PrecedingSibling:
		return true
	}
	return false
}

func (a Axis) String() string {
	switch a {
	case Child:
		return "child"
	case Descendant:
		return "descendant"
	case DescendantOrSelf:
		return "descendant-or-self"
	case Parent:
		return "parent"
	case Ancestor:
		return "ancestor"
	case AncestorOrSelf:
		return "ancestor-or-self"
	case Following:
		return "following"
	case Preceding:
		return "preceding"
	case FollowingSibling:
		return "following-sibling"
	case PrecedingSibling:
		return "preceding-sibling"
	case Self:
		return "self"
	case Attribute:
		return "attribute"
	}
	return fmt.Sprintf("axis(%d)", uint8(a))
}

// AxisByName resolves an axis name as written in a query.
func AxisByName(name string) (Axis, error) {
	for a := Child; a <= Attribute; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown axis %q", name)
}

// TestKind classifies node tests.
type TestKind uint8

// Node test kinds: name or wildcard element test, text(), node(),
// comment(), and attribute name/wildcard tests.
const (
	TestElem TestKind = iota // element(name) or element(*) when Name == ""
	TestText
	TestNode
	TestComment
	TestAttr // attribute(name) or attribute(*) when Name == ""
)

// KindTest is the ν in a location step e/α::ν.
type KindTest struct {
	Kind TestKind
	Name string // element tag or attribute name; "" matches any
}

func (t KindTest) String() string {
	switch t.Kind {
	case TestElem:
		if t.Name == "" {
			return "*"
		}
		return t.Name
	case TestText:
		return "text()"
	case TestNode:
		return "node()"
	case TestComment:
		return "comment()"
	case TestAttr:
		if t.Name == "" {
			return "@*"
		}
		return "@" + t.Name
	}
	return "?"
}
