package algebra

import "fmt"

// FunKind identifies a per-row operator ⊛ (arithmetic, comparison, Boolean
// connective, string function, or node-level primitive).
type FunKind uint8

// Row functions.
const (
	FunAdd FunKind = iota
	FunSub
	FunMul
	FunDiv
	FunIDiv
	FunMod
	FunNeg

	FunEq // value comparison with numeric promotion
	FunNe
	FunLt
	FunLe
	FunGt
	FunGe

	FunAnd
	FunOr
	FunNot

	FunConcat
	FunContains
	FunStartsWith
	FunStringLength

	FunAtomize  // fn:data on a single item: nodes → untyped string value
	FunString   // fn:string
	FunNumber   // fn:number
	FunBoolWrap // identity on booleans; type error otherwise (guards ebv)

	FunDocBefore // << : document order comparison of two nodes
	FunNodeIs    // is : node identity
	FunTypeIs    // instance-of test against Op.Type
	FunEbvItem   // single-item effective boolean value

	FunSubstring  // fn:substring(s, start)
	FunSubstring3 // fn:substring(s, start, len)
	FunNameOf     // fn:name(node)
)

var funNames = map[FunKind]string{
	FunAdd: "+", FunSub: "-", FunMul: "*", FunDiv: "div", FunIDiv: "idiv",
	FunMod: "mod", FunNeg: "neg",
	FunEq: "eq", FunNe: "ne", FunLt: "lt", FunLe: "le", FunGt: "gt", FunGe: "ge",
	FunAnd: "and", FunOr: "or", FunNot: "not",
	FunConcat: "concat", FunContains: "contains", FunStartsWith: "starts-with",
	FunStringLength: "string-length",
	FunAtomize:      "data", FunString: "string", FunNumber: "number", FunBoolWrap: "boolean",
	FunDocBefore: "<<", FunNodeIs: "is", FunTypeIs: "instance-of",
	FunEbvItem:   "ebv",
	FunSubstring: "substring", FunSubstring3: "substring3", FunNameOf: "name",
}

func (f FunKind) String() string {
	if s, ok := funNames[f]; ok {
		return s
	}
	return fmt.Sprintf("fun(%d)", uint8(f))
}

// Arity returns the number of column arguments the function consumes.
func (f FunKind) Arity() int {
	switch f {
	case FunNeg, FunNot, FunStringLength, FunAtomize, FunString, FunNumber,
		FunBoolWrap, FunTypeIs, FunEbvItem, FunNameOf:
		return 1
	case FunSubstring3:
		return 3
	default:
		return 2
	}
}

// AggKind identifies an aggregate computed per partition.
type AggKind uint8

// Aggregates. Count ignores its argument column.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
	AggStrJoin // concatenate string values, separated by Op.Sep
)

func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggStrJoin:
		return "string-join"
	}
	return fmt.Sprintf("agg(%d)", uint8(a))
}

// SeqType is the lightweight item-type domain used by FunTypeIs (the
// compilation target of typeswitch).
type SeqType uint8

// Type tests.
const (
	TyItem SeqType = iota // any item
	TyNode                // any node
	TyElem                // element(); Op.TypeName restricts the tag
	TyText
	TyAttr
	TyDocNode
	TyAtomic
	TyInteger
	TyDouble
	TyNumeric
	TyString
	TyBoolean
	TyUntyped
)

func (t SeqType) String() string {
	switch t {
	case TyItem:
		return "item()"
	case TyNode:
		return "node()"
	case TyElem:
		return "element()"
	case TyText:
		return "text()"
	case TyAttr:
		return "attribute()"
	case TyDocNode:
		return "document-node()"
	case TyAtomic:
		return "xs:anyAtomicType"
	case TyInteger:
		return "xs:integer"
	case TyDouble:
		return "xs:double"
	case TyNumeric:
		return "numeric"
	case TyString:
		return "xs:string"
	case TyBoolean:
		return "xs:boolean"
	case TyUntyped:
		return "xs:untypedAtomic"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}
