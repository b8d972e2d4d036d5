package engine

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// evalFun applies a per-row function ⊛, appending the result column. The
// result vector is typed when the function's codomain is fixed (booleans
// for comparisons/logic, strings for fn:string) and polymorphic otherwise.
func (e *Engine) evalFun(t *bat.Table, o *algebra.Op) (*bat.Table, error) {
	args := make([]bat.Vec, len(o.Args))
	for i, a := range o.Args {
		v, err := t.Col(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	n := t.Rows()
	var out bat.Vec
	switch o.Fun {
	case algebra.FunEq, algebra.FunNe, algebra.FunLt, algebra.FunLe,
		algebra.FunGt, algebra.FunGe, algebra.FunAnd, algebra.FunOr,
		algebra.FunNot, algebra.FunContains, algebra.FunStartsWith,
		algebra.FunDocBefore, algebra.FunNodeIs, algebra.FunTypeIs,
		algebra.FunBoolWrap, algebra.FunEbvItem:
		res := make(bat.BoolVec, n)
		for i := 0; i < n; i++ {
			it, err := e.applyFun(o, args, i)
			if err != nil {
				return nil, err
			}
			res[i] = it.B
		}
		out = res
	case algebra.FunString, algebra.FunConcat, algebra.FunSubstring,
		algebra.FunSubstring3, algebra.FunNameOf:
		res := make(bat.StrVec, n)
		for i := 0; i < n; i++ {
			it, err := e.applyFun(o, args, i)
			if err != nil {
				return nil, err
			}
			res[i] = it.S
		}
		out = res
	default:
		res := make(bat.ItemVec, n)
		for i := 0; i < n; i++ {
			it, err := e.applyFun(o, args, i)
			if err != nil {
				return nil, err
			}
			res[i] = it
		}
		out = res
	}
	nt := t.Slice(0, n)
	if err := nt.AddCol(o.Col, out); err != nil {
		return nil, err
	}
	return nt, nil
}

// applyFun is the per-row body of ⊛. The third argument is only
// consulted by the three-argument functions (fn:substring with length).
func (e *Engine) applyFun(o *algebra.Op, args []bat.Vec, row int) (bat.Item, error) {
	a := args[0].ItemAt(row)
	var b, c bat.Item
	if len(args) > 1 {
		b = args[1].ItemAt(row)
	}
	if len(args) > 2 {
		c = args[2].ItemAt(row)
	}
	switch o.Fun {
	case algebra.FunAdd, algebra.FunSub, algebra.FunMul, algebra.FunDiv,
		algebra.FunIDiv, algebra.FunMod:
		return arith(o.Fun, a, b)
	case algebra.FunNeg:
		switch a.Kind {
		case bat.KInt:
			n, err := subInt(0, a.I)
			return bat.Int(n), err
		case bat.KFloat, bat.KUntyped:
			return bat.Float(-a.AsFloat()), nil
		}
		return bat.Item{}, fmt.Errorf("unary minus on %s", a.Kind)

	case algebra.FunEq, algebra.FunNe, algebra.FunLt, algebra.FunLe,
		algebra.FunGt, algebra.FunGe:
		c, err := bat.Compare(a, b)
		if err != nil {
			return bat.Item{}, err
		}
		switch o.Fun {
		case algebra.FunEq:
			return bat.Bool(c == 0), nil
		case algebra.FunNe:
			return bat.Bool(c != 0), nil
		case algebra.FunLt:
			return bat.Bool(c < 0), nil
		case algebra.FunLe:
			return bat.Bool(c <= 0), nil
		case algebra.FunGt:
			return bat.Bool(c > 0), nil
		default:
			return bat.Bool(c >= 0), nil
		}

	case algebra.FunAnd, algebra.FunOr:
		if a.Kind != bat.KBool || b.Kind != bat.KBool {
			return bat.Item{}, fmt.Errorf("%s on %s, %s", o.Fun, a.Kind, b.Kind)
		}
		if o.Fun == algebra.FunAnd {
			return bat.Bool(a.B && b.B), nil
		}
		return bat.Bool(a.B || b.B), nil
	case algebra.FunNot:
		if a.Kind != bat.KBool {
			return bat.Item{}, fmt.Errorf("fn:not on %s", a.Kind)
		}
		return bat.Bool(!a.B), nil
	case algebra.FunBoolWrap:
		if a.Kind != bat.KBool {
			return bat.Item{}, fmt.Errorf("boolean value expected, got %s", a.Kind)
		}
		return a, nil

	case algebra.FunConcat:
		return bat.Str(e.stringOf(a) + e.stringOf(b)), nil
	case algebra.FunContains:
		return bat.Bool(strings.Contains(e.stringOf(a), e.stringOf(b))), nil
	case algebra.FunStartsWith:
		return bat.Bool(strings.HasPrefix(e.stringOf(a), e.stringOf(b))), nil
	case algebra.FunStringLength:
		return bat.Int(int64(len([]rune(e.stringOf(a))))), nil
	case algebra.FunSubstring, algebra.FunSubstring3:
		ln := -1.0
		if o.Fun == algebra.FunSubstring3 {
			ln = c.AsFloat()
		}
		return bat.Str(substring(e.stringOf(a), b.AsFloat(), ln)), nil
	case algebra.FunNameOf:
		if a.Kind != bat.KNode {
			return bat.Item{}, fmt.Errorf("fn:name on non-node item")
		}
		return bat.Str(e.Store.NameOf(a.N)), nil

	case algebra.FunAtomize:
		if a.Kind == bat.KNode {
			return e.Store.Atomize(a.N), nil
		}
		return a, nil
	case algebra.FunString:
		return bat.Str(e.stringOf(a)), nil
	case algebra.FunNumber:
		if a.Kind == bat.KNode {
			a = e.Store.Atomize(a.N)
		}
		return bat.Float(a.AsFloat()), nil

	case algebra.FunDocBefore:
		if a.Kind != bat.KNode || b.Kind != bat.KNode {
			return bat.Item{}, fmt.Errorf("<< on non-nodes")
		}
		return bat.Bool(e.Store.RefBefore(a.N, b.N)), nil
	case algebra.FunNodeIs:
		if a.Kind != bat.KNode || b.Kind != bat.KNode {
			return bat.Item{}, fmt.Errorf("is on non-nodes")
		}
		return bat.Bool(a.N == b.N), nil

	case algebra.FunTypeIs:
		return bat.Bool(e.typeIs(a, o.Type, o.TypeName)), nil

	case algebra.FunEbvItem:
		// Effective boolean value of one item: nodes are true, booleans
		// are themselves, numbers are != 0 (and not NaN), strings and
		// untyped atomics are non-empty.
		switch a.Kind {
		case bat.KNode:
			return bat.Bool(true), nil
		case bat.KBool:
			return a, nil
		case bat.KInt:
			return bat.Bool(a.I != 0), nil
		case bat.KFloat:
			return bat.Bool(a.F != 0 && a.F == a.F), nil
		default:
			return bat.Bool(a.S != ""), nil
		}
	}
	return bat.Item{}, fmt.Errorf("unimplemented function %s", o.Fun)
}

// substring implements fn:substring's rounding semantics over rune
// positions; ln < 0 means "to the end".
func substring(s string, start, ln float64) string {
	runes := []rune(s)
	from := int(math.Round(start))
	to := len(runes) + 1
	if ln >= 0 {
		to = from + int(math.Round(ln))
	}
	if from < 1 {
		from = 1
	}
	if to > len(runes)+1 {
		to = len(runes) + 1
	}
	if from >= to {
		return ""
	}
	return string(runes[from-1 : to-1])
}

func (e *Engine) stringOf(a bat.Item) string {
	if a.Kind == bat.KNode {
		return e.Store.StringValue(a.N)
	}
	return a.StringValue()
}

func (e *Engine) typeIs(a bat.Item, ty algebra.SeqType, tyName string) bool {
	switch ty {
	case algebra.TyItem:
		return true
	case algebra.TyNode:
		return a.Kind == bat.KNode
	case algebra.TyElem:
		if a.Kind != bat.KNode || e.Store.KindOf(a.N) != xenc.KindElem {
			return false
		}
		return tyName == "" || e.Store.NameOf(a.N) == tyName
	case algebra.TyText:
		return a.Kind == bat.KNode && e.Store.KindOf(a.N) == xenc.KindText
	case algebra.TyAttr:
		if a.Kind != bat.KNode || e.Store.KindOf(a.N) != xenc.KindAttr {
			return false
		}
		return tyName == "" || e.Store.NameOf(a.N) == tyName
	case algebra.TyDocNode:
		return a.Kind == bat.KNode && e.Store.KindOf(a.N) == xenc.KindDoc
	case algebra.TyAtomic:
		return a.Kind != bat.KNode
	case algebra.TyInteger:
		return a.Kind == bat.KInt
	case algebra.TyDouble:
		return a.Kind == bat.KFloat
	case algebra.TyNumeric:
		return a.Kind == bat.KInt || a.Kind == bat.KFloat
	case algebra.TyString:
		return a.Kind == bat.KStr
	case algebra.TyBoolean:
		return a.Kind == bat.KBool
	case algebra.TyUntyped:
		return a.Kind == bat.KUntyped
	}
	return false
}

// arith implements the numeric operators with XQuery promotion: untyped
// atomics cast to xs:double, integer op integer stays integral (except
// div) and fails with FOAR0002 rather than wrap, anything involving a
// double is a double.
func arith(fun algebra.FunKind, a, b bat.Item) (bat.Item, error) {
	af, bf := a.AsFloat(), b.AsFloat()
	if math.IsNaN(af) && !numericKind(a) || math.IsNaN(bf) && !numericKind(b) {
		return bat.Item{}, fmt.Errorf("arithmetic on non-numeric operand (%s, %s)",
			a.StringValue(), b.StringValue())
	}
	bothInt := a.Kind == bat.KInt && b.Kind == bat.KInt
	switch fun {
	case algebra.FunAdd, algebra.FunSub, algebra.FunMul:
		if bothInt {
			n, err := intArith(fun, a.I, b.I)
			return bat.Int(n), err
		}
		switch fun {
		case algebra.FunAdd:
			return bat.Float(af + bf), nil
		case algebra.FunSub:
			return bat.Float(af - bf), nil
		}
		return bat.Float(af * bf), nil
	case algebra.FunDiv:
		if bf == 0 && bothInt {
			return bat.Item{}, fmt.Errorf("division by zero")
		}
		return bat.Float(af / bf), nil
	case algebra.FunIDiv:
		if bf == 0 {
			return bat.Item{}, fmt.Errorf("integer division by zero")
		}
		if bothInt {
			n, err := intArith(fun, a.I, b.I)
			return bat.Int(n), err
		}
		// The truncated quotient must be an xs:integer: within int64,
		// which excludes NaN and the infinities.
		q := math.Trunc(af / bf)
		if !(q >= -(1<<63) && q < 1<<63) {
			return bat.Item{}, errIntOverflow
		}
		return bat.Int(int64(q)), nil
	case algebra.FunMod:
		if bothInt {
			if b.I == 0 {
				return bat.Item{}, fmt.Errorf("modulo by zero")
			}
			return bat.Int(a.I % b.I), nil
		}
		return bat.Float(math.Mod(af, bf)), nil
	}
	return bat.Item{}, fmt.Errorf("not an arithmetic function: %s", fun)
}

// errIntOverflow is FOAR0002: an xs:integer result int64 cannot hold.
var errIntOverflow = errors.New("FOAR0002: integer overflow")

// intArith is xs:integer + - * idiv on int64 operands, exact or
// FOAR0002 — never wrapped. idiv truncates toward zero; the caller has
// already rejected a zero divisor.
func intArith(fun algebra.FunKind, a, b int64) (int64, error) {
	switch fun {
	case algebra.FunAdd:
		return addInt(a, b)
	case algebra.FunSub:
		return subInt(a, b)
	case algebra.FunMul:
		if a == 0 || b == 0 {
			return 0, nil
		}
		p := a * b
		if p/b != a || (a == math.MinInt64 && b == -1) {
			return 0, errIntOverflow
		}
		return p, nil
	}
	if a == math.MinInt64 && b == -1 {
		return 0, errIntOverflow
	}
	return a / b, nil
}

func addInt(a, b int64) (int64, error) {
	s := a + b
	if (a^s)&(b^s) < 0 { // both operands' signs differ from the sum's
		return 0, errIntOverflow
	}
	return s, nil
}

func subInt(a, b int64) (int64, error) {
	d := a - b
	if (a^b)&(a^d) < 0 { // operands of opposite sign, difference flipped
		return 0, errIntOverflow
	}
	return d, nil
}

// intSum is the exact running sum fn:sum folds xs:integers into: 128 bits
// hold any sum of fewer than 2^63 int64 terms, so only the total is
// checked against int64 — FOAR0002 when it does not fit, whatever the
// order of the terms.
type intSum struct {
	lo uint64
	hi int64
}

func (s *intSum) add(v int64) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, uint64(v), 0)
	s.hi += int64(carry) + v>>63 // v>>63 sign-extends v into the high word
}

func (s intSum) result() (int64, error) {
	if s.hi != int64(s.lo)>>63 {
		return 0, errIntOverflow
	}
	return int64(s.lo), nil
}

func numericKind(a bat.Item) bool {
	switch a.Kind {
	case bat.KInt, bat.KFloat:
		return true
	case bat.KUntyped, bat.KStr:
		return !math.IsNaN(a.AsFloat())
	}
	return false
}
