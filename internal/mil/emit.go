// Package mil implements the back-end protocol of the Pathfinder stack:
// compiled algebra plans are linearized into a textual program in the
// spirit of MIL (the MonetDB Interpreter Language), shipped to a server,
// parsed there, and executed against the column engine (§4: "translates
// them into a relational algebra expression tree, represented in terms of
// a MIL program. The code is shipped to a MonetDB server").
//
// A program is a sequence of single-assignment instructions, one per
// algebra operator, followed by a return statement:
//
//	v0 := table(iter:int[i1], pos:int[i1], item:item[i42]);
//	v1 := rownum(v0, inner, (iter, pos), -);
//	return v1;
//
// The DAG structure of the plan is preserved through variable reuse —
// exactly how MonetDB gets common subexpression sharing from MIL variable
// bindings.
package mil

import (
	"fmt"
	"strconv"
	"strings"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// Emit linearizes a plan DAG into a MIL program.
func Emit(root *algebra.Op) (string, error) {
	e := &emitter{ids: make(map[*algebra.Op]int)}
	id, err := e.emit(root)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&e.sb, "return v%d;\n", id)
	return e.sb.String(), nil
}

type emitter struct {
	sb  strings.Builder
	ids map[*algebra.Op]int
}

func (e *emitter) emit(o *algebra.Op) (int, error) {
	if id, ok := e.ids[o]; ok {
		return id, nil
	}
	ins := make([]int, len(o.In))
	for i, in := range o.In {
		id, err := e.emit(in)
		if err != nil {
			return 0, err
		}
		ins[i] = id
	}
	id := len(e.ids)
	e.ids[o] = id
	rhs, err := e.rhs(o, ins)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(&e.sb, "v%d := %s;\n", id, rhs)
	return id, nil
}

func (e *emitter) rhs(o *algebra.Op, in []int) (string, error) {
	v := func(i int) string { return fmt.Sprintf("v%d", in[i]) }
	switch o.Kind {
	case algebra.OpLit:
		return emitTable(o.Lit)
	case algebra.OpProject:
		parts := make([]string, len(o.Proj))
		for i, p := range o.Proj {
			parts[i] = p.New + ":" + p.Old
		}
		return fmt.Sprintf("project(%s, %s)", v(0), strings.Join(parts, ", ")), nil
	case algebra.OpSelect:
		return fmt.Sprintf("select(%s, %s)", v(0), o.Col), nil
	case algebra.OpUnion:
		return fmt.Sprintf("union(%s, %s)", v(0), v(1)), nil
	case algebra.OpDiff:
		return fmt.Sprintf("diff(%s, %s, %s)", v(0), v(1), keyPairs(o)), nil
	case algebra.OpDistinct:
		return fmt.Sprintf("distinct(%s)", v(0)), nil
	case algebra.OpJoin:
		return fmt.Sprintf("join(%s, %s, %s)", v(0), v(1), keyPairs(o)), nil
	case algebra.OpSemiJoin:
		return fmt.Sprintf("semijoin(%s, %s, %s)", v(0), v(1), keyPairs(o)), nil
	case algebra.OpCross:
		return fmt.Sprintf("cross(%s, %s)", v(0), v(1)), nil
	case algebra.OpRowNum:
		ords := make([]string, len(o.Order))
		for i, s := range o.Order {
			ords[i] = s.Col
			if s.Desc {
				ords[i] += ":desc"
			}
		}
		part := o.Part
		if part == "" {
			part = "-"
		}
		return fmt.Sprintf("rownum(%s, %s, (%s), %s)", v(0), o.Col, strings.Join(ords, ", "), part), nil
	case algebra.OpRowID:
		return fmt.Sprintf("rowid(%s, %s)", v(0), o.Col), nil
	case algebra.OpFun:
		name, err := funName(o)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("fun(%s, %s, %s, (%s))", v(0), o.Col, name, strings.Join(o.Args, ", ")), nil
	case algebra.OpAggr:
		arg := "-"
		if len(o.Args) > 0 {
			arg = o.Args[0]
		}
		part := o.Part
		if part == "" {
			part = "-"
		}
		return fmt.Sprintf("aggr(%s, %s, %s, %s, %s, %s)",
			v(0), o.Col, aggName(o.Agg), arg, part, strconv.Quote(o.Sep)), nil
	case algebra.OpStep:
		return fmt.Sprintf("step(%s, %s, %s, %s)",
			v(0), o.Axis, testName(o.Test.Kind), strconv.Quote(o.Test.Name)), nil
	case algebra.OpDoc:
		return fmt.Sprintf("doc(%s)", v(0)), nil
	case algebra.OpRoots:
		return fmt.Sprintf("roots(%s)", v(0)), nil
	case algebra.OpElem:
		if o.Skel.Binary() {
			return fmt.Sprintf("elem(%s, %s)", v(0), v(1)), nil
		}
		args := []string{v(0), strconv.Quote(o.Skel.String())}
		for i := 1; i < len(in); i++ {
			args = append(args, v(i))
		}
		return "elem(" + strings.Join(args, ", ") + ")", nil
	case algebra.OpText:
		return fmt.Sprintf("text(%s)", v(0)), nil
	case algebra.OpAttrC:
		return fmt.Sprintf("attr(%s, %s)", v(0), v(1)), nil
	case algebra.OpRange:
		return fmt.Sprintf("range(%s, %s, %s)", v(0), o.KeyL[0], o.KeyL[1]), nil
	case algebra.OpColl:
		return fmt.Sprintf("collection(%s)", v(0)), nil
	}
	return "", fmt.Errorf("mil: cannot emit operator %s", o.Kind)
}

func keyPairs(o *algebra.Op) string {
	parts := make([]string, len(o.KeyL))
	for i := range o.KeyL {
		parts[i] = o.KeyL[i] + "=" + o.KeyR[i]
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// funNames maps FunKind to stable MIL identifiers (FunKind.String yields
// symbols like "+" that do not lex well).
var funNames = map[algebra.FunKind]string{
	algebra.FunAdd: "add", algebra.FunSub: "sub", algebra.FunMul: "mul",
	algebra.FunDiv: "div", algebra.FunIDiv: "idiv", algebra.FunMod: "mod",
	algebra.FunNeg: "neg",
	algebra.FunEq:  "eq", algebra.FunNe: "ne", algebra.FunLt: "lt",
	algebra.FunLe: "le", algebra.FunGt: "gt", algebra.FunGe: "ge",
	algebra.FunAnd: "and", algebra.FunOr: "or", algebra.FunNot: "not",
	algebra.FunConcat: "concat", algebra.FunContains: "contains",
	algebra.FunStartsWith: "startswith", algebra.FunStringLength: "strlen",
	algebra.FunAtomize: "data", algebra.FunString: "string",
	algebra.FunNumber: "number", algebra.FunBoolWrap: "boolean",
	algebra.FunDocBefore: "docbefore", algebra.FunNodeIs: "nodeis",
	algebra.FunEbvItem:   "ebv",
	algebra.FunSubstring: "substring", algebra.FunSubstring3: "substring3",
	algebra.FunNameOf: "nameof",
}

var funByName = invertFuns()

func invertFuns() map[string]algebra.FunKind {
	m := make(map[string]algebra.FunKind, len(funNames))
	for k, v := range funNames {
		m[v] = k
	}
	return m
}

func funName(o *algebra.Op) (string, error) {
	if o.Fun == algebra.FunTypeIs {
		return fmt.Sprintf("typeis:%d:%s", o.Type, o.TypeName), nil
	}
	if n, ok := funNames[o.Fun]; ok {
		return n, nil
	}
	return "", fmt.Errorf("mil: no name for function %s", o.Fun)
}

var aggNames = map[algebra.AggKind]string{
	algebra.AggCount: "count", algebra.AggSum: "sum", algebra.AggMin: "min",
	algebra.AggMax: "max", algebra.AggAvg: "avg", algebra.AggStrJoin: "strjoin",
}

var aggByName = invertAggs()

func invertAggs() map[string]algebra.AggKind {
	m := make(map[string]algebra.AggKind, len(aggNames))
	for k, v := range aggNames {
		m[v] = k
	}
	return m
}

func aggName(a algebra.AggKind) string { return aggNames[a] }

var testNames = map[algebra.TestKind]string{
	algebra.TestElem: "elem", algebra.TestText: "text", algebra.TestNode: "node",
	algebra.TestComment: "comment", algebra.TestAttr: "attr",
}

var testByName = invertTests()

func invertTests() map[string]algebra.TestKind {
	m := make(map[string]algebra.TestKind, len(testNames))
	for k, v := range testNames {
		m[v] = k
	}
	return m
}

func testName(k algebra.TestKind) string { return testNames[k] }

// emitTable serializes a literal table: name:type[item item ...] per
// column. Item literals: i<int>, d<double>, s"str", u"str", bt/bf, and
// n<frag>.<pre> for node references.
func emitTable(t *bat.Table) (string, error) {
	var sb strings.Builder
	sb.WriteString("table(")
	for ci, name := range t.Cols() {
		if ci > 0 {
			sb.WriteString(", ")
		}
		vcol := t.MustCol(name)
		sb.WriteString(name)
		sb.WriteByte(':')
		sb.WriteString(vcol.Type().String())
		sb.WriteByte('[')
		for i := 0; i < vcol.Len(); i++ {
			if i > 0 {
				sb.WriteByte(' ')
			}
			lit, err := emitItem(vcol.ItemAt(i))
			if err != nil {
				return "", err
			}
			sb.WriteString(lit)
		}
		sb.WriteByte(']')
	}
	sb.WriteString(")")
	return sb.String(), nil
}

func emitItem(it bat.Item) (string, error) {
	switch it.Kind {
	case bat.KInt:
		return "i" + strconv.FormatInt(it.I, 10), nil
	case bat.KFloat:
		return "d" + strconv.FormatFloat(it.F, 'g', -1, 64), nil
	case bat.KStr:
		return "s" + strconv.Quote(it.S), nil
	case bat.KUntyped:
		return "u" + strconv.Quote(it.S), nil
	case bat.KBool:
		if it.B {
			return "bt", nil
		}
		return "bf", nil
	case bat.KNode:
		return fmt.Sprintf("n%d.%d", it.N.Frag, it.N.Pre), nil
	}
	return "", fmt.Errorf("mil: cannot emit item kind %s", it.Kind)
}
