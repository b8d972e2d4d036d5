package navdom

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xqcore"
)

// Item is one navigational value: an atomic (Node == nil) or a DOM node.
type Item struct {
	Atom bat.Item
	Node *Node
}

func atomic(v bat.Item) Item { return Item{Atom: v} }

// atomize returns the typed value of the item (untyped for nodes).
func (it Item) atomize() bat.Item {
	if it.Node != nil {
		return bat.Untyped(it.Node.StringValue())
	}
	return it.Atom
}

func (it Item) stringValue() string {
	if it.Node != nil {
		return it.Node.StringValue()
	}
	return it.Atom.StringValue()
}

// env is a chained variable environment.
type env struct {
	name   string
	val    []Item
	parent *env
}

func (e *env) bind(name string, val []Item) *env {
	return &env{name: name, val: val, parent: e}
}

func (e *env) lookup(name string) ([]Item, bool) {
	for x := e; x != nil; x = x.parent {
		if x.name == name {
			return x.val, true
		}
	}
	return nil, false
}

// Interp evaluates XQuery Core recursively over the DOM — the
// node-at-a-time, nested-loop processing model the paper ascribes to
// navigational engines. Variable-free subexpressions (document paths) are
// cached per query, the one "database-style" courtesy extended to the
// baseline so value indices can pay off the way they did for the paper's
// tuned X-Hive install.
type Interp struct {
	DB *DB

	// Deadline, when non-zero, aborts evaluation once exceeded (checked
	// on every loop iteration) — the benchmark harness's DNF mechanism
	// for the baseline, whose join queries genuinely do not finish at
	// larger scale factors (Table 3's DNF entries).
	Deadline time.Time

	memo    map[xqcore.Expr][]Item
	varFree map[xqcore.Expr]bool
}

// NewInterp returns an interpreter over db.
func NewInterp(db *DB) *Interp {
	return &Interp{
		DB:      db,
		memo:    make(map[xqcore.Expr][]Item),
		varFree: make(map[xqcore.Expr]bool),
	}
}

// Run parses, normalizes, and evaluates a query, returning the serialized
// result (comparable byte-for-byte with the relational pipeline's output).
func (ip *Interp) Run(src string, opt xqcore.Options) (string, error) {
	core, err := xqcore.NormalizeExpr(src, opt)
	if err != nil {
		return "", err
	}
	items, err := ip.Eval(core, nil)
	if err != nil {
		return "", err
	}
	return SerializeItems(items), nil
}

// SerializeItems renders an item sequence using the XQuery serialization
// rules (adjacent atomics space-separated, nodes as XML).
func SerializeItems(items []Item) string {
	var sb strings.Builder
	prevAtomic := false
	for _, it := range items {
		if it.Node != nil {
			serializeTo(&sb, it.Node)
			prevAtomic = false
			continue
		}
		if prevAtomic {
			sb.WriteByte(' ')
		}
		sb.WriteString(it.Atom.StringValue())
		prevAtomic = true
	}
	return sb.String()
}

func (ip *Interp) isVarFree(e xqcore.Expr) bool {
	if v, ok := ip.varFree[e]; ok {
		return v
	}
	// position()/last() depend on the implicit loop context even though no
	// variable occurs free, so they must not be cached either.
	v := len(xqcore.FreeVars(e)) == 0 && !xqcore.UsesPositionOrLast(e)
	ip.varFree[e] = v
	return v
}

// Eval evaluates e under en.
func (ip *Interp) Eval(e xqcore.Expr, en *env) ([]Item, error) {
	if ip.isVarFree(e) {
		if cached, ok := ip.memo[e]; ok {
			return cached, nil
		}
		out, err := ip.eval(e, en)
		if err != nil {
			return nil, err
		}
		ip.memo[e] = out
		return out, nil
	}
	return ip.eval(e, en)
}

func (ip *Interp) eval(e xqcore.Expr, en *env) ([]Item, error) {
	switch x := e.(type) {
	case *xqcore.Lit:
		return []Item{atomic(x.Val)}, nil
	case *xqcore.Empty:
		return nil, nil
	case *xqcore.Seq:
		l, err := ip.Eval(x.L, en)
		if err != nil {
			return nil, err
		}
		r, err := ip.Eval(x.R, en)
		if err != nil {
			return nil, err
		}
		return append(append([]Item{}, l...), r...), nil
	case *xqcore.Var:
		v, ok := en.lookup(x.Name)
		if !ok {
			return nil, fmt.Errorf("unbound variable $%s", x.Name)
		}
		return v, nil
	case *xqcore.Let:
		bound, err := ip.Eval(x.Bound, en)
		if err != nil {
			return nil, err
		}
		return ip.Eval(x.Body, en.bind(x.Var, bound))
	case *xqcore.For:
		return ip.evalFor(x, en)
	case *xqcore.If:
		c, err := ip.evalEbv(x.Cond, en)
		if err != nil {
			return nil, err
		}
		if c {
			return ip.Eval(x.Then, en)
		}
		return ip.Eval(x.Else, en)
	case *xqcore.BinOp:
		return ip.evalBinOp(x, en)
	case *xqcore.GenCmp:
		b, err := ip.evalGenCmp(x, en)
		if err != nil {
			return nil, err
		}
		return []Item{atomic(bat.Bool(b))}, nil
	case *xqcore.NodeCmp:
		return ip.evalNodeCmp(x, en)
	case *xqcore.Ebv:
		b, err := ip.evalEbv(x.X, en)
		if err != nil {
			return nil, err
		}
		return []Item{atomic(bat.Bool(b))}, nil
	case *xqcore.StepEx:
		in, err := ip.Eval(x.In, en)
		if err != nil {
			return nil, err
		}
		return ip.step(in, x.Axis, x.Test)
	case *xqcore.DDO:
		in, err := ip.Eval(x.X, en)
		if err != nil {
			return nil, err
		}
		nodes := make([]*Node, 0, len(in))
		for _, it := range in {
			if it.Node == nil {
				return nil, fmt.Errorf("fs:distinct-doc-order over atomic items")
			}
			nodes = append(nodes, it.Node)
		}
		return nodeItems(sortDedup(nodes)), nil
	case *xqcore.Doc:
		return ip.evalDoc(x, en)
	case *xqcore.Coll:
		// The DOM database is one collection: fn:collection yields every
		// loaded document in load order, whatever the name argument (the
		// relational engine enforces name binding; the baseline only has
		// to agree on the result).
		if _, err := ip.Eval(x.X, en); err != nil {
			return nil, err
		}
		out := []Item{}
		for _, d := range ip.DB.DocsInOrder() {
			out = append(out, Item{Node: d})
		}
		return out, nil
	case *xqcore.Root:
		in, err := ip.Eval(x.X, en)
		if err != nil {
			return nil, err
		}
		out := make([]Item, len(in))
		for i, it := range in {
			if it.Node == nil {
				return nil, fmt.Errorf("fn:root over atomic item")
			}
			n := it.Node
			if n.Kind == Attr {
				n = n.Parent
			}
			out[i] = Item{Node: n.Root()}
		}
		return out, nil
	case *xqcore.Data:
		in, err := ip.Eval(x.X, en)
		if err != nil {
			return nil, err
		}
		out := make([]Item, len(in))
		for i, it := range in {
			out[i] = atomic(it.atomize())
		}
		return out, nil
	case *xqcore.ElemC:
		return ip.evalElemC(x, en)
	case *xqcore.AttrC:
		return ip.evalAttrC(x, en)
	case *xqcore.TextC:
		return ip.evalTextC(x, en)
	case *xqcore.InstanceOf:
		return ip.evalInstanceOf(x, en)
	case *xqcore.Call:
		return ip.evalCall(x, en)
	case *xqcore.PosFilter:
		in, err := ip.Eval(x.In, en)
		if err != nil {
			return nil, err
		}
		idx := x.Nth
		if x.Last {
			idx = int64(len(in))
		}
		if idx < 1 || idx > int64(len(in)) {
			return nil, nil
		}
		return in[idx-1 : idx], nil
	}
	return nil, fmt.Errorf("unsupported core node %T", e)
}

func nodeItems(nodes []*Node) []Item {
	out := make([]Item, len(nodes))
	for i, n := range nodes {
		out[i] = Item{Node: n}
	}
	return out
}

func sortDedup(nodes []*Node) []*Node {
	sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].Before(nodes[j]) })
	w := 0
	for i, n := range nodes {
		if i == 0 || nodes[w-1] != n {
			nodes[w] = n
			w++
		}
	}
	return nodes[:w]
}

func (ip *Interp) evalDoc(x *xqcore.Doc, en *env) ([]Item, error) {
	uris, err := ip.Eval(x.X, en)
	if err != nil {
		return nil, err
	}
	out := make([]Item, len(uris))
	for i, u := range uris {
		d, err := ip.DB.Doc(u.stringValue())
		if err != nil {
			return nil, err
		}
		out[i] = Item{Node: d}
	}
	return out, nil
}

// evalEbv computes the effective boolean value of an expression.
func (ip *Interp) evalEbv(e xqcore.Expr, en *env) (bool, error) {
	items, err := ip.Eval(e, en)
	if err != nil {
		return false, err
	}
	for _, it := range items {
		if it.Node != nil {
			return true, nil
		}
		a := it.Atom
		switch a.Kind {
		case bat.KBool:
			if a.B {
				return true, nil
			}
		case bat.KInt:
			if a.I != 0 {
				return true, nil
			}
		case bat.KFloat:
			if a.F != 0 && !math.IsNaN(a.F) {
				return true, nil
			}
		default:
			if a.S != "" {
				return true, nil
			}
		}
	}
	return false, nil
}

func (ip *Interp) evalBinOp(x *xqcore.BinOp, en *env) ([]Item, error) {
	l, err := ip.Eval(x.L, en)
	if err != nil {
		return nil, err
	}
	r, err := ip.Eval(x.R, en)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "and", "or":
		if len(l) != 1 || len(r) != 1 {
			return nil, fmt.Errorf("%s over non-singleton booleans", x.Op)
		}
		a, b := l[0].Atom, r[0].Atom
		if a.Kind != bat.KBool || b.Kind != bat.KBool {
			return nil, fmt.Errorf("%s over non-booleans", x.Op)
		}
		if x.Op == "and" {
			return []Item{atomic(bat.Bool(a.B && b.B))}, nil
		}
		return []Item{atomic(bat.Bool(a.B || b.B))}, nil
	case "+", "-", "*", "div", "idiv", "mod":
		if len(l) == 0 || len(r) == 0 {
			return nil, nil
		}
		if len(l) > 1 || len(r) > 1 {
			return nil, fmt.Errorf("arithmetic over a sequence of %d items", max(len(l), len(r)))
		}
		v, err := arith(x.Op, l[0].atomize(), r[0].atomize())
		if err != nil {
			return nil, err
		}
		return []Item{atomic(v)}, nil
	case "eq", "ne", "lt", "le", "gt", "ge":
		// Value comparisons: empty operand yields empty; otherwise the
		// pairwise comparison (existential over sequences, matching the
		// relational engine's iter-join semantics).
		if len(l) == 0 || len(r) == 0 {
			return nil, nil
		}
		opMap := map[string]string{"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
		b, err := cmpExistential(opMap[x.Op], l, r)
		if err != nil {
			return nil, err
		}
		return []Item{atomic(bat.Bool(b))}, nil
	}
	return nil, fmt.Errorf("unsupported operator %q", x.Op)
}

func (ip *Interp) evalGenCmp(x *xqcore.GenCmp, en *env) (bool, error) {
	l, err := ip.Eval(x.L, en)
	if err != nil {
		return false, err
	}
	r, err := ip.Eval(x.R, en)
	if err != nil {
		return false, err
	}
	return cmpExistential(x.Op, l, r)
}

func cmpExistential(op string, l, r []Item) (bool, error) {
	for _, a := range l {
		for _, b := range r {
			c, err := bat.Compare(a.atomize(), b.atomize())
			if err != nil {
				return false, err
			}
			hit := false
			switch op {
			case "=":
				hit = c == 0
			case "!=":
				hit = c != 0
			case "<":
				hit = c < 0
			case "<=":
				hit = c <= 0
			case ">":
				hit = c > 0
			case ">=":
				hit = c >= 0
			}
			if hit {
				return true, nil
			}
		}
	}
	return false, nil
}

func (ip *Interp) evalNodeCmp(x *xqcore.NodeCmp, en *env) ([]Item, error) {
	l, err := ip.Eval(x.L, en)
	if err != nil {
		return nil, err
	}
	r, err := ip.Eval(x.R, en)
	if err != nil {
		return nil, err
	}
	if len(l) == 0 || len(r) == 0 {
		return nil, nil
	}
	if len(l) > 1 || len(r) > 1 || l[0].Node == nil || r[0].Node == nil {
		return nil, fmt.Errorf("node comparison needs single nodes")
	}
	a, b := l[0].Node, r[0].Node
	var res bool
	switch x.Op {
	case "is":
		res = a == b
	case "<<":
		res = a.Before(b)
	case ">>":
		res = b.Before(a)
	}
	return []Item{atomic(bat.Bool(res))}, nil
}

// arith mirrors the relational engine's numeric promotion rules. An
// xs:integer result int64 cannot hold is FOAR0002, never a wrapped value.
func arith(op string, a, b bat.Item) (bat.Item, error) {
	af, bf := a.AsFloat(), b.AsFloat()
	if math.IsNaN(af) || math.IsNaN(bf) {
		return bat.Item{}, fmt.Errorf("arithmetic on non-numeric operand (%s, %s)",
			a.StringValue(), b.StringValue())
	}
	bothInt := a.Kind == bat.KInt && b.Kind == bat.KInt
	switch op {
	case "+", "-", "*":
		if bothInt {
			return exactInt(op, a.I, b.I)
		}
		switch op {
		case "+":
			return bat.Float(af + bf), nil
		case "-":
			return bat.Float(af - bf), nil
		}
		return bat.Float(af * bf), nil
	case "div":
		if bf == 0 && bothInt {
			return bat.Item{}, fmt.Errorf("division by zero")
		}
		return bat.Float(af / bf), nil
	case "idiv":
		if bf == 0 {
			return bat.Item{}, fmt.Errorf("integer division by zero")
		}
		if bothInt {
			return exactInt(op, a.I, b.I)
		}
		q := math.Trunc(af / bf)
		if math.IsInf(q, 0) || math.IsNaN(q) || q < math.MinInt64 || q >= math.MaxInt64 {
			return bat.Item{}, errOverflow
		}
		return bat.Int(int64(q)), nil
	case "mod":
		if bothInt {
			if b.I == 0 {
				return bat.Item{}, fmt.Errorf("modulo by zero")
			}
			return bat.Int(a.I % b.I), nil
		}
		return bat.Float(math.Mod(af, bf)), nil
	}
	return bat.Item{}, fmt.Errorf("unknown arithmetic operator %q", op)
}

var errOverflow = errors.New("integer overflow (FOAR0002)")

// exactInt computes a + - * idiv over int64 through math/big, so an
// out-of-range result is detected by comparison rather than by the
// wrapped bits; idiv truncates toward zero (big.Int.Quo).
func exactInt(op string, a, b int64) (bat.Item, error) {
	x, y := big.NewInt(a), big.NewInt(b)
	switch op {
	case "+":
		x.Add(x, y)
	case "-":
		x.Sub(x, y)
	case "*":
		x.Mul(x, y)
	default:
		x.Quo(x, y)
	}
	if !x.IsInt64() {
		return bat.Item{}, errOverflow
	}
	return bat.Int(x.Int64()), nil
}

func (ip *Interp) evalInstanceOf(x *xqcore.InstanceOf, en *env) ([]Item, error) {
	items, err := ip.Eval(x.X, en)
	if err != nil {
		return nil, err
	}
	lo, hi := 1, 1
	switch x.Occ {
	case '?':
		lo, hi = 0, 1
	case '*':
		lo, hi = 0, -1
	case '+':
		lo, hi = 1, -1
	}
	ok := len(items) >= lo && (hi < 0 || len(items) <= hi)
	if ok {
		for _, it := range items {
			if !itemMatchesType(it, x.Of, x.OfName) {
				ok = false
				break
			}
		}
	}
	return []Item{atomic(bat.Bool(ok))}, nil
}

func itemMatchesType(it Item, ty algebra.SeqType, name string) bool {
	if it.Node != nil {
		switch ty {
		case algebra.TyItem, algebra.TyNode:
			return true
		case algebra.TyElem:
			return it.Node.Kind == Elem && (name == "" || it.Node.Name == name)
		case algebra.TyText:
			return it.Node.Kind == Text
		case algebra.TyAttr:
			return it.Node.Kind == Attr && (name == "" || it.Node.Name == name)
		case algebra.TyDocNode:
			return it.Node.Kind == Doc
		}
		return false
	}
	switch ty {
	case algebra.TyItem, algebra.TyAtomic:
		return true
	case algebra.TyInteger:
		return it.Atom.Kind == bat.KInt
	case algebra.TyDouble:
		return it.Atom.Kind == bat.KFloat
	case algebra.TyNumeric:
		return it.Atom.Kind == bat.KInt || it.Atom.Kind == bat.KFloat
	case algebra.TyString:
		return it.Atom.Kind == bat.KStr
	case algebra.TyBoolean:
		return it.Atom.Kind == bat.KBool
	case algebra.TyUntyped:
		return it.Atom.Kind == bat.KUntyped
	}
	return false
}
