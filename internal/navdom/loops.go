package navdom

import (
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

// evalFor is the nested-loop FLWOR evaluation of a navigational engine:
// the binding sequence is materialized, then the body is re-evaluated once
// per binding — "in a sense only ... nested loop, i.e., recursive,
// processing" (§2 of the paper). A value-index fast path mirrors the
// X-Hive tuning: equality where-clauses over indexed element/@attribute
// paths resolve candidates through the index instead of filtering the full
// binding sequence.
func (ip *Interp) evalFor(f *xqcore.For, en *env) ([]Item, error) {
	in, err := ip.Eval(f.In, en)
	if err != nil {
		return nil, err
	}
	if out, ok, err := ip.tryIndexedWhere(f, in, en); err != nil {
		return nil, err
	} else if ok {
		return out, nil
	}

	type bindingRow struct {
		item Item
		pos  int64
		keys []bat.Item // order-by keys; nil entry = empty key (sorts first)
	}
	rows := make([]bindingRow, len(in))
	for i, it := range in {
		rows[i] = bindingRow{item: it, pos: int64(i + 1)}
	}
	if len(f.Order) > 0 {
		for i := range rows {
			be := ip.bindLoop(f, en, rows[i].item, rows[i].pos, int64(len(in)))
			for _, k := range f.Order {
				kv, err := ip.Eval(k.Key, be)
				if err != nil {
					return nil, err
				}
				var key bat.Item
				switch len(kv) {
				case 0:
					key = bat.Str("") // empty least
				case 1:
					key = kv[0].atomize()
				default:
					return nil, fmt.Errorf("order by key is not a singleton")
				}
				rows[i].keys = append(rows[i].keys, key)
			}
		}
		sort.SliceStable(rows, func(a, b int) bool {
			for ki := range f.Order {
				c := bat.CompareTotal(rows[a].keys[ki], rows[b].keys[ki])
				if f.Order[ki].Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
	}
	var out []Item
	for i, row := range rows {
		if !ip.Deadline.IsZero() && i%64 == 0 && time.Now().After(ip.Deadline) {
			return nil, fmt.Errorf("deadline exceeded in for loop")
		}
		be := ip.bindLoop(f, en, row.item, row.pos, int64(len(in)))
		r, err := ip.Eval(f.Body, be)
		if err != nil {
			return nil, err
		}
		out = append(out, r...)
	}
	return out, nil
}

func (ip *Interp) bindLoop(f *xqcore.For, en *env, item Item, pos, last int64) *env {
	be := en.bind(f.Var, []Item{item})
	if f.PosVar != "" {
		be = be.bind(f.PosVar, []Item{atomic(bat.Int(pos))})
	}
	be = be.bind("fs:position", []Item{atomic(bat.Int(pos))})
	be = be.bind("fs:last", []Item{atomic(bat.Int(last))})
	return be
}

// tryIndexedWhere applies the value-index fast path to
// `for $v in E return if (data($v/e/@a) = B) then T else ()`.
func (ip *Interp) tryIndexedWhere(f *xqcore.For, in []Item, en *env) ([]Item, bool, error) {
	if f.PosVar != "" || len(f.Order) > 0 {
		return nil, false, nil
	}
	iff, ok := f.Body.(*xqcore.If)
	if !ok {
		return nil, false, nil
	}
	if _, isEmpty := iff.Else.(*xqcore.Empty); !isEmpty {
		return nil, false, nil
	}
	cmp, ok := iff.Cond.(*xqcore.GenCmp)
	if !ok || cmp.Op != "=" {
		return nil, false, nil
	}
	elemName, attrName, okPath := attrPathOverVar(cmp.L, f.Var)
	other := cmp.R
	if !okPath {
		elemName, attrName, okPath = attrPathOverVar(cmp.R, f.Var)
		other = cmp.L
	}
	if !okPath || !ip.DB.HasIndex(elemName, attrName) {
		return nil, false, nil
	}
	if xqcore.FreeVars(other)[f.Var] || xqcore.UsesPositionOrLast(f.Body) {
		return nil, false, nil
	}

	inSet := make(map[*Node]bool, len(in))
	for _, it := range in {
		if it.Node == nil {
			return nil, false, nil
		}
		inSet[it.Node] = true
	}
	vals, err := ip.Eval(other, en)
	if err != nil {
		return nil, false, err
	}
	var candidates []*Node
	for _, v := range vals {
		hits, _ := ip.DB.lookupIndex(elemName, attrName, v.stringValue())
		for _, h := range hits {
			for n := h; n != nil; n = n.Parent {
				if inSet[n] {
					candidates = append(candidates, n)
					break
				}
			}
		}
	}
	candidates = sortDedup(candidates)
	var out []Item
	for i, n := range candidates {
		be := ip.bindLoop(f, en, Item{Node: n}, int64(i+1), int64(len(candidates)))
		r, err := ip.Eval(iff.Then, be)
		if err != nil {
			return nil, false, err
		}
		out = append(out, r...)
	}
	return out, true, nil
}

// attrPathOverVar matches (possibly Data-wrapped) $v/child::E/attribute::A
// and returns E and A.
func attrPathOverVar(e xqcore.Expr, v string) (elem, attr string, ok bool) {
	if d, isData := e.(*xqcore.Data); isData {
		e = d.X
	}
	attrStep, isStep := e.(*xqcore.StepEx)
	if !isStep || attrStep.Axis != algebra.Attribute || attrStep.Test.Name == "" {
		return "", "", false
	}
	childStep, isStep := attrStep.In.(*xqcore.StepEx)
	if !isStep || childStep.Axis != algebra.Child ||
		childStep.Test.Kind != algebra.TestElem || childStep.Test.Name == "" {
		return "", "", false
	}
	vr, isVar := childStep.In.(*xqcore.Var)
	if !isVar || vr.Name != v {
		return "", "", false
	}
	return childStep.Test.Name, attrStep.Test.Name, true
}

// step evaluates one location step navigationally: pointer chasing per
// context node, then distinct-doc-order.
func (ip *Interp) step(in []Item, axis algebra.Axis, test algebra.KindTest) ([]Item, error) {
	var out []*Node
	emit := func(n *Node) {
		if matchTest(n, test) {
			out = append(out, n)
		}
	}
	for _, it := range in {
		if it.Node == nil {
			return nil, fmt.Errorf("XPTY0019: location step over atomic item")
		}
		n := it.Node
		switch axis {
		case algebra.Child:
			for _, c := range n.Children {
				emit(c)
			}
		case algebra.Descendant, algebra.DescendantOrSelf:
			if axis == algebra.DescendantOrSelf {
				emit(n)
			}
			var walk func(*Node)
			walk = func(x *Node) {
				for _, c := range x.Children {
					emit(c)
					walk(c)
				}
			}
			walk(n)
		case algebra.Parent:
			if n.Parent != nil {
				emit(n.Parent)
			}
		case algebra.Ancestor, algebra.AncestorOrSelf:
			if axis == algebra.AncestorOrSelf && n.Kind != Attr {
				emit(n)
			}
			for p := n.Parent; p != nil; p = p.Parent {
				emit(p)
			}
		case algebra.Following:
			// Walk the whole tree in document order; emit every node
			// after n, skipping n's own subtree.
			if n.Kind == Attr {
				n = n.Parent
			}
			after := false
			var walk func(*Node)
			walk = func(x *Node) {
				if after && x != n {
					emit(x)
				}
				if x == n {
					after = true
					return // following excludes descendants
				}
				for _, c := range x.Children {
					walk(c)
				}
			}
			walk(n.Root())
		case algebra.Preceding:
			if n.Kind == Attr {
				n = n.Parent
			}
			anc := map[*Node]bool{}
			for p := n.Parent; p != nil; p = p.Parent {
				anc[p] = true
			}
			var walk func(*Node) bool
			walk = func(x *Node) bool {
				if x == n {
					return false
				}
				if !anc[x] && x.Kind != Doc {
					emit(x)
				}
				for _, c := range x.Children {
					if !walk(c) {
						return false
					}
				}
				return true
			}
			walk(n.Root())
		case algebra.FollowingSibling, algebra.PrecedingSibling:
			if n.Parent == nil || n.Kind == Attr {
				break
			}
			seen := false
			for _, sib := range n.Parent.Children {
				if sib == n {
					seen = true
					continue
				}
				if axis == algebra.FollowingSibling && seen {
					emit(sib)
				}
				if axis == algebra.PrecedingSibling && !seen {
					emit(sib)
				}
			}
		case algebra.Self:
			emit(n)
		case algebra.Attribute:
			for _, a := range n.Attrs {
				emit(a)
			}
		}
	}
	return nodeItems(sortDedup(out)), nil
}

func matchTest(n *Node, test algebra.KindTest) bool {
	switch test.Kind {
	case algebra.TestElem:
		return n.Kind == Elem && (test.Name == "" || n.Name == test.Name)
	case algebra.TestText:
		return n.Kind == Text
	case algebra.TestComment:
		return n.Kind == Comment
	case algebra.TestAttr:
		return n.Kind == Attr && (test.Name == "" || n.Name == test.Name)
	case algebra.TestNode:
		return true
	}
	return false
}

// Built-in calls --------------------------------------------------------------------

func (ip *Interp) evalCall(x *xqcore.Call, en *env) ([]Item, error) {
	argN := func(i int) ([]Item, error) { return ip.Eval(x.Args[i], en) }
	switch x.Name {
	case "count":
		a, err := argN(0)
		if err != nil {
			return nil, err
		}
		return []Item{atomic(bat.Int(int64(len(a))))}, nil
	case "sum", "avg", "min", "max":
		a, err := argN(0)
		if err != nil {
			return nil, err
		}
		return aggregate(x.Name, a)
	case "empty", "exists":
		a, err := argN(0)
		if err != nil {
			return nil, err
		}
		b := len(a) == 0
		if x.Name == "exists" {
			b = !b
		}
		return []Item{atomic(bat.Bool(b))}, nil
	case "not", "boolean":
		a, err := argN(0)
		if err != nil {
			return nil, err
		}
		if len(a) != 1 || a[0].Atom.Kind != bat.KBool {
			return nil, fmt.Errorf("%s over non-boolean", x.Name)
		}
		b := a[0].Atom.B
		if x.Name == "not" {
			b = !b
		}
		return []Item{atomic(bat.Bool(b))}, nil
	case "string":
		a, err := argN(0)
		if err != nil {
			return nil, err
		}
		if len(a) == 0 {
			return []Item{atomic(bat.Str(""))}, nil
		}
		out := make([]Item, len(a))
		for i, it := range a {
			out[i] = atomic(bat.Str(it.stringValue()))
		}
		return out, nil
	case "number":
		a, err := argN(0)
		if err != nil {
			return nil, err
		}
		if len(a) == 0 {
			return []Item{atomic(bat.Float(nan()))}, nil
		}
		out := make([]Item, len(a))
		for i, it := range a {
			out[i] = atomic(bat.Float(it.atomize().AsFloat()))
		}
		return out, nil
	case "string-length":
		a, err := argN(0)
		if err != nil {
			return nil, err
		}
		s := ""
		if len(a) > 0 {
			s = a[0].stringValue()
		}
		return []Item{atomic(bat.Int(int64(len([]rune(s)))))}, nil
	case "contains", "starts-with", "concat":
		a, err := argN(0)
		if err != nil {
			return nil, err
		}
		b, err := argN(1)
		if err != nil {
			return nil, err
		}
		sa, sb := "", ""
		if len(a) > 0 {
			sa = a[0].stringValue()
		}
		if len(b) > 0 {
			sb = b[0].stringValue()
		}
		switch x.Name {
		case "contains":
			return []Item{atomic(bat.Bool(strings.Contains(sa, sb)))}, nil
		case "starts-with":
			return []Item{atomic(bat.Bool(strings.HasPrefix(sa, sb)))}, nil
		default:
			return []Item{atomic(bat.Str(sa + sb))}, nil
		}
	case "string-join":
		a, err := argN(0)
		if err != nil {
			return nil, err
		}
		sepIt, err := argN(1)
		if err != nil {
			return nil, err
		}
		sep := ""
		if len(sepIt) > 0 {
			sep = sepIt[0].stringValue()
		}
		parts := make([]string, len(a))
		for i, it := range a {
			parts[i] = it.atomize().StringValue()
		}
		return []Item{atomic(bat.Str(strings.Join(parts, sep)))}, nil
	case "zero-or-one", "exactly-one":
		return argN(0)
	case "position":
		if v, ok := en.lookup("fs:position"); ok {
			return v, nil
		}
		return nil, fmt.Errorf("position() outside of a for loop")
	case "last":
		if v, ok := en.lookup("fs:last"); ok {
			return v, nil
		}
		return nil, fmt.Errorf("last() outside of a for loop")
	case "to":
		l, err := argN(0)
		if err != nil {
			return nil, err
		}
		r, err := argN(1)
		if err != nil {
			return nil, err
		}
		if len(l) == 0 || len(r) == 0 {
			return nil, nil
		}
		lo, err1 := l[0].atomize().AsInt()
		hi, err2 := r[0].atomize().AsInt()
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("range over non-integer bounds")
		}
		n, err := bat.RangeLen(lo, hi)
		if err != nil {
			return nil, err
		}
		out := make([]Item, n)
		for k := range out {
			out[k] = atomic(bat.Int(lo + int64(k)))
		}
		return out, nil
	case "intersect", "except":
		l, err := argN(0)
		if err != nil {
			return nil, err
		}
		r, err := argN(1)
		if err != nil {
			return nil, err
		}
		rset := make(map[*Node]bool, len(r))
		for _, it := range r {
			if it.Node == nil {
				return nil, fmt.Errorf("%s over atomic items", x.Name)
			}
			rset[it.Node] = true
		}
		var keep []*Node
		for _, it := range l {
			if it.Node == nil {
				return nil, fmt.Errorf("%s over atomic items", x.Name)
			}
			if rset[it.Node] == (x.Name == "intersect") {
				keep = append(keep, it.Node)
			}
		}
		return nodeItems(sortDedup(keep)), nil
	case "distinct-values":
		a, err := argN(0)
		if err != nil {
			return nil, err
		}
		seen := make(map[bat.Key]bool, len(a))
		var out []Item
		for _, it := range a {
			v := it.atomize()
			if k := v.Key(); !seen[k] {
				seen[k] = true
				out = append(out, atomic(v))
			}
		}
		return out, nil
	case "substring":
		s, err := argN(0)
		if err != nil {
			return nil, err
		}
		startArg, err := argN(1)
		if err != nil {
			return nil, err
		}
		str := ""
		if len(s) > 0 {
			str = s[0].stringValue()
		}
		if len(startArg) == 0 {
			return []Item{atomic(bat.Str(""))}, nil
		}
		start := startArg[0].atomize().AsFloat()
		ln := -1.0
		if len(x.Args) == 3 {
			lnArg, err := argN(2)
			if err != nil {
				return nil, err
			}
			if len(lnArg) > 0 {
				ln = lnArg[0].atomize().AsFloat()
			}
		}
		return []Item{atomic(bat.Str(substringRunes(str, start, ln)))}, nil
	case "name":
		a, err := argN(0)
		if err != nil {
			return nil, err
		}
		if len(a) == 0 {
			return []Item{atomic(bat.Str(""))}, nil
		}
		if a[0].Node == nil {
			return nil, fmt.Errorf("fn:name on non-node item")
		}
		return []Item{atomic(bat.Str(a[0].Node.Name))}, nil
	}
	return nil, fmt.Errorf("unsupported built-in %s", x.Name)
}

// substringRunes mirrors the relational engine's fn:substring rounding
// semantics; ln < 0 means "to the end".
func substringRunes(s string, start, ln float64) string {
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

func nan() float64 { f := 0.0; return f / f }

func aggregate(name string, items []Item) ([]Item, error) {
	if len(items) == 0 {
		if name == "sum" {
			return []Item{atomic(bat.Int(0))}, nil
		}
		return nil, nil
	}
	allInt := true
	var sumI, term big.Int // exact: only the total must fit int64
	var sumF float64
	minIt := items[0].atomize()
	maxIt := minIt
	for _, it := range items {
		a := it.atomize()
		f := a.AsFloat()
		if f != f {
			return nil, fmt.Errorf("%s: %q is not numeric", name, a.StringValue())
		}
		if a.Kind != bat.KInt {
			allInt = false
		}
		if allInt {
			sumI.Add(&sumI, term.SetInt64(a.I))
		}
		sumF += f
		if bat.CompareTotal(a, minIt) < 0 {
			minIt = a
		}
		if bat.CompareTotal(a, maxIt) > 0 {
			maxIt = a
		}
	}
	switch name {
	case "sum":
		if allInt {
			if !sumI.IsInt64() {
				return nil, errOverflow
			}
			return []Item{atomic(bat.Int(sumI.Int64()))}, nil
		}
		return []Item{atomic(bat.Float(sumF))}, nil
	case "avg":
		return []Item{atomic(bat.Float(sumF / float64(len(items))))}, nil
	case "min":
		return []Item{atomic(minIt)}, nil
	case "max":
		return []Item{atomic(maxIt)}, nil
	}
	return nil, fmt.Errorf("unknown aggregate %s", name)
}
