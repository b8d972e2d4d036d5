package xqcore

// children returns e's direct subexpressions in evaluation order. Let and
// For are included, though their bodies see one more variable: a traversal
// that minds scoping handles those two before falling back on this.
func children(e Expr) []Expr {
	switch x := e.(type) {
	case *Seq:
		return []Expr{x.L, x.R}
	case *Let:
		return []Expr{x.Bound, x.Body}
	case *For:
		out := []Expr{x.In, x.Body}
		for _, k := range x.Order {
			out = append(out, k.Key)
		}
		return out
	case *If:
		return []Expr{x.Cond, x.Then, x.Else}
	case *BinOp:
		return []Expr{x.L, x.R}
	case *GenCmp:
		return []Expr{x.L, x.R}
	case *NodeCmp:
		return []Expr{x.L, x.R}
	case *Ebv:
		return []Expr{x.X}
	case *StepEx:
		return []Expr{x.In}
	case *DDO:
		return []Expr{x.X}
	case *Doc:
		return []Expr{x.X}
	case *Coll:
		return []Expr{x.X}
	case *Root:
		return []Expr{x.X}
	case *Data:
		return []Expr{x.X}
	case *ElemC:
		return []Expr{x.Name, x.Content}
	case *AttrC:
		return []Expr{x.Name, x.Value}
	case *TextC:
		return []Expr{x.Content}
	case *InstanceOf:
		return []Expr{x.X}
	case *Call:
		return x.Args
	case *PosFilter:
		return []Expr{x.In}
	}
	return nil // Lit, Empty, Var
}

// FreeVars returns the set of variables occurring free in e.
func FreeVars(e Expr) map[string]bool {
	out := make(map[string]bool)
	collectFree(e, map[string]bool{}, out)
	return out
}

func collectFree(e Expr, bound map[string]bool, out map[string]bool) {
	switch x := e.(type) {
	case *Var:
		if !bound[x.Name] {
			out[x.Name] = true
		}
	case *Let:
		collectFree(x.Bound, bound, out)
		withBound(bound, []string{x.Var}, func() {
			collectFree(x.Body, bound, out)
		})
	case *For:
		collectFree(x.In, bound, out)
		vars := []string{x.Var}
		if x.PosVar != "" {
			vars = append(vars, x.PosVar)
		}
		withBound(bound, vars, func() {
			collectFree(x.Body, bound, out)
			for _, k := range x.Order {
				collectFree(k.Key, bound, out)
			}
		})
	default:
		for _, c := range children(e) {
			collectFree(c, bound, out)
		}
	}
}

func withBound(bound map[string]bool, vars []string, f func()) {
	saved := make([]bool, len(vars))
	for i, v := range vars {
		saved[i] = bound[v]
		bound[v] = true
	}
	f()
	for i, v := range vars {
		bound[v] = saved[i]
	}
}

// OnlyCounted reports whether every free occurrence of $v in e is the
// argument of fn:count — the use analysis behind the compiler's count-only
// join shape: such a variable may be bound to its cardinality instead of
// its items. A variable that does not occur at all qualifies.
func OnlyCounted(e Expr, v string) bool {
	sub := children(e)
	switch x := e.(type) {
	case *Var:
		return x.Name != v
	case *Call:
		if x.Name == "count" && len(x.Args) == 1 {
			if a, ok := x.Args[0].(*Var); ok && a.Name == v {
				return true
			}
		}
	case *Let:
		if x.Var == v {
			sub = sub[:1] // rebound: the body sees another $v
		}
	case *For:
		if x.Var == v || x.PosVar == v {
			sub = sub[:1] // rebound: the body and the order keys see another $v
		}
	}
	for _, c := range sub {
		if !OnlyCounted(c, v) {
			return false
		}
	}
	return true
}

// UsesPositionOrLast reports whether e contains a position() or last()
// call outside any nested For (which would rebind the context).
func UsesPositionOrLast(e Expr) bool {
	switch x := e.(type) {
	case *Call:
		if (x.Name == "position" || x.Name == "last") && len(x.Args) == 0 {
			return true
		}
	case *For:
		// position()/last() in In still refers to the enclosing for.
		return UsesPositionOrLast(x.In)
	}
	for _, c := range children(e) {
		if UsesPositionOrLast(c) {
			return true
		}
	}
	return false
}
