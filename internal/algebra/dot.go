package algebra

import (
	"fmt"
	"sort"
	"strings"
)

// Label renders an operator the way the paper draws plans (Figure 5):
// π with its projection list, ϱ with target:order/partition, ⋈ with its
// predicate, ⊛ with its function symbol.
func (o *Op) Label() string {
	switch o.Kind {
	case OpLit:
		return fmt.Sprintf("table %s (%d rows)", strings.Join(o.schema, "|"), o.Lit.Rows())
	case OpProject:
		parts := make([]string, len(o.Proj))
		for i, p := range o.Proj {
			if p.New == p.Old {
				parts[i] = p.New
			} else {
				parts[i] = p.New + ":" + p.Old
			}
		}
		return "π " + strings.Join(parts, ",")
	case OpSelect:
		return "σ " + o.Col
	case OpUnion:
		return "∪"
	case OpDiff:
		return "\\ " + keyStr(o)
	case OpDistinct:
		return "δ"
	case OpJoin:
		return "⋈ " + keyStr(o)
	case OpSemiJoin:
		return "⋉ " + keyStr(o)
	case OpCross:
		return "×"
	case OpRowNum:
		ords := make([]string, len(o.Order))
		for i, s := range o.Order {
			ords[i] = s.Col
			if s.Desc {
				ords[i] += "↓"
			}
		}
		l := fmt.Sprintf("ϱ %s:(%s)", o.Col, strings.Join(ords, ","))
		if o.Part != "" {
			l += "/" + o.Part
		}
		return l
	case OpRowID:
		return fmt.Sprintf("mark %s", o.Col)
	case OpFun:
		return fmt.Sprintf("⊛%s %s:(%s)", o.Fun, o.Col, strings.Join(o.Args, ","))
	case OpAggr:
		arg := ""
		if len(o.Args) > 0 {
			arg = o.Args[0]
		}
		l := fmt.Sprintf("%s %s:(%s)", o.Agg, o.Col, arg)
		if o.Part != "" {
			l += "/" + o.Part
		}
		return l
	case OpStep:
		return fmt.Sprintf("⌐ %s::%s", o.Axis, o.Test)
	case OpDoc:
		return "doc"
	case OpRoots:
		return "root"
	case OpElem:
		if o.Skel.Binary() {
			return "ε"
		}
		return "ε " + o.Skel.String()
	case OpText:
		return "τ"
	case OpAttrC:
		return "attr"
	case OpRange:
		return fmt.Sprintf("range %s..%s", o.KeyL[0], o.KeyL[1])
	case OpColl:
		return "collection"
	}
	return o.Kind.String()
}

func keyStr(o *Op) string {
	parts := make([]string, len(o.KeyL))
	for i := range o.KeyL {
		parts[i] = o.KeyL[i] + "=" + o.KeyR[i]
	}
	return strings.Join(parts, ",")
}

// Dot renders the plan DAG in Graphviz syntax — the "graphical output of
// relational query plans" demo hook.
func Dot(root *Op) string {
	ids := make(map[*Op]int)
	var order []*Op
	var walk func(*Op)
	walk = func(o *Op) {
		if _, ok := ids[o]; ok {
			return
		}
		ids[o] = len(ids)
		order = append(order, o)
		for _, in := range o.In {
			walk(in)
		}
	}
	walk(root)
	var sb strings.Builder
	sb.WriteString("digraph plan {\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, o := range order {
		fmt.Fprintf(&sb, "  n%d [label=%q];\n", ids[o], o.Label())
	}
	for _, o := range order {
		for i, in := range o.In {
			fmt.Fprintf(&sb, "  n%d -> n%d [label=\"%d\"];\n", ids[o], ids[in], i)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// TreeString renders the plan as an indented tree with shared subplans
// printed once and referenced by id; compact form for the CLI's -show plan.
func TreeString(root *Op) string {
	return TreeStringAnnotated(root, nil)
}

// TreeStringAnnotated is TreeString with a per-operator annotation (e.g.
// row counts from a traced evaluation) appended to each label.
func TreeStringAnnotated(root *Op, note func(*Op) string) string {
	shared := make(map[*Op]int)
	var count func(*Op)
	counted := make(map[*Op]bool)
	count = func(o *Op) {
		shared[o]++
		if counted[o] {
			return
		}
		counted[o] = true
		for _, in := range o.In {
			count(in)
		}
	}
	count(root)

	var sb strings.Builder
	printed := make(map[*Op]int)
	nextRef := 1
	var pr func(o *Op, indent int)
	pr = func(o *Op, indent int) {
		pad := strings.Repeat("  ", indent)
		if ref, ok := printed[o]; ok {
			fmt.Fprintf(&sb, "%s^%d\n", pad, ref)
			return
		}
		label := o.Label()
		if note != nil {
			if n := note(o); n != "" {
				label += "   " + n
			}
		}
		if shared[o] > 1 {
			printed[o] = nextRef
			fmt.Fprintf(&sb, "%s[%d] %s\n", pad, nextRef, label)
			nextRef++
		} else {
			fmt.Fprintf(&sb, "%s%s\n", pad, label)
		}
		for _, in := range o.In {
			pr(in, indent+1)
		}
	}
	pr(root, 0)
	return sb.String()
}

// OpHistogram counts operators by kind — used by tests asserting plan
// shapes (e.g. join recognition leaves no × in Q8's optimized plan).
func OpHistogram(root *Op) map[string]int {
	hist := make(map[string]int)
	seen := make(map[*Op]bool)
	var walk func(*Op)
	walk = func(o *Op) {
		if seen[o] {
			return
		}
		seen[o] = true
		hist[o.Kind.String()]++
		for _, in := range o.In {
			walk(in)
		}
	}
	walk(root)
	return hist
}

// HistString renders a histogram deterministically for golden tests.
func HistString(h map[string]int) string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, h[k])
	}
	return strings.Join(parts, " ")
}
