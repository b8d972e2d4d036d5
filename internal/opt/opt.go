// Package opt implements Pathfinder's plan rewriting: the "assembly
// style" plans emitted by the loop-lifting compiler are large (the paper
// quotes ~120 operators for XMark Q8) but highly redundant, and the
// restrictions of the algebra (π never removes duplicates, all unions
// disjoint, all joins equi-joins) make rewrites safe to verify locally.
//
// The optimizer is organized as a staged pipeline (pipeline.go): an
// explicit multi-pass driver runs
//
//	normalize → analyze → isolate
//
// to a fixed point, then re-derives properties and cleans up. The passes:
//
//   - normalize: common subexpression elimination over the DAG (MIL
//     variable sharing), projection fusion (π ∘ π → π), identity-
//     projection removal, and dead column pruning guided by the demand
//     analysis (demand.go) — plus the local order-property rewrites
//     (ϱ → mark over presorted input, δ elimination on keyed input).
//   - analyze: the join-graph analysis (joingraph.go) — which equi-joins
//     connect real value columns and which only thread loop-lifting
//     scaffolding, and which numbering towers are dead.
//   - isolate: join graph isolation (isolate.go) — removal of numbering
//     operators that only maintain an order nothing downstream observes,
//     proven via the derived order/denseness/key properties.
//
// Order-property exploitation at runtime — recognizing that a ϱ input is
// already in (partition, order) order and skipping the sort — lives in
// the engine's ϱ implementation, where the property is checked with one
// linear scan.
package opt

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// Optimize rewrites the plan DAG through the staged pipeline and returns
// the (possibly new) root. The input DAG is not mutated, and the result
// never has more operators than the input: on tiny plans, where the
// union-alignment projections of the pruning pass can outweigh its
// savings, the CSE-only plan is returned instead.
func Optimize(root *algebra.Op) (*algebra.Op, error) {
	res, err := Pipeline(root)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// cse shares structurally identical subplans — the rewriting MonetDB gets
// for free from MIL variable reuse. It emits the index of the DAG it
// returns: operators are numbered as they become canonical, which is
// algebra.Topo order of the result because the input is visited in Topo
// order and a duplicate's whole subplan was made canonical before it.
func cse(x *planIndex) *planIndex {
	n := len(x.ops)
	out := emittedIndex(n)
	canon := make(map[string]int32, n)
	lits := make(map[*bat.Table]int32)
	memo := make([]int32, n) // input number → number of its canonical operator
	var key []byte
	var buf [2]int32
	for i, o := range x.ops {
		ins := buf[:0]
		changed := false
		for k, c := range x.inputs(int32(i)) {
			ins = append(ins, memo[c])
			if out.ops[memo[c]] != o.In[k] {
				changed = true
			}
		}
		if o.Kind == algebra.OpLit {
			// Literal tables are shared by identity.
			j, ok := lits[o.Lit]
			if !ok {
				j = out.add(o, nil)
				lits[o.Lit] = j
			}
			memo[i] = j
			continue
		}
		key = appendSignature(key[:0], o, ins)
		if j, ok := canon[string(key)]; ok {
			memo[i] = j
			continue
		}
		cur := o
		if changed {
			cp := *o
			cp.In = make([]*algebra.Op, len(ins))
			for k, c := range ins {
				cp.In[k] = out.ops[c]
			}
			cur = &cp
		}
		j := out.add(cur, ins)
		canon[string(key)] = j
		memo[i] = j
	}
	return out
}

// appendSignature appends an operator's identity to key: kind, the
// numbers of its (already canonical) inputs, and its parameters. Strings
// are NUL-terminated and lists closed by 0xFF, so distinct parameter
// lists never collide.
func appendSignature(key []byte, o *algebra.Op, ins []int32) []byte {
	str := func(s string) { key = append(append(key, s...), 0) }
	list := func(ss []string) {
		for _, s := range ss {
			str(s)
		}
		key = append(key, 0xFF)
	}
	key = append(key, byte(o.Kind))
	for _, c := range ins {
		key = binary.LittleEndian.AppendUint32(key, uint32(c))
	}
	switch o.Kind {
	case algebra.OpProject:
		for _, p := range o.Proj {
			str(p.New)
			str(p.Old)
		}
	case algebra.OpSelect, algebra.OpRowID:
		str(o.Col)
	case algebra.OpJoin, algebra.OpSemiJoin, algebra.OpDiff, algebra.OpRange:
		list(o.KeyL)
		list(o.KeyR)
	case algebra.OpRowNum:
		str(o.Col)
		for _, s := range o.Order {
			str(s.Col)
			desc := byte(0)
			if s.Desc {
				desc = 1
			}
			key = append(key, desc)
		}
		key = append(key, 0xFF)
		str(o.Part)
	case algebra.OpFun:
		str(o.Col)
		key = append(key, byte(o.Fun), byte(o.Type))
		list(o.Args)
		str(o.TypeName)
	case algebra.OpAggr:
		str(o.Col)
		key = append(key, byte(o.Agg))
		list(o.Args)
		str(o.Part)
		str(o.Sep)
	case algebra.OpStep:
		key = append(key, byte(o.Axis), byte(o.Test.Kind))
		str(o.Test.Name)
	}
	return key
}

// pruneAndFuse runs the demand analysis and rebuilds the DAG with pruned
// and fused projections.
func pruneAndFuse(x *planIndex) (*algebra.Op, error) {
	needed := demandOf(x)

	// Rebuild bottom-up with pruned projections, fused π∘π chains, and
	// order-property rewrites. The rewrites consult the properties of
	// operators of the DAG under construction, which has no index yet:
	// pr numbers the ones it is asked about.
	memo := make([]*algebra.Op, len(x.ops))
	pr := newProps(growingIndex(len(x.ops)))
	var buf [2]*algebra.Op
	for i, o := range x.ops {
		children := buf[:0]
		for _, c := range x.inputs(int32(i)) {
			children = append(children, memo[c])
		}
		out, err := rebuildOp(o, children, needed.of(int32(i)), pr)
		if err != nil {
			return nil, err
		}
		memo[i] = out
	}
	return memo[len(memo)-1], nil
}

func rebuildOp(o *algebra.Op, in []*algebra.Op, need colSet, pr *props) (*algebra.Op, error) {
	switch o.Kind {
	case algebra.OpLit:
		return o, nil
	case algebra.OpProject:
		// Prune unneeded output columns (keep at least one column: a
		// zero-column relation has no row representation in the engine).
		specs := make([]string, 0, len(o.Proj))
		for pos, p := range o.Proj {
			if !need.reached || need.has(pos) {
				specs = append(specs, p.New+":"+p.Old)
			}
		}
		if len(specs) == 0 {
			specs = append(specs, o.Proj[0].New+":"+o.Proj[0].Old)
		}
		// Fuse with a child projection.
		child := in[0]
		if child.Kind == algebra.OpProject {
			lookup := make(map[string]string, len(child.Proj))
			for _, p := range child.Proj {
				lookup[p.New] = p.Old
			}
			fused := make([]string, len(specs))
			for i, s := range specs {
				nw, old, _ := strings.Cut(s, ":")
				fused[i] = nw + ":" + lookup[old]
			}
			specs = fused
			child = child.In[0]
		}
		// Identity projection: same names, same order, full schema.
		if identityProjection(specs, child.Schema()) {
			return child, nil
		}
		return algebra.Project(child, specs...)
	case algebra.OpSelect:
		return algebra.Select(in[0], o.Col)
	case algebra.OpUnion:
		l, r := in[0], in[1]
		// Pruning may have left the sides with different schemas; align
		// them on the intersection demanded from the union.
		if !sameCols(l.Schema(), r.Schema()) {
			shared := intersect(l.Schema(), r.Schema())
			if len(shared) == 0 {
				return nil, fmt.Errorf("union sides lost all shared columns")
			}
			var err error
			if len(shared) != len(l.Schema()) {
				if l, err = algebra.Project(l, shared...); err != nil {
					return nil, err
				}
			}
			if len(shared) != len(r.Schema()) {
				if r, err = algebra.Project(r, shared...); err != nil {
					return nil, err
				}
			}
		}
		return algebra.Union(l, r)
	case algebra.OpDiff:
		return algebra.Diff(in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpDistinct:
		// Key-property rewrite: a strict ordering is a key, and sorted
		// inputs keep duplicates adjacent — so a keyed input has no
		// duplicate rows and δ is the identity.
		if pr.orderingOf(in[0]).strict {
			return in[0], nil
		}
		return algebra.Distinct(in[0]), nil
	case algebra.OpJoin:
		return algebra.Join(in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpSemiJoin:
		return algebra.SemiJoin(in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpCross:
		return algebra.Cross(in[0], in[1])
	case algebra.OpRowNum:
		// Order-property rewrite ([3]): a global ϱ whose input is already
		// sorted by its order columns is MonetDB's no-cost mark operator.
		if o.Part == "" {
			ascending := true
			cols := make([]string, 0, len(o.Order))
			for _, s := range o.Order {
				if s.Desc {
					ascending = false
					break
				}
				cols = append(cols, s.Col)
			}
			if ascending && hasPrefix(pr.orderingOf(in[0]).cols, cols) {
				return algebra.RowID(in[0], o.Col)
			}
		}
		return algebra.RowNum(in[0], o.Col, o.Order, o.Part)
	case algebra.OpRowID:
		return algebra.RowID(in[0], o.Col)
	case algebra.OpFun:
		f, err := algebra.Fun(in[0], o.Col, o.Fun, o.Args...)
		if err != nil {
			return nil, err
		}
		f.Type, f.TypeName = o.Type, o.TypeName
		return f, nil
	case algebra.OpAggr:
		arg := ""
		if len(o.Args) > 0 {
			arg = o.Args[0]
		}
		a, err := algebra.Aggr(in[0], o.Col, o.Agg, arg, o.Part)
		if err != nil {
			return nil, err
		}
		a.Sep = o.Sep
		return a, nil
	case algebra.OpStep:
		return algebra.Step(in[0], o.Axis, o.Test)
	case algebra.OpDoc:
		return algebra.DocOp(in[0])
	case algebra.OpRoots:
		return algebra.Roots(in[0])
	case algebra.OpElem:
		return algebra.Elem(in[0], in[1])
	case algebra.OpText:
		return algebra.Text(in[0])
	case algebra.OpAttrC:
		return algebra.AttrC(in[0], in[1])
	case algebra.OpRange:
		return algebra.Range(in[0], o.KeyL[0], o.KeyL[1])
	case algebra.OpColl:
		return algebra.CollOp(in[0])
	}
	return nil, fmt.Errorf("unknown operator %s", o.Kind)
}

func identityProjection(specs, schema []string) bool {
	if len(specs) != len(schema) {
		return false
	}
	for i, s := range specs {
		nw, old, _ := strings.Cut(s, ":")
		if nw != old || nw != schema[i] {
			return false
		}
	}
	return true
}

func sameCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, c := range b {
		if !slices.Contains(a, c) {
			return false
		}
	}
	return true
}

func intersect(a, b []string) []string {
	var out []string
	for _, c := range a {
		if slices.Contains(b, c) {
			out = append(out, c)
		}
	}
	return out
}
