// Package opt implements Pathfinder's plan rewriting: the "assembly
// style" plans emitted by the loop-lifting compiler are large (the paper
// quotes ~120 operators for XMark Q8) but highly redundant, and the
// restrictions of the algebra (π never removes duplicates, all unions
// disjoint, all joins equi-joins) make rewrites safe to verify locally.
// The compiler leaves out what is redundant by construction — a π over a
// π is one π and an identity π is none (algebra.ProjectPairs), and a
// path is numbered once, not once per step — so what the optimizer
// removes is what only its proofs can.
//
// The optimizer is a peephole rewriter over one interned DAG
// (pipeline.go): common subexpression elimination (MIL variable sharing)
// is an invariant of the working plan, and five local, property-driven
// rules run from one worklist until none applies: demand pruning of
// projections (demand.go), union alignment, δ elimination, ϱ → mark,
// and the splice of join graph isolation (isolate below), proven via
// the derived order/denseness/key properties (props.go, properties.go)
// and the order sensitivity (order.go).
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

	"pathfinder/internal/algebra"
)

// The rules, as the trace counts them.
const (
	rulePrune = iota
	ruleAlign
	ruleDistinct
	ruleMark
	ruleSplice
	numRules
)

var ruleNames = [numRules]string{"prune", "align", "δ", "mark", "splice"}

// rewrite applies the local rules to operator i and reports whether one
// rewrote it. force rebuilds i over its inputs when no rule fires: one
// of them narrowed its schema.
func (r *rewriter) rewrite(i int32, force bool) bool {
	x := r.x
	o := x.ops[i]
	in := o.In
	rule := -1
	var out *algebra.Op
	var err error
	switch o.Kind {
	case algebra.OpProject:
		r.need.settle(r.narrowed)
		pairs := r.need.prune(i, o.Proj)
		if len(pairs) < len(o.Proj) {
			rule = rulePrune
		} else if in[0].Kind != algebra.OpProject && !algebra.IdentityPairs(pairs, in[0].Schema()) {
			// Pruned as far as demand allows and in normal form — a
			// splice can leave a π over a π, or over an input whose
			// schema the π keeps as it is.
			return false
		}
		out, err = algebra.ProjectPairs(in[0], pairs)
	case algebra.OpUnion:
		// Pruning may have left the sides with different schemas; align
		// them on the columns they share.
		if !sameCols(in[0].Schema(), in[1].Schema()) {
			rule = ruleAlign
			out, err = align(in[0], in[1])
		}
	case algebra.OpDistinct:
		// Key-property rewrite: a strict ordering is a key, and sorted
		// inputs keep duplicates adjacent — so a keyed input has no
		// duplicate rows and δ is the identity.
		if r.pr.orderingAt(x.inputs(i)[0]).strict {
			rule, out = ruleDistinct, in[0]
		}
	case algebra.OpRowNum:
		// Order-property rewrite ([3]): a global ϱ whose input is already
		// sorted by its order columns is MonetDB's no-cost mark operator.
		if presorted(o, r.pr.orderingAt(x.inputs(i)[0])) {
			rule = ruleMark
			out, err = algebra.RowID(in[0], o.Col)
		}
	}
	if out == nil && err == nil && force {
		out, err = rebuild(o, in)
	}
	if err != nil && r.err == nil {
		r.err = err
	}
	if out == nil || err != nil {
		return false
	}
	if rule >= 0 {
		r.fired[rule]++
	}
	r.install(i, out)
	return true
}

// presorted reports that ϱ o numbers input already in its order: one
// partition, every order key ascending and a prefix of the input's
// ordering.
func presorted(o *algebra.Op, in ordering) bool {
	var buf [4]string
	key, ok := sortKey(o, buf[:0])
	return o.Part == "" && ok && hasPrefix(in.cols, key)
}

// sortKey appends ϱ o's (partition, order) column sequence to buf; ok is
// false when an order key is descending.
func sortKey(o *algebra.Op, buf []string) (key []string, ok bool) {
	if o.Part != "" {
		buf = append(buf, o.Part)
	}
	for _, s := range o.Order {
		if s.Desc {
			return nil, false
		}
		buf = append(buf, s.Col)
	}
	return buf, true
}

// align projects the sides of a union onto the columns they share.
func align(l, r *algebra.Op) (*algebra.Op, error) {
	shared := intersect(l.Schema(), r.Schema())
	if len(shared) == 0 {
		return nil, fmt.Errorf("union sides lost all shared columns")
	}
	sides := [2]*algebra.Op{l, r}
	for k, side := range sides {
		if len(shared) != len(side.Schema()) {
			var err error
			if sides[k], err = algebra.Project(side, shared...); err != nil {
				return nil, err
			}
		}
	}
	return algebra.Union(sides[0], sides[1])
}

// rebuild constructs o anew over its inputs in, for the kinds whose
// schema follows their inputs'; nil for the others, whose schema stays
// as it is when an input narrows.
func rebuild(o *algebra.Op, in []*algebra.Op) (*algebra.Op, error) {
	switch o.Kind {
	case algebra.OpSelect:
		return algebra.Select(in[0], o.Col)
	case algebra.OpUnion:
		return algebra.Union(in[0], in[1])
	case algebra.OpDiff:
		return algebra.Diff(in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpDistinct:
		return algebra.Distinct(in[0]), nil
	case algebra.OpJoin:
		return algebra.Join(in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpSemiJoin:
		return algebra.SemiJoin(in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpCross:
		return algebra.Cross(in[0], in[1])
	case algebra.OpRowNum:
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
	case algebra.OpDoc:
		return algebra.DocOp(in[0])
	case algebra.OpRoots:
		return algebra.Roots(in[0])
	}
	return nil, nil
}

// Join graph isolation ("XQuery Join Graph Isolation", Grust, Mayr,
// Rittinger): remove the numbering operators that only maintain an order
// nothing can observe. The loop-lifting compiler threads sequence order
// through ϱ/mark towers defensively — at every step result, every
// back-map — but once the serializer's (iter, pos) sort and the derived
// key properties are taken into account, most of those towers contribute
// nothing except the order of rows that are about to be re-sorted or
// never compared. What remains after isolation is the query's actual
// join graph on iter, plus the single order-restoring numbering the
// result really needs.
//
// The rewrite is deliberately narrow and proof-carrying. isolate splices
// a ϱ c out from under a projection parent π only where:
//
//   - π does not reference c's numbering column (the column is dead on
//     this edge — all c contributes to π is row order), and
//   - one of two order proofs holds:
//     (1) c's input is already sorted by its (partition, order) columns
//     — the stable sort is the identity, so row order is untouched;
//     (2) the order-sensitivity analysis (order.go) proves π's output
//     order is unobservable — reordering is semantically invisible.
//
// Splicing only the π edge keeps the rewrite DAG-safe: other parents of
// c (which may demand the numbering column, or its order) are untouched,
// and π's schema cannot break because it never mentioned c's column. The
// towers a splice leaves behind — projections over projections, newly
// shareable subplans — the local rules and the interning table collapse,
// which is how whole rownum/map towers disappear, not single operators.
//
// isolate splices π down a tower of ϱ as far as the proofs hold, with
// the order sensitivity re-derived after every splice, and refiles π
// once at the end: sharing π with an equal projection half way down
// could make its order matter to a new consumer and stop the splices
// early. It reports whether it spliced.
func (r *rewriter) isolate(i int32) bool {
	x := r.x
	o := x.ops[i]
	if o.Kind != algebra.OpProject {
		return false
	}
	spliced := false
	for {
		c := x.inputs(i)[0]
		num := x.ops[c]
		if num.Kind != algebra.OpRowNum || referencesCol(o, num.Col) {
			break
		}
		d := x.inputs(c)[0]
		if !rowNumNoop(num, d, r.pr) && r.sense.matters[i] {
			break
		}
		r.fired[ruleSplice]++
		r.relink(i, []int32{d})
		r.touched(i)
		r.sense.settle(r.splice.push)
		spliced = true
	}
	if spliced {
		r.refile(i)
	}
	return spliced
}

func referencesCol(proj *algebra.Op, col string) bool {
	return slices.ContainsFunc(proj.Proj, func(p algebra.ProjPair) bool { return p.Old == col })
}

// rowNumNoop proves ϱ's stable sort is the identity on its input d:
// every order key ascending and the input already sorted by the
// (partition, order) column sequence (or dense in the single-column
// case).
func rowNumNoop(o *algebra.Op, d int32, pr *props) bool {
	var buf [4]string
	key, ok := sortKey(o, buf[:0])
	return ok && pr.sortedOn(d, key)
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
