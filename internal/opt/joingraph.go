package opt

import (
	"fmt"

	"pathfinder/internal/algebra"
)

// Join-graph analysis: classify the plan's equi-joins and numbering
// operators so the trace shows what the isolation pass has to work with.
// The loop-lifting compiler encodes the query's real join graph behind
// iter-scaffolding — equi-joins whose keys are loop-membership numbers
// (iter columns, ϱ/mark outputs) rather than document values, plus
// numbering towers whose only surviving contribution is row order.
// Column provenance (below) is what tells the two kinds of join key
// apart.
type joinGraph struct {
	// joins counts every equi-join in the DAG.
	joins int
	// scaffolding counts joins whose key columns all trace back to
	// loop-lifting bookkeeping (iter/pos threads or numbering operators)
	// — the back-maps and loop connectors of the lifted plan.
	scaffolding int
	// n1 counts joins whose right key is provably unique, i.e. the joins
	// the property inference knows preserve the left row set 1:1.
	n1 int
	// deadTowers counts numbering operators (ϱ, mark) whose numbering
	// column nothing downstream demands: isolation candidates.
	deadTowers int
}

func (g joinGraph) note() string {
	return fmt.Sprintf("%d joins (%d scaffolding, %d n:1), %d dead numbering ops",
		g.joins, g.scaffolding, g.n1, g.deadTowers)
}

// analyzeJoinGraph walks the indexed plan once, classifying joins by key
// provenance and uniqueness and numbering operators by demand.
func analyzeJoinGraph(idx *planIndex, pr *props) joinGraph {
	prov := provenanceOf(idx)
	need := demandOf(idx)
	var g joinGraph
	for i, o := range idx.ops {
		i := int32(i)
		switch o.Kind {
		case algebra.OpJoin:
			g.joins++
			in := idx.inputs(i)
			scaff := len(o.KeyL) > 0
			for k := range o.KeyL {
				if !prov.scaffolding(in[0], o.KeyL[k]) || !prov.scaffolding(in[1], o.KeyR[k]) {
					scaff = false
					break
				}
			}
			if scaff {
				g.scaffolding++
			}
			if pr.rightKeyUnique(i) {
				g.n1++
			}
		case algebra.OpRowNum, algebra.OpRowID:
			if !need.needs(i, o.Col) {
				g.deadTowers++
			}
		}
	}
	return g
}

// Column provenance: for every operator output column, the operator and
// column where its values are produced. Renamings (π), row filters (σ, ⋉,
// \), row extensions (ϱ, mark, ⊛) and the column pass-through of ⋈/× all
// preserve values, so a column's origin reaches back through them to the
// operator that actually computed it — a literal, a numbering operator, a
// function, a step. That is what tells an equi-join whose key columns are
// loop-lifting scaffolding (iter/inner/outer numbering chains) from one
// over document values.

// origin identifies where a column's values are produced: the defining
// operator's number and the column name it carries there.
type origin struct {
	op  int32
	col string
}

// provenance holds the origin of each output column of each operator,
// by schema position, all in one slice.
type provenance struct {
	idx   *planIndex
	start []int32
	org   []origin
}

// of returns the origin of column col of operator i; a column i does not
// carry (an invalid plan) is reported as unknown.
func (p *provenance) of(i int32, col string, hint int) (origin, bool) {
	pos := colPos(p.idx.ops[i].Schema(), col, hint)
	if pos < 0 {
		return origin{}, false
	}
	return p.org[int(p.start[i])+pos], true
}

// from is the origin of column col of operator i's k-th input, or i
// itself when the input does not deliver it.
func (p *provenance) from(i int32, k int, col string, hint int) origin {
	if in := p.idx.inputs(i); k < len(in) {
		if org, ok := p.of(in[k], col, hint); ok {
			return org
		}
	}
	return origin{op: i, col: col}
}

// scaffolding reports whether column col of operator i is loop-lifting
// bookkeeping: it threads an iter/pos column, or its values are produced
// by a numbering operator (ϱ/mark) rather than drawn from a document.
func (p *provenance) scaffolding(i int32, col string) bool {
	org, ok := p.of(i, col, 0)
	if !ok {
		return false
	}
	if org.col == "iter" || org.col == "pos" {
		return true
	}
	k := p.idx.ops[org.op].Kind
	return k == algebra.OpRowNum || k == algebra.OpRowID
}

// provenanceOf computes the origin of every column of the indexed plan.
// Columns an operator itself defines (a literal's columns, ϱ/mark
// numbering columns, ⊛/aggregate results, the item column of a step or
// constructor) originate at that operator; columns that pass through
// unchanged keep their upstream origin. Where a union merges columns
// with different origins, the union is the origin — the values are no
// longer traceable to one producer.
func provenanceOf(idx *planIndex) *provenance {
	n := len(idx.ops)
	p := &provenance{idx: idx, start: make([]int32, n+1)}
	for i, o := range idx.ops {
		p.start[i+1] = p.start[i] + int32(len(o.Schema()))
	}
	p.org = make([]origin, p.start[n])
	for i, o := range idx.ops {
		i := int32(i)
		in := idx.inputs(i)
		out := p.org[p.start[i]:p.start[i+1]]
		from := func(k int, col string, hint int) origin { return p.from(i, k, col, hint) }
		schema := o.Schema()
		switch o.Kind {
		case algebra.OpProject:
			for pos, pp := range o.Proj {
				out[pos] = from(0, pp.Old, pos)
			}
		case algebra.OpSelect, algebra.OpDistinct, algebra.OpSemiJoin, algebra.OpDiff:
			// Row filters: every surviving value is the input's value.
			for pos, c := range schema {
				out[pos] = from(0, c, pos)
			}
		case algebra.OpJoin, algebra.OpCross:
			// Column pass-through from whichever side provides the column
			// (schemas are disjoint; constructors enforce it).
			for pos, c := range schema {
				if idx.ops[in[0]].HasCol(c) {
					out[pos] = from(0, c, pos)
				} else {
					out[pos] = from(1, c, 0)
				}
			}
		case algebra.OpRowNum, algebra.OpRowID, algebra.OpFun, algebra.OpAggr:
			// Extensions: the result column is defined here, the rest pass
			// through. (Aggregates keep only the partition column.)
			for pos, c := range schema {
				if c == o.Col {
					out[pos] = origin{op: i, col: c}
				} else {
					out[pos] = from(0, c, pos)
				}
			}
		case algebra.OpUnion:
			// A column whose two sides trace to the same origin keeps it;
			// otherwise the union is the merge point.
			for pos, c := range schema {
				l, r := from(0, c, pos), from(1, c, pos)
				if l == r {
					out[pos] = l
				} else {
					out[pos] = origin{op: i, col: c}
				}
			}
		default:
			// Literals define all their columns. Steps, document access,
			// and constructors define their item (and pos) columns; iter
			// threads through from the first input.
			for pos, c := range schema {
				if c == "iter" && len(in) > 0 && idx.ops[in[0]].HasCol("iter") {
					out[pos] = from(0, c, pos)
				} else {
					out[pos] = origin{op: i, col: c}
				}
			}
		}
	}
	return p
}
