package opt

import (
	"math/bits"

	"pathfinder/internal/algebra"
)

// Demand analysis: which output columns of each operator are consumed
// anywhere downstream — what the normalize pass prunes projections by.
//
// The demanded set of operator i is a bitset over the positions of its
// own schema, all sets carved from one word slice. reached[i] records
// that some consumer registered a demand on i at all — even an empty
// one: a projection nobody registered anything on is rebuilt unpruned.
type demand struct {
	idx     *planIndex
	start   []int32
	words   []uint64
	reached []bool
}

// colSet is one operator's demanded columns, by schema position.
type colSet struct {
	words   []uint64
	reached bool
}

func (s colSet) has(pos int) bool { return s.words[pos>>6]&(1<<(pos&63)) != 0 }

func (d *demand) of(i int32) colSet {
	return colSet{words: d.words[d.start[i]:d.start[i+1]], reached: d.reached[i]}
}

// add registers a demand on the named columns of operator i (names i
// does not carry are nobody's to deliver and fall away).
func (d *demand) add(i int32, cols ...string) {
	d.reached[i] = true
	for _, c := range cols {
		d.addAt(i, c, 0)
	}
}

func (d *demand) addAt(i int32, col string, hint int) {
	d.reached[i] = true
	if pos := colPos(d.idx.ops[i].Schema(), col, hint); pos >= 0 {
		d.words[int(d.start[i])+pos>>6] |= 1 << (pos & 63)
	}
}

// each calls f with the position and name of every demanded column of
// operator i, in schema order.
func (d *demand) each(i int32, f func(pos int, col string)) {
	schema := d.idx.ops[i].Schema()
	for w, word := range d.of(i).words {
		for ; word != 0; word &= word - 1 {
			pos := w<<6 + bits.TrailingZeros64(word)
			f(pos, schema[pos])
		}
	}
}

// pass registers on child everything demanded of operator i.
func (d *demand) pass(i, child int32) {
	d.reached[child] = true
	d.each(i, func(pos int, col string) { d.addAt(child, col, pos) })
}

// passExcept registers on child each demanded column of operator i other
// than i's own result column.
func (d *demand) passExcept(i, child int32, own string) {
	d.each(i, func(pos int, col string) {
		if col != own {
			d.addAt(child, col, pos)
		}
	})
}

// split routes each demanded column of the binary operator i to the
// input that carries it.
func (d *demand) split(i, l, r int32) {
	ops := d.idx.ops
	d.each(i, func(pos int, col string) {
		if ops[l].HasCol(col) {
			d.addAt(l, col, pos)
		} else if ops[r].HasCol(col) {
			d.addAt(r, col, 0)
		}
	})
}

// demandOf propagates demands over the indexed plan, consumers before
// inputs, starting from the root's full schema.
func demandOf(idx *planIndex) *demand {
	n := len(idx.ops)
	d := &demand{idx: idx, start: make([]int32, n+1), reached: make([]bool, n)}
	for i, o := range idx.ops {
		d.start[i+1] = d.start[i] + int32(len(o.Schema())+63)>>6
	}
	d.words = make([]uint64, d.start[n])

	root := int32(n - 1)
	d.add(root, idx.ops[root].Schema()...)

	for i := root; i >= 0; i-- {
		o, in := idx.ops[i], idx.inputs(i)
		switch o.Kind {
		case algebra.OpProject:
			need := d.of(i)
			for pos, p := range o.Proj {
				if need.has(pos) {
					d.add(in[0], p.Old)
				}
			}
		case algebra.OpSelect:
			d.pass(i, in[0])
			d.add(in[0], o.Col)
		case algebra.OpUnion:
			d.pass(i, in[0])
			d.pass(i, in[1])
		case algebra.OpDiff, algebra.OpSemiJoin:
			d.pass(i, in[0])
			d.add(in[0], o.KeyL...)
			d.add(in[1], o.KeyR...)
		case algebra.OpJoin:
			d.split(i, in[0], in[1])
			d.add(in[0], o.KeyL...)
			d.add(in[1], o.KeyR...)
		case algebra.OpCross:
			d.split(i, in[0], in[1])
		case algebra.OpDistinct:
			// δ is defined over the full schema; every column matters.
			d.add(in[0], idx.ops[in[0]].Schema()...)
		case algebra.OpRowNum:
			d.passExcept(i, in[0], o.Col)
			for _, s := range o.Order {
				d.add(in[0], s.Col)
			}
			if o.Part != "" {
				d.add(in[0], o.Part)
			}
		case algebra.OpRowID:
			d.passExcept(i, in[0], o.Col)
		case algebra.OpFun:
			d.passExcept(i, in[0], o.Col)
			d.add(in[0], o.Args...)
		case algebra.OpAggr:
			if o.Part != "" {
				d.add(in[0], o.Part)
			}
			d.add(in[0], o.Args...)
		case algebra.OpStep:
			d.add(in[0], "iter", "item")
		case algebra.OpDoc, algebra.OpRoots, algebra.OpText:
			d.pass(i, in[0])
			d.add(in[0], "iter", "item")
		case algebra.OpElem:
			d.add(in[0], "iter")
			if o.Skel.Dynamic() {
				d.add(in[0], "item")
			}
			for _, slot := range in[1:] {
				d.add(slot, "iter", "pos", "item")
			}
		case algebra.OpAttrC:
			d.add(in[0], "iter", "item")
			d.add(in[1], "iter", "item")
		case algebra.OpRange:
			d.add(in[0], "iter")
			d.add(in[0], o.KeyL...)
		case algebra.OpColl:
			d.add(in[0], "iter", "item")
		}
	}
	return d
}
