package opt

import (
	"math/bits"
	"slices"

	"pathfinder/internal/algebra"
)

// Demand analysis: which output columns of each operator are consumed
// anywhere downstream — what projections are pruned by.
//
// The demanded set of operator i is a bitset over the positions of its
// own schema, all sets carved from one word slice (a rewrite only ever
// narrows a schema, so an operator keeps its words).
//
// A set is pulled from the operator's consumers (the root demands its
// whole schema). A rewrite marks the operators whose consumers changed
// dirty, and settle re-pulls them, following a change down to the
// inputs of whatever changed.
type demand struct {
	x     *planIndex
	start []int32 // operator i's words are words[start[i]:start[i+1]]
	words []uint64
	dirty queue
	old   []uint64
}

func width(o *algebra.Op) int32 { return int32(len(o.Schema())+63) >> 6 }

// newDemand derives the demand of every live operator of x, whose
// numbering must still be topological.
func newDemand(x *planIndex) *demand {
	n := len(x.ops)
	d := &demand{x: x, start: make([]int32, n+1), dirty: newQueue(n, true)}
	for i, o := range x.ops {
		d.start[i+1] = d.start[i] + width(o)
	}
	d.words = make([]uint64, d.start[n])
	for i := int32(n - 1); i >= 0; i-- {
		if !x.dead[i] {
			d.pull(i)
		}
	}
	return d
}

// grow makes room for the operator just appended to the index.
func (d *demand) grow() {
	n := len(d.x.ops)
	w := width(d.x.ops[n-1])
	d.start = append(d.start, d.start[n-1]+w)
	d.words = append(d.words, make([]uint64, w)...)
	d.dirty.grow()
}

func (d *demand) of(i int32) []uint64 { return d.words[d.start[i]:d.start[i+1]] }

// has reports that column pos of operator i is demanded.
func (d *demand) has(i int32, pos int) bool { return d.of(i)[pos>>6]&(1<<(pos&63)) != 0 }

// settle re-pulls the dirty operators; changed sees each whose demand
// shrank.
func (d *demand) settle(changed func(i int32)) {
	for i := d.dirty.pop(); i >= 0; i = d.dirty.pop() {
		if d.x.dead[i] || !d.pull(i) {
			continue
		}
		for _, c := range d.x.inputs(i) {
			d.dirty.push(c)
		}
		changed(i)
	}
}

// pull re-derives operator i's demand from its consumers and reports
// whether it changed.
func (d *demand) pull(i int32) bool {
	w := d.of(i)
	d.old = append(d.old[:0], w...)
	clear(w)
	if i == d.x.top {
		d.add(i, d.x.ops[i].Schema()...)
	}
	for _, p := range d.x.cons[i] {
		d.from(p, i)
	}
	return !slices.Equal(d.old, w)
}

// from registers on operator i what its consumer p demands of it, on
// every edge from p to i.
func (d *demand) from(p, i int32) {
	o, in := d.x.ops[p], d.x.inputs(p)
	for k, c := range in {
		if c != i {
			continue
		}
		switch o.Kind {
		case algebra.OpProject:
			// A projection nothing demands a column of still delivers its
			// rows: it keeps its first pair (prune), whose column it needs.
			if slices.ContainsFunc(d.of(p), func(w uint64) bool { return w != 0 }) {
				d.each(p, func(pos int, _ string) { d.add(i, o.Proj[pos].Old) })
			} else {
				d.add(i, o.Proj[0].Old)
			}
		case algebra.OpSelect:
			d.pass(p, i, "")
			d.add(i, o.Col)
		case algebra.OpUnion:
			d.pass(p, i, "")
		case algebra.OpDiff, algebra.OpSemiJoin:
			if k == 0 {
				d.pass(p, i, "")
				d.add(i, o.KeyL...)
			} else {
				d.add(i, o.KeyR...)
			}
		case algebra.OpJoin, algebra.OpCross:
			// Each demanded column goes to the input that carries it,
			// the left one first.
			l, self := d.x.ops[in[0]], d.x.ops[i]
			d.each(p, func(pos int, col string) {
				if l.HasCol(col) == (k == 0) && self.HasCol(col) {
					d.addAt(i, col, pos)
				}
			})
			if o.Kind == algebra.OpJoin {
				if k == 0 {
					d.add(i, o.KeyL...)
				} else {
					d.add(i, o.KeyR...)
				}
			}
		case algebra.OpDistinct:
			// δ is defined over the full schema; every column matters.
			d.add(i, d.x.ops[i].Schema()...)
		case algebra.OpRowNum:
			d.pass(p, i, o.Col)
			for _, s := range o.Order {
				d.add(i, s.Col)
			}
			if o.Part != "" {
				d.add(i, o.Part)
			}
		case algebra.OpRowID:
			d.pass(p, i, o.Col)
		case algebra.OpFun:
			d.pass(p, i, o.Col)
			d.add(i, o.Args...)
		case algebra.OpAggr:
			if o.Part != "" {
				d.add(i, o.Part)
			}
			d.add(i, o.Args...)
		case algebra.OpStep, algebra.OpColl, algebra.OpAttrC:
			d.add(i, "iter", "item")
		case algebra.OpDoc, algebra.OpRoots, algebra.OpText:
			d.pass(p, i, "")
			d.add(i, "iter", "item")
		case algebra.OpElem:
			if k > 0 {
				d.add(i, "iter", "pos", "item")
			} else if d.add(i, "iter"); o.Skel.Dynamic() {
				d.add(i, "item")
			}
		case algebra.OpRange:
			d.add(i, "iter")
			d.add(i, o.KeyL...)
		}
	}
}

// add registers a demand on the named columns of operator i (names i
// does not carry are nobody's to deliver and fall away).
func (d *demand) add(i int32, cols ...string) {
	for _, c := range cols {
		d.addAt(i, c, 0)
	}
}

func (d *demand) addAt(i int32, col string, hint int) {
	if pos := colPos(d.x.ops[i].Schema(), col, hint); pos >= 0 {
		d.words[int(d.start[i])+pos>>6] |= 1 << (pos & 63)
	}
}

// each calls f with the position and name of every demanded column of
// operator i, in schema order.
func (d *demand) each(i int32, f func(pos int, col string)) {
	schema := d.x.ops[i].Schema()
	for w, word := range d.of(i) {
		for ; word != 0; word &= word - 1 {
			pos := w<<6 + bits.TrailingZeros64(word)
			f(pos, schema[pos])
		}
	}
}

// pass registers on child each demanded column of operator i other
// than i's own result column (none: "").
func (d *demand) pass(i, child int32, own string) {
	d.each(i, func(pos int, col string) {
		if col != own {
			d.addAt(child, col, pos)
		}
	})
}

// prune returns the pairs of π i its consumers demand (keeping at least
// one: a zero-column relation has no row representation in the engine),
// or its pairs as they are when it keeps them all.
func (d *demand) prune(i int32, pairs []algebra.ProjPair) []algebra.ProjPair {
	kept := 0
	for pos := range pairs {
		if d.has(i, pos) {
			kept++
		}
	}
	if kept == len(pairs) {
		return pairs
	}
	if kept == 0 {
		return pairs[:1]
	}
	out := make([]algebra.ProjPair, 0, kept)
	for pos, p := range pairs {
		if d.has(i, pos) {
			out = append(out, p)
		}
	}
	return out
}
