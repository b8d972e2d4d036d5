package check

import (
	"slices"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// Independent re-derivation of order and denseness guarantees. This is
// written against the operator *semantics* (which operators preserve row
// order, which drop or duplicate rows, which append monotone columns) and
// deliberately shares no code with internal/opt's inference — the point
// is that a wrong bit in opt's rules or a rewrite that forgets to
// invalidate a property shows up as a claim this derivation cannot
// justify, instead of as a silently wrong rewrite such as an eliminated
// rownum.

// guarantee is what the validator can prove about one operator's output:
// the column prefix the rows are sorted by (ascending, lexicographic),
// whether that prefix is duplicate-free, and which columns provably hold
// exactly 1..n in row order. A guarantee without dense columns leaves the
// map nil: it is only ever read, and a derivation allocates one only for
// the columns it proves.
type guarantee struct {
	sorted []string
	strict bool
	dense  map[string]bool
}

// rederive computes guarantees for every operator, children first (order
// is algebra.Topo, so inputs are always resolved before consumers).
func rederive(order []*algebra.Op) map[*algebra.Op]guarantee {
	g := make(map[*algebra.Op]guarantee, len(order))
	for _, o := range order {
		g[o] = deriveOp(o, g)
	}
	return g
}

func deriveOp(o *algebra.Op, g map[*algebra.Op]guarantee) guarantee {
	in := func(i int) guarantee {
		if i < len(o.In) {
			if gi, ok := g[o.In[i]]; ok {
				return gi
			}
		}
		return guarantee{}
	}
	switch o.Kind {
	case algebra.OpLit:
		return scanLiteral(o.Lit)

	case algebra.OpSelect, algebra.OpDistinct, algebra.OpSemiJoin, algebra.OpDiff:
		// Row filters keep surviving rows in input order; removing rows
		// cannot introduce duplicates on a duplicate-free prefix. But a
		// dense 1..n column stops being dense the moment any row drops —
		// conservatively assume one always does.
		c := in(0)
		return guarantee{sorted: c.sorted, strict: c.strict}

	case algebra.OpFun, algebra.OpDoc, algebra.OpRoots:
		// Per-row extensions: every row survives in place, so order,
		// strictness and denseness all carry over. (Doc and Roots replace
		// the item column; item-prefixed orderings would not survive, but
		// their input ordering is (iter, ...) in every plan the compiler
		// emits, and the derivation only keeps what the child proved.)
		c := in(0)
		return guarantee{sorted: c.sorted, strict: c.strict, dense: c.dense}

	case algebra.OpProject:
		return deriveProject(o, in(0))

	case algebra.OpRowID:
		// mark appends a strictly increasing column: the output is sorted
		// by (child prefix, mark) and that prefix is a key because the
		// mark column alone already is. Existing rows and dense columns
		// are untouched, and the new column is 1..n by definition.
		c := in(0)
		dense := map[string]bool{o.Col: true}
		for col := range c.dense {
			dense[col] = true
		}
		return guarantee{sorted: append(append([]string{}, c.sorted...), o.Col), strict: true, dense: dense}

	case algebra.OpRowNum:
		// ϱ materializes its output in (partition, order...) order and the
		// numbering increases strictly inside each partition, so
		// (partition, numbering) is a duplicate-free sort prefix. Without
		// partitioning the numbering is the whole relation's 1..n.
		var dense map[string]bool
		var cols []string
		if o.Part != "" {
			cols = append(cols, o.Part)
		} else {
			dense = map[string]bool{o.Col: true}
		}
		return guarantee{sorted: append(cols, o.Col), strict: true, dense: dense}

	case algebra.OpJoin:
		// The kernels stream the left side in order; a left row with
		// several matches repeats, so strictness is generally lost. But if
		// the join key is provably a key of the right input (N:1), each
		// left row appears at most once and the left guarantee survives —
		// minus denseness, since unmatched left rows may still drop.
		l := in(0)
		if rightJoinKeyUnique(o, in(1)) {
			return guarantee{sorted: l.sorted, strict: l.strict}
		}
		return guarantee{sorted: l.sorted}

	case algebra.OpCross:
		// Left-major product: blocks of equal left rows. Only when the
		// left prefix is duplicate-free (blocks of one left row each) does
		// the right-side ordering extend the sort.
		l, r := in(0), in(1)
		if !l.strict {
			return guarantee{sorted: l.sorted}
		}
		return guarantee{
			sorted: append(append([]string{}, l.sorted...), r.sorted...),
			strict: r.strict,
		}

	case algebra.OpStep:
		// The staircase join emits (iter, item) duplicate-free, iter-major
		// with items in document order per iter.
		return guarantee{sorted: []string{"iter", "item"}, strict: true}

	case algebra.OpAggr:
		// Groups are emitted in first-occurrence order of the partition
		// value; that is sorted (and a key — one row per group) exactly
		// when the input was already partition-major.
		if o.Part != "" {
			c := in(0)
			if len(c.sorted) > 0 && c.sorted[0] == o.Part {
				return guarantee{sorted: []string{o.Part}, strict: true}
			}
		}
		return guarantee{}

	case algebra.OpElem:
		// ε emits one element per iter of the qname input, in iter order.
		return guarantee{sorted: []string{"iter"}, strict: true}

	case algebra.OpText, algebra.OpAttrC, algebra.OpRange, algebra.OpColl:
		// Row order follows the first input, but rows may drop (empty
		// strings) or fan out (ranges), so only iter-majorness survives.
		c := in(0)
		if len(c.sorted) > 0 && c.sorted[0] == "iter" {
			return guarantee{sorted: []string{"iter"}}
		}
		return guarantee{}

	case algebra.OpUnion:
		// Concatenation: no guarantee survives across the seam.
		return guarantee{}
	}
	return guarantee{}
}

// rightJoinKeyUnique proves the join key is duplicate-free on the right
// input, from the right side's own guarantee: either some key column is
// dense (1..n never repeats), or the right rows are strictly ordered by
// columns all of which are key columns (a key over a subset of the join
// key is a key over the join key).
func rightJoinKeyUnique(o *algebra.Op, r guarantee) bool {
	for _, k := range o.KeyR {
		if r.dense[k] {
			return true
		}
	}
	if !r.strict || len(r.sorted) == 0 {
		return false
	}
	for _, c := range r.sorted {
		if !slices.Contains(o.KeyR, c) {
			return false
		}
	}
	return true
}

// deriveProject maps the child guarantee through a projection. A sorted
// prefix survives as far as its columns are kept (renamed); strictness
// needs the entire prefix to survive. Every alias of a dense column is
// dense — π duplicates columns without touching rows.
func deriveProject(o *algebra.Op, c guarantee) guarantee {
	var sorted []string
	strict := false
	for i, col := range c.sorted {
		k := slices.IndexFunc(o.Proj, func(p algebra.ProjPair) bool { return p.Old == col })
		if k < 0 {
			break
		}
		sorted = append(sorted, o.Proj[k].New) // the first alias
		strict = c.strict && i == len(c.sorted)-1
	}
	var dense map[string]bool
	for _, p := range o.Proj {
		if c.dense[p.Old] {
			if dense == nil {
				dense = map[string]bool{}
			}
			dense[p.New] = true
		}
	}
	return guarantee{sorted: sorted, strict: strict, dense: dense}
}

// scanLiteral proves properties of a literal table by looking at the rows
// themselves — the ground truth the rest of the derivation builds on.
func scanLiteral(t *bat.Table) guarantee {
	g := guarantee{dense: map[string]bool{}}
	if t == nil {
		return g
	}
	// Longest sorted column prefix, and whether it is duplicate-free.
	for _, col := range t.Cols() {
		cand := append(append([]string{}, g.sorted...), col)
		if !literalSorted(t, cand) {
			break
		}
		g.sorted = cand
	}
	g.strict = len(g.sorted) > 0 && literalStrict(t, g.sorted)
	if t.Rows() > 0 && len(g.sorted) == 0 {
		// A zero-column or unsorted table proves nothing more.
	}
	// Dense columns: integer vectors holding exactly 1..n.
	for _, col := range t.Cols() {
		v := t.MustCol(col)
		iv, ok := v.(bat.IntVec)
		if !ok {
			continue
		}
		dense := true
		for i, x := range iv {
			if x != int64(i)+1 {
				dense = false
				break
			}
		}
		if dense {
			g.dense[col] = true
		}
	}
	// An empty literal is trivially sorted by every prefix; keep the full
	// schema as the proven prefix so claims over empty tables justify.
	if t.Rows() == 0 {
		g.sorted = t.Cols()
		g.strict = len(g.sorted) > 0
		for _, col := range t.Cols() {
			if _, ok := t.MustCol(col).(bat.IntVec); ok {
				g.dense[col] = true
			}
		}
	}
	return g
}

func literalSorted(t *bat.Table, cols []string) bool {
	vecs := make([]bat.Vec, len(cols))
	for i, c := range cols {
		vecs[i] = t.MustCol(c)
	}
	for r := 1; r < t.Rows(); r++ {
		if compareRows(vecs, r-1, r) > 0 {
			return false
		}
	}
	return true
}

func literalStrict(t *bat.Table, cols []string) bool {
	vecs := make([]bat.Vec, len(cols))
	for i, c := range cols {
		vecs[i] = t.MustCol(c)
	}
	for r := 1; r < t.Rows(); r++ {
		if compareRows(vecs, r-1, r) == 0 {
			return false
		}
	}
	return true
}

func compareRows(vecs []bat.Vec, a, b int) int {
	for _, v := range vecs {
		if c := bat.CompareTotal(v.ItemAt(a), v.ItemAt(b)); c != 0 {
			return c
		}
	}
	return 0
}
