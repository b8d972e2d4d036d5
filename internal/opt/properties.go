package opt

import (
	"slices"
	"strings"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// Props is the exported face of the optimizer's per-operator property
// inference: what internal/check audits against its own re-derivation,
// what the engine's Check mode asserts on live rows and what
// `pf -show physical` prints beside each node. Nothing chooses a kernel
// by them; the engine looks at the key columns themselves.
type Props struct {
	// Sorted is the column prefix the output is guaranteed sorted by
	// (ascending, lexicographic); nil means no guarantee.
	Sorted []string
	// Strict reports the Sorted prefix is duplicate-free (a key), which
	// is what lets orderings compose across × and survive ⋈.
	Strict bool
	// Dense lists columns guaranteed to hold exactly 1..n in row order —
	// mark/rowid outputs and ramp literals. A dense column is trivially
	// Sorted and Strict, and numbering over it is the identity.
	Dense []string
}

// String renders the properties compactly for plan displays —
// "key(iter,pos) dense(pos)" — and is empty when nothing is known.
func (p Props) String() string {
	var parts []string
	if len(p.Sorted) > 0 {
		s := "sorted(" + strings.Join(p.Sorted, ",") + ")"
		if p.Strict {
			s = "key(" + strings.Join(p.Sorted, ",") + ")"
		}
		parts = append(parts, s)
	}
	if len(p.Dense) > 0 {
		parts = append(parts, "dense("+strings.Join(p.Dense, ",")+")")
	}
	return strings.Join(parts, " ")
}

// Properties computes order/denseness properties for every operator of
// the plan DAG rooted at root. The map is keyed by operator identity, so
// shared subplans get a single entry.
func Properties(root *algebra.Op) map[*algebra.Op]Props {
	ops, props := PlanProperties(root)
	out := make(map[*algebra.Op]Props, len(ops))
	for i, o := range ops {
		out[o] = props[i]
	}
	return out
}

// PlanProperties derives the properties of every operator of the DAG
// rooted at root over one walk: ops lists the operators in algebra.Topo
// order and props[i] belongs to ops[i] — the order physical.Lower gives
// its nodes, so props[nd.Pos] belongs to the node nd.
func PlanProperties(root *algebra.Op) (ops []*algebra.Op, props []Props) {
	p := newProps(newPlanIndex(root))
	props = make([]Props, len(p.idx.ops))
	for i := range props {
		props[i] = p.propsAt(int32(i))
	}
	return p.idx.ops, props
}

func (p *props) propsAt(i int32) Props {
	ord := p.orderingAt(i)
	return Props{Sorted: ord.cols, Strict: ord.strict, Dense: p.denseAt(i)}
}

func (p *props) denseAt(i int32) []string {
	if m := &p.memo[i]; m.denseOK {
		return m.dense
	}
	cols := p.computeDense(i)
	p.memo[i].dense, p.memo[i].denseOK = cols, true
	return cols
}

// computeDense infers which columns hold exactly 1..n in row order.
func (p *props) computeDense(i int32) []string {
	o, in := p.idx.ops[i], p.idx.inputs(i)
	switch o.Kind {
	case algebra.OpLit:
		return litDense(o.Lit)
	case algebra.OpRowID:
		// mark emits 1..n by definition; the child's dense columns keep
		// their values and their row count, so they stay dense too.
		return append(append([]string{}, p.denseAt(in[0])...), o.Col)
	case algebra.OpRowNum:
		// Without partitioning, ϱ numbers the whole relation 1..n.
		if o.Part == "" {
			return []string{o.Col}
		}
		return nil
	case algebra.OpProject:
		// Rename dense columns through the projection (first alias wins,
		// duplicates of a dense column are each dense).
		child := p.denseAt(in[0])
		if len(child) == 0 {
			return nil
		}
		var out []string
		for _, pr := range o.Proj {
			if slices.Contains(child, pr.Old) {
				out = append(out, pr.New)
			}
		}
		return out
	case algebra.OpFun, algebra.OpDoc, algebra.OpRoots:
		// Per-row extensions keep every row, so density survives.
		return p.denseAt(in[0])
	}
	// σ, δ, joins, ∪, etc. drop or duplicate rows: 1..n breaks.
	return nil
}

// litDense scans a literal table (optimization time, tiny tables) for
// int columns holding exactly 1..n.
func litDense(t *bat.Table) []string {
	var out []string
	for _, name := range t.Cols() {
		v := t.MustCol(name)
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
			out = append(out, name)
		}
	}
	return out
}
