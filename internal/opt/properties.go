package opt

import (
	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"slices"
)

// Props is the exported face of the optimizer's per-operator property
// inference, consumed by the physical lowering pass (internal/physical)
// to choose kernels: merge join needs both inputs Sorted on the key,
// the rownum mark fast path needs a Dense partition or presorted input.
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

// SortedOn reports whether the output is guaranteed sorted with the given
// columns as a prefix of its sort order.
func (p Props) SortedOn(cols ...string) bool {
	if hasPrefix(p.Sorted, cols) {
		return true
	}
	// A single dense column is sorted by construction.
	return len(cols) == 1 && p.DenseOn(cols[0])
}

// DenseOn reports whether col is one of the dense columns.
func (p Props) DenseOn(col string) bool {
	for _, c := range p.Dense {
		if c == col {
			return true
		}
	}
	return false
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
// order and props[i] belongs to ops[i] — the form the physical lowering
// consumes, which creates its nodes in that order.
func PlanProperties(root *algebra.Op) (ops []*algebra.Op, props []Props) {
	p := newProps(newPlanIndex(root, 0))
	props = make([]Props, len(p.idx.ops))
	for i := range props {
		props[i] = p.propsAt(int32(i))
	}
	return p.idx.ops, props
}

// PropertyEngine is the invalidation-aware home of the property memos.
// Property derivation memoizes per operator; a rewrite that swaps an
// operator's input silently invalidates the memoized claims of every
// ancestor. Callers that mutate a DAG in place must call Invalidate
// with the changed operators before trusting any further
// PropsOf/Snapshot answers — otherwise stale order or denseness claims
// leak into lowering, where internal/check rejects them. (The isolation
// pass keeps its own memos over the pass's plan index and invalidates
// them per splice through the consumer lists; see isolate.go.)
type PropertyEngine struct {
	p *props
}

// NewPropertyEngine returns an engine with empty memos.
func NewPropertyEngine() *PropertyEngine {
	return &PropertyEngine{p: newProps(growingIndex(0))}
}

// PropsOf derives (and memoizes) the properties of a single operator.
func (e *PropertyEngine) PropsOf(o *algebra.Op) Props {
	return e.p.propsAt(e.p.at(o))
}

func (p *props) propsAt(i int32) Props {
	ord := p.orderingAt(i)
	return Props{Sorted: ord.cols, Strict: ord.strict, Dense: p.denseAt(i)}
}

// Snapshot derives properties for every operator of the DAG rooted at
// root. The snapshot is a plain map: it does NOT track later mutations —
// after an in-place rewrite, call Invalidate and re-Snapshot.
func (e *PropertyEngine) Snapshot(root *algebra.Op) map[*algebra.Op]Props {
	order := algebra.Topo(root)
	out := make(map[*algebra.Op]Props, len(order))
	for _, o := range order {
		out[o] = e.PropsOf(o)
	}
	return out
}

// Invalidate drops the memoized properties of every changed operator and
// of every operator reachable from root that lies above one — their
// derivations may have depended on the old inputs. The changed
// operators' input edges are read afresh.
func (e *PropertyEngine) Invalidate(root *algebra.Op, changed ...*algebra.Op) {
	x := e.p.idx
	var dirty []int32
	for _, o := range changed {
		i, known := x.id[o]
		if !known {
			continue // never derived: nothing memoized at or above it
		}
		// The engine numbered o under its old inputs.
		x.inStart[i] = int32(len(x.in))
		for _, in := range o.In {
			x.in = append(x.in, e.p.at(in))
		}
		dirty = append(dirty, i)
	}
	r, known := x.id[root]
	if !known {
		return
	}
	const clean, tainted = 1, 2
	state := make([]int8, len(x.ops))
	for _, i := range dirty {
		state[i] = tainted
	}
	var visit func(i int32) bool
	visit = func(i int32) bool {
		if state[i] == 0 {
			state[i] = clean
			for _, c := range x.inputs(i) {
				if visit(c) {
					state[i] = tainted
				}
			}
		}
		if state[i] == tainted {
			e.p.drop(i)
		}
		return state[i] == tainted
	}
	visit(r)
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
