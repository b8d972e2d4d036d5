package opt

// The property engine: the pointer-keyed face of the property memos, for
// plans handed over operator by operator and rewritten in place. The
// reference isolation pass (reference_test.go) and the differential
// tests' fresh snapshots derive through it; the pipeline keeps its memos
// over its own plan index.

import "pathfinder/internal/algebra"

// growingIndex is an empty index that numbers operators as num meets
// them.
func growingIndex(sizeHint int) *planIndex {
	return &planIndex{id: make(map[*algebra.Op]int32, sizeHint)}
}

// at numbers o in the (growing) index and makes room for what it
// numbered on the way.
func (p *props) at(o *algebra.Op) int32 {
	i := p.idx.num(o)
	for len(p.memo) < len(p.idx.ops) {
		p.memo = append(p.memo, propMemo{})
	}
	return i
}

func (p *props) orderingOf(o *algebra.Op) ordering { return p.orderingAt(p.at(o)) }

// PropertyEngine is the invalidation-aware home of the property memos.
// Property derivation memoizes per operator; a rewrite that swaps an
// operator's input silently invalidates the memoized claims of every
// ancestor. Callers that mutate a DAG in place must call Invalidate
// with the changed operators before trusting any further
// PropsOf/Snapshot answers — otherwise stale order or denseness claims
// leak into lowering, where internal/check rejects them. (The rewriter
// keeps its own memos over its plan index and drops them per rewrite
// through the consumer lists; see pipeline.go.)
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
