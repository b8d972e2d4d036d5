package check

import (
	"fmt"
	"slices"

	"pathfinder/internal/algebra"
	"pathfinder/internal/physical"
)

// physStreams re-proves every streamed ε (physical.Node.Stream). The
// executor builds no fragment for one: its nodes are virtual refs whose
// only content is the bytes its emitter writes, and any kernel that
// looked at one — a step, an atomization, a comparison, a sort on it —
// would find nothing there. So each streamed ε's item column must reach
// only the plan's result, as its item column, or a content slot of
// another streamed ε, through operators that pass it on untouched. The
// proof follows the column forward from the ε, consumer by consumer and
// under every name a π gives it — the lowering decided backwards, from
// the result.
func physStreams(w *walker, p *physical.Plan) []Diag {
	var diags []Diag
	type use struct {
		op  *algebra.Op
		col string
	}
	type edge struct {
		op *algebra.Op
		k  int
	}
	var consumers map[*algebra.Op][]edge
	streamed := map[*algebra.Op]bool{}
	for _, s := range p.Nodes {
		if s.Stream && s.Op != nil {
			streamed[s.Op] = true
		}
	}
	for _, s := range p.Nodes {
		if !s.Stream || s.Op == nil {
			continue
		}
		if s.Op.Kind != algebra.OpElem {
			diags = append(diags, Diag{Class: "stream", Op: w.name(s.Op), Msg: "streaming flag on a node that constructs nothing"})
			continue
		}
		// The items are followed through the logical operators: a theta
		// join's node passes them through the ×, ⊛ and σ it covers.
		if consumers == nil {
			consumers = make(map[*algebra.Op][]edge, len(w.order))
			for _, c := range w.order {
				for k, in := range c.In {
					consumers[in] = append(consumers[in], edge{c, k})
				}
			}
		}
		bad := func(o *algebra.Op, col, why string, args ...any) {
			diags = append(diags, Diag{Class: "stream", Op: w.name(s.Op),
				Msg: fmt.Sprintf("streamed items reach %s as %q, %s", w.name(o), col, fmt.Sprintf(why, args...))})
		}
		seen := map[use]bool{}
		work := []use{{s.Op, "item"}}
		for len(work) > 0 {
			u := work[len(work)-1]
			work = work[:len(work)-1]
			if seen[u] {
				continue
			}
			seen[u] = true
			if u.op == p.Root.Op && u.col != "item" {
				bad(u.op, u.col, "a result column the serializer sorts on")
			}
			for _, e := range consumers[u.op] {
				o := e.op
				pass := func() { work = append(work, use{o, u.col}) }
				switch o.Kind {
				case algebra.OpProject:
					for _, pr := range o.Proj {
						if pr.Old == u.col {
							work = append(work, use{o, pr.New})
						}
					}
				case algebra.OpUnion, algebra.OpCross, algebra.OpRowID:
					pass()
				case algebra.OpSelect:
					if o.Col == u.col {
						bad(o, u.col, "which filters on it")
						continue
					}
					pass()
				case algebra.OpJoin, algebra.OpSemiJoin, algebra.OpDiff:
					keys := o.KeyL
					if e.k == 1 {
						keys = o.KeyR
					}
					switch {
					case slices.Contains(keys, u.col):
						bad(o, u.col, "which joins on it")
					case o.Kind == algebra.OpJoin || e.k == 0:
						pass()
					}
				case algebra.OpRowNum:
					if o.Part == u.col || slices.ContainsFunc(o.Order, func(s algebra.OrderSpec) bool { return s.Col == u.col }) {
						bad(o, u.col, "which numbers rows by it")
						continue
					}
					pass()
				case algebra.OpFun:
					if slices.Contains(o.Args, u.col) {
						bad(o, u.col, "which applies %s to it", o.Fun)
						continue
					}
					pass()
				case algebra.OpAggr:
					if o.Part == u.col || slices.Contains(o.Args, u.col) {
						bad(o, u.col, "which aggregates it")
					}
				case algebra.OpElem:
					switch kind := slotKind(o.Skel, e.k); {
					case e.k == 0:
						bad(o, u.col, "which names its elements by it")
					case u.col != "item":
						bad(o, u.col, "a slot column ε orders by")
					case kind != algebra.SkelSlot:
						bad(o, u.col, "an attribute slot, whose value is its string value")
					case !streamed[o]:
						bad(o, u.col, "a content slot of an ε that builds its fragment and copies the nodes")
					}
				default:
					bad(o, u.col, "which reads the nodes (%s)", o.Kind)
				}
			}
		}
	}
	return diags
}

// slotKind is the kind of the skeleton step that reads ε input k (slot
// k-1); SkelOpen for the root input.
func slotKind(skel algebra.Skeleton, k int) algebra.SkelKind {
	for _, st := range skel {
		if (st.Kind == algebra.SkelSlot || st.Kind == algebra.SkelAttr) && int(st.Slot) == k-1 {
			return st.Kind
		}
	}
	return algebra.SkelOpen
}
