package opt

import (
	"slices"

	"pathfinder/internal/algebra"
)

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
// The rewrite is deliberately narrow and proof-carrying. We only splice
// out a numbering operator c under a projection parent π where:
//
//   - π does not reference c's numbering column (the column is dead on
//     this edge — all c contributes to π is row order), and
//   - one of three order proofs holds:
//     (1) c is a mark (ϱ with no sort): removing it cannot change row
//     order at all;
//     (2) c is a ϱ whose input is already sorted by its (partition,
//     order) columns — the stable sort is the identity, so again row
//     order is untouched;
//     (3) the order-sensitivity analysis (order.go) proves π's output
//     order is unobservable — reordering is semantically invisible.
//
// Splicing only the π edge keeps the rewrite DAG-safe: other parents of
// c (which may demand the numbering column, or its order) are untouched,
// and π's schema cannot break because it never mentioned c's column.
//
// The pass scans the projections in plan-index order and applies the
// first safe splice it meets; an order proof derived on the old shape
// must not justify the next splice, so every splice is followed by
// exactly the re-derivation it can have made necessary — and nothing
// that walks the whole DAG:
//
//   - the index is patched for the one rewired edge (planIndex.splice);
//     no other operator changes its number, and since ϱ/mark are unary,
//     c is the only operator that can drop out of the plan, so the
//     numbering stays a valid scan order;
//   - derived properties depend on an operator's subplan only, so the
//     memos of π and of the operators above it — reached through the
//     consumer lists — are dropped and everything else is kept;
//   - order sensitivity depends on an operator's consumers and, through
//     the tie-free-ϱ barrier and the (iter, pos)-key sinks, on the
//     derived properties of a consumer's input. Both changed only for
//     the operators just invalidated and for the two ends of the edge,
//     so those are re-pulled, following flips downwards
//     (orderSense.rederive);
//   - proofs (1) and (2) of a projection scanned earlier look only
//     below it, where nothing changed (an earlier number is never above
//     π). Such a projection can turn safe only by proof (3), when its
//     sensitivity flips off: the scan resumes at the lowest such flip,
//     or at π itself, whose new input may be the next numbering operator
//     of a tower.
//
// That yields the splice sequence of the restart-after-every-splice
// formulation this replaces, which the tests keep as the reference.
//
// The spliced-out towers typically leave identity projections and newly
// shareable subgraphs behind; the next normalize round of the pipeline
// collapses those (projection fusion + cross-operator CSE), which is how
// whole rownum/map towers disappear rather than single operators.
func isolate(idx *planIndex, pr *props, spliced func(pi int32, sense *orderSense)) int {
	idx.buildConsumers()
	sense := newOrderSense(idx, pr)
	n := int32(len(idx.ops))
	// Scratch of the per-splice invalidation: the operators above the
	// spliced π, stamped with the splice they were collected for.
	var above []int32
	stamp := make([]int32, n)

	rewrites := 0
	for i := int32(0); i < n; i++ {
		o := idx.ops[i]
		if o.Kind != algebra.OpProject {
			continue
		}
		c := idx.inputs(i)[0]
		num := idx.ops[c]
		if num.Kind != algebra.OpRowNum && num.Kind != algebra.OpRowID {
			continue
		}
		if referencesCol(o, num.Col) {
			continue
		}
		d := idx.inputs(c)[0]
		if num.Kind == algebra.OpRowNum && !rowNumNoop(num, d, pr) && sense.matters[i] {
			continue
		}
		idx.splice(i, c, d)
		rewrites++

		mark := int32(rewrites)
		above = append(above[:0], i)
		stamp[i] = mark
		for k := 0; k < len(above); k++ {
			pr.drop(above[k])
			for _, p := range idx.cons[above[k]] {
				if stamp[p] != mark {
					stamp[p] = mark
					above = append(above, p)
				}
			}
		}
		resume := sense.rederive(append(above, c, d))
		if spliced != nil {
			spliced(i, sense)
		}
		// The loop's i++ lands on the resume point.
		i = min(i, resume) - 1
	}
	return rewrites
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
	cols := buf[:0]
	if o.Part != "" {
		cols = append(cols, o.Part)
	}
	for _, s := range o.Order {
		if s.Desc {
			return false
		}
		cols = append(cols, s.Col)
	}
	return pr.sortedOn(d, cols)
}
