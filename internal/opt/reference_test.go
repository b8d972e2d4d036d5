package opt

// The reference formulations the index-backed pipeline replaced, kept
// verbatim as the oracle of the differential tests (differential_test.go):
// the restart-after-every-splice isolation pass that re-derives order
// sensitivity, re-walks the DAG and taint-walks the property memos per
// splice, and the map-per-operator demand and order-sensitivity analyses.
// Nothing outside the tests calls them.

import (
	"sort"

	"pathfinder/internal/algebra"
)

// refIsolate is the restart-scan isolation pass. spliced (may be nil)
// sees each rewired projection before the next scan starts.
func refIsolate(root *algebra.Op, e *PropertyEngine, spliced func(pi *algebra.Op)) int {
	rewrites := 0
	for {
		om := refOrderMatters(root, e.p)
		didSplice := false
		for _, o := range algebra.Topo(root) {
			if o.Kind != algebra.OpProject {
				continue
			}
			c := o.In[0]
			if c.Kind != algebra.OpRowNum && c.Kind != algebra.OpRowID {
				continue
			}
			referenced := false
			for _, p := range o.Proj {
				if p.Old == c.Col {
					referenced = true
					break
				}
			}
			if referenced {
				continue
			}
			safe := false
			switch c.Kind {
			case algebra.OpRowID:
				safe = true
			case algebra.OpRowNum:
				safe = refRowNumNoop(c, e.p) || !om[o]
			}
			if !safe {
				continue
			}
			o.In[0] = c.In[0]
			e.Invalidate(root, o)
			rewrites++
			didSplice = true
			if spliced != nil {
				spliced(o)
			}
			break
		}
		if !didSplice {
			return rewrites
		}
	}
}

func (p *props) denseOf(o *algebra.Op) []string { return p.denseAt(p.at(o)) }

func refRowNumNoop(o *algebra.Op, pr *props) bool {
	cols := make([]string, 0, len(o.Order)+1)
	if o.Part != "" {
		cols = append(cols, o.Part)
	}
	for _, s := range o.Order {
		if s.Desc {
			return false
		}
		cols = append(cols, s.Col)
	}
	return pr.sortedOn(pr.at(o.In[0]), cols)
}

func refOrderMatters(root *algebra.Op, pr *props) map[*algebra.Op]bool {
	m := make(map[*algebra.Op]bool, 64)
	mark := func(o *algebra.Op, v bool) {
		if v {
			m[o] = true
		} else if _, ok := m[o]; !ok {
			m[o] = false
		}
	}
	mark(root, !refValueDetermined(root, pr))
	for _, o := range algebra.TopoDown(root) {
		mv := m[o]
		switch o.Kind {
		case algebra.OpLit:
			// no inputs
		case algebra.OpProject, algebra.OpSelect, algebra.OpFun,
			algebra.OpDoc, algebra.OpRoots, algebra.OpColl,
			algebra.OpRange, algebra.OpDistinct:
			// Order-preserving row maps/filters (δ keeps first
			// occurrences): input order shows through exactly when the
			// output's order is observed.
			mark(o.In[0], mv)
		case algebra.OpUnion:
			mark(o.In[0], mv)
			mark(o.In[1], mv)
		case algebra.OpDiff, algebra.OpSemiJoin:
			// Right side is a filter set — only membership matters.
			mark(o.In[0], mv)
			mark(o.In[1], false)
		case algebra.OpJoin, algebra.OpCross:
			// Left-streaming kernels: output order interleaves left order
			// with right physical match order.
			mark(o.In[0], mv)
			mark(o.In[1], mv)
		case algebra.OpRowNum:
			// ϱ sorts by (partition, order) with ties broken by input
			// order. Tie-free (the sort key is a key of the input) ⇒ both
			// the numbering values and the output row order are fully
			// determined: a barrier. Otherwise the input order leaks into
			// the numbering values themselves: a sink.
			mark(o.In[0], !refRowNumTieFree(o, pr))
		case algebra.OpRowID:
			// mark numbers rows in input order — values are the order.
			mark(o.In[0], true)
		case algebra.OpAggr:
			sensitive := o.Agg == algebra.AggStrJoin ||
				o.Agg == algebra.AggSum || o.Agg == algebra.AggAvg
			if o.Part == "" {
				mark(o.In[0], sensitive)
			} else {
				// Partitioned groups surface in first-occurrence order.
				mark(o.In[0], mv || sensitive)
			}
		case algebra.OpStep:
			// The staircase join groups by (iter, fragment), sorts group
			// keys, and sort-dedups context nodes: a full barrier.
			mark(o.In[0], false)
		case algebra.OpElem:
			// The root input is sorted by iter (duplicates are an error);
			// each slot is sorted by (iter, pos) before node construction,
			// so its order is only observable through ties on (iter, pos).
			mark(o.In[0], false)
			for _, slot := range o.In[1:] {
				mark(slot, !refValueDetermined(slot, pr))
			}
		case algebra.OpText:
			// Constructed text nodes get pre-order ids in input row order.
			mark(o.In[0], true)
		case algebra.OpAttrC:
			// Attribute construction numbers nodes in name-row order; the
			// value side is consulted by iter lookup only.
			mark(o.In[0], true)
			mark(o.In[1], false)
		default:
			for _, in := range o.In {
				mark(in, true)
			}
		}
	}
	return m
}

// valueDetermined reports that sorting o's rows by (iter, pos) — what the
// serializer and the element constructor do — yields a sequence
// independent of the incoming row order: the derived ordering is strict
// over columns drawn from {iter, pos}, so no two rows tie on the sort key.
func refValueDetermined(o *algebra.Op, pr *props) bool {
	ord := pr.orderingOf(o)
	if !ord.strict || len(ord.cols) == 0 {
		return false
	}
	for _, c := range ord.cols {
		if c != "iter" && c != "pos" {
			return false
		}
	}
	return true
}

// rowNumTieFree proves ϱ's sort key (partition + order columns) is a key
// of its input: either the input's strict derived ordering uses only
// those columns, or one of them is dense (1..n never repeats).
func refRowNumTieFree(o *algebra.Op, pr *props) bool {
	keySet := make(map[string]bool, len(o.Order)+1)
	if o.Part != "" {
		keySet[o.Part] = true
	}
	for _, s := range o.Order {
		keySet[s.Col] = true
	}
	for _, c := range pr.denseOf(o.In[0]) {
		if keySet[c] {
			return true
		}
	}
	ord := pr.orderingOf(o.In[0])
	if !ord.strict || len(ord.cols) == 0 {
		return false
	}
	for _, c := range ord.cols {
		if !keySet[c] {
			return false
		}
	}
	return true
}

func refDemandMap(root *algebra.Op) map[*algebra.Op]map[string]bool {
	needed := make(map[*algebra.Op]map[string]bool)
	demand := func(o *algebra.Op, cols ...string) {
		m := needed[o]
		if m == nil {
			m = make(map[string]bool)
			needed[o] = m
		}
		for _, c := range cols {
			m[c] = true
		}
	}
	// Seed: the root's full schema is demanded.
	demand(root, root.Schema()...)

	// Propagate demands in topological order (parents before children).
	order := algebra.TopoDown(root)
	for _, o := range order {
		need := needed[o]
		switch o.Kind {
		case algebra.OpProject:
			for _, p := range o.Proj {
				if need[p.New] {
					demand(o.In[0], p.Old)
				}
			}
		case algebra.OpSelect:
			demand(o.In[0], refKeys(need)...)
			demand(o.In[0], o.Col)
		case algebra.OpUnion:
			demand(o.In[0], refKeys(need)...)
			demand(o.In[1], refKeys(need)...)
		case algebra.OpDiff, algebra.OpSemiJoin:
			demand(o.In[0], refKeys(need)...)
			demand(o.In[0], o.KeyL...)
			demand(o.In[1], o.KeyR...)
		case algebra.OpJoin:
			refSplitDemand(o.In[0], o.In[1], need, demand)
			demand(o.In[0], o.KeyL...)
			demand(o.In[1], o.KeyR...)
		case algebra.OpCross:
			refSplitDemand(o.In[0], o.In[1], need, demand)
		case algebra.OpDistinct:
			// δ is defined over the full schema; every column matters.
			demand(o.In[0], o.In[0].Schema()...)
		case algebra.OpRowNum:
			for _, c := range refKeys(need) {
				if c != o.Col {
					demand(o.In[0], c)
				}
			}
			for _, s := range o.Order {
				demand(o.In[0], s.Col)
			}
			if o.Part != "" {
				demand(o.In[0], o.Part)
			}
		case algebra.OpRowID:
			for _, c := range refKeys(need) {
				if c != o.Col {
					demand(o.In[0], c)
				}
			}
		case algebra.OpFun:
			for _, c := range refKeys(need) {
				if c != o.Col {
					demand(o.In[0], c)
				}
			}
			demand(o.In[0], o.Args...)
		case algebra.OpAggr:
			if o.Part != "" {
				demand(o.In[0], o.Part)
			}
			demand(o.In[0], o.Args...)
		case algebra.OpStep:
			demand(o.In[0], "iter", "item")
		case algebra.OpDoc, algebra.OpRoots, algebra.OpText:
			demand(o.In[0], refKeys(need)...)
			demand(o.In[0], "iter", "item")
		case algebra.OpElem:
			demand(o.In[0], "iter")
			if o.Skel.Dynamic() {
				demand(o.In[0], "item")
			}
			for _, slot := range o.In[1:] {
				demand(slot, "iter", "pos", "item")
			}
		case algebra.OpAttrC:
			demand(o.In[0], "iter", "item")
			demand(o.In[1], "iter", "item")
		case algebra.OpRange:
			demand(o.In[0], "iter")
			demand(o.In[0], o.KeyL...)
		case algebra.OpColl:
			demand(o.In[0], "iter", "item")
		}
	}
	return needed
}

func refSplitDemand(l, r *algebra.Op, need map[string]bool, demand func(*algebra.Op, ...string)) {
	for _, c := range refKeys(need) {
		if l.HasCol(c) {
			demand(l, c)
		} else if r.HasCol(c) {
			demand(r, c)
		}
	}
}

func refKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
