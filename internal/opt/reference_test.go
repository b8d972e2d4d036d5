package opt

// The reference formulations the pipeline replaced, kept as the oracle
// of the differential tests (differential_test.go): the round driver
// that ran whole-DAG normalize → isolate rounds to a fixed point (CSE,
// the demand pruning rebuild, CSE again, then isolation), the
// restart-after-every-splice isolation pass that re-derives order
// sensitivity, re-walks the DAG and taint-walks the property memos per
// splice, and the map-per-operator demand and order-sensitivity
// analyses. Nothing outside the tests calls them.

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"sort"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// refMaxRounds is the round driver's backstop.
const refMaxRounds = 8

// refPipeline is the round driver: normalize (CSE + the demand pruning
// rebuild + CSE) and isolate, round after round until a round rewrites
// nothing, then a final CSE and the size guard against the CSE-only
// input. It returns the plan and the number of rounds.
func refPipeline(root *algebra.Op) (*algebra.Op, int, error) {
	var s refScratch
	initial := s.cse(newPlanIndex(root))
	work := refClone(initial)
	round := 1
	for ; ; round++ {
		n, rewrote, err := refNormalize(work, &s)
		if err != nil {
			return nil, 0, err
		}
		work = n
		iso := refIsolate(work.root(), NewPropertyEngine(), nil)
		work = newPlanIndex(work.root())
		if (iso == 0 && !rewrote) || round == refMaxRounds {
			break
		}
	}
	final := s.cse(work)
	if final.live() > initial.live() {
		final = initial
	}
	if err := algebra.Validate(final.root()); err != nil {
		return nil, 0, fmt.Errorf("round driver produced an invalid plan: %w", err)
	}
	return final.root(), round, nil
}

// refNormalize is one CSE + prune/fuse sweep. rewrote reports that the
// sweep rewrote an operator, which a rewrite that only swaps one operator
// for another (ϱ → mark) does without changing the operator count.
func refNormalize(work *planIndex, s *refScratch) (r *planIndex, rewrote bool, err error) {
	shared := s.cse(work)
	pruned, err := refPruneAndFuse(shared)
	if err != nil {
		return nil, false, err
	}
	if pruned == shared.root() {
		return shared, shared.live() < work.live(), nil
	}
	return s.cse(newPlanIndex(pruned)), true, nil
}

// refScratch is the CSE pass's signature table, literal table and memo.
type refScratch struct {
	seed  maphash.Seed
	canon map[uint64]int32
	chain []int32
	lits  map[*bat.Table]int32
	key   []byte
	probe []byte
}

// cse shares structurally identical subplans and emits the index of the
// DAG it returns, numbered as operators become canonical.
func (s *refScratch) cse(x *planIndex) *planIndex {
	n := len(x.ops)
	out := &planIndex{}
	if s.canon == nil {
		s.seed = maphash.MakeSeed()
	}
	s.canon = make(map[uint64]int32, n)
	s.lits = make(map[*bat.Table]int32)
	s.chain = s.chain[:0]
	memo := make([]int32, n)
	for i, o := range x.ops {
		var ins []int32
		changed := false
		for k, c := range x.inputs(int32(i)) {
			ins = append(ins, memo[c])
			if out.ops[memo[c]] != o.In[k] {
				changed = true
			}
		}
		if o.Kind == algebra.OpLit {
			j, ok := s.lits[o.Lit]
			if !ok {
				j = out.add(o, nil)
				s.chain = append(s.chain, -1)
				s.lits[o.Lit] = j
			}
			memo[i] = j
			continue
		}
		var h uint64
		if !constructs(o.Kind) {
			s.key = appendSignature(s.key[:0], o, ins)
			h = maphash.Bytes(s.seed, s.key)
			if j := s.canonical(out, h); j >= 0 {
				memo[i] = j
				continue
			}
		}
		cur := o
		if changed {
			cp := *o
			cp.In = make([]*algebra.Op, len(ins))
			for k, c := range ins {
				cp.In[k] = out.ops[c]
			}
			cur = &cp
		}
		j := out.add(cur, ins)
		memo[i] = j
		if constructs(o.Kind) {
			s.chain = append(s.chain, -1)
			continue
		}
		prev, ok := s.canon[h]
		if !ok {
			prev = -1
		}
		s.chain = append(s.chain, prev)
		s.canon[h] = j
	}
	out.top = int32(len(out.ops) - 1)
	return out
}

func (s *refScratch) canonical(out *planIndex, h uint64) int32 {
	j, ok := s.canon[h]
	for ok && j >= 0 {
		s.probe = appendSignature(s.probe[:0], out.ops[j], out.inputs(j))
		if bytes.Equal(s.probe, s.key) {
			return j
		}
		j = s.chain[j]
	}
	return -1
}

// refPruneAndFuse runs the demand analysis and rebuilds the DAG bottom-up
// with pruned and fused projections and the order-property rewrites,
// which consult the properties of the DAG under construction.
func refPruneAndFuse(x *planIndex) (*algebra.Op, error) {
	needed := refDemandMap(x.root())
	memo := make([]*algebra.Op, len(x.ops))
	pr := newProps(growingIndex(0))
	for i, o := range x.ops {
		var children []*algebra.Op
		for _, c := range x.inputs(int32(i)) {
			children = append(children, memo[c])
		}
		out, err := refRebuildOp(o, children, needed[o], pr)
		if err != nil {
			return nil, err
		}
		memo[i] = out
	}
	return memo[len(memo)-1], nil
}

// refRebuildOp rebuilds operator o over its rebuilt inputs in, applying
// the normalize rewrites; need is o's demanded columns, nil when nobody
// registered a demand on o.
func refRebuildOp(o *algebra.Op, in []*algebra.Op, need map[string]bool, pr *props) (*algebra.Op, error) {
	same := true
	for k, c := range in {
		same = same && c == o.In[k]
	}
	switch o.Kind {
	case algebra.OpLit:
		return o, nil
	case algebra.OpProject:
		pairs := o.Proj
		if need != nil {
			pairs = nil
			for _, p := range o.Proj {
				if need[p.New] {
					pairs = append(pairs, p)
				}
			}
			if len(pairs) == 0 {
				pairs = o.Proj[:1]
			}
		}
		if same && len(pairs) == len(o.Proj) && in[0].Kind != algebra.OpProject && !algebra.IdentityPairs(pairs, in[0].Schema()) {
			return o, nil
		}
		return algebra.ProjectPairs(in[0], pairs)
	case algebra.OpUnion:
		if !sameCols(in[0].Schema(), in[1].Schema()) {
			return align(in[0], in[1])
		}
	case algebra.OpDistinct:
		if pr.orderingOf(in[0]).strict {
			return in[0], nil
		}
	case algebra.OpRowNum:
		if presorted(o, pr.orderingOf(in[0])) {
			return algebra.RowID(in[0], o.Col)
		}
	}
	if same {
		return o, nil
	}
	if out, err := rebuild(o, in); out != nil || err != nil {
		return out, err
	}
	switch o.Kind {
	case algebra.OpAggr:
		arg := ""
		if len(o.Args) > 0 {
			arg = o.Args[0]
		}
		a, err := algebra.Aggr(in[0], o.Col, o.Agg, arg, o.Part)
		if err != nil {
			return nil, err
		}
		a.Sep = o.Sep
		return a, nil
	case algebra.OpStep:
		return algebra.Step(in[0], o.Axis, o.Test)
	case algebra.OpElem:
		return algebra.ElemSkel(in[0], o.Skel, in[1:]...)
	case algebra.OpText:
		return algebra.Text(in[0])
	case algebra.OpAttrC:
		return algebra.AttrC(in[0], in[1])
	case algebra.OpRange:
		return algebra.Range(in[0], o.KeyL[0], o.KeyL[1])
	case algebra.OpColl:
		return algebra.CollOp(in[0])
	}
	return nil, fmt.Errorf("unknown operator %s", o.Kind)
}

// refClone deep-copies the interior of an indexed DAG, preserving
// sharing and the numbering, so the in-place isolation pass cannot
// mutate the caller's plan. Leaves are shared.
func refClone(x *planIndex) *planIndex {
	out := &planIndex{ops: make([]*algebra.Op, len(x.ops)), inStart: x.inStart, in: x.in, top: x.top}
	for i, o := range x.ops {
		if len(o.In) == 0 {
			out.ops[i] = o
			continue
		}
		cp := *o
		cp.In = make([]*algebra.Op, len(o.In))
		for k, c := range x.inputs(int32(i)) {
			cp.In[k] = out.ops[c]
		}
		out.ops[i] = &cp
	}
	return out
}

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
			if c.Kind != algebra.OpRowNum {
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
			if !refRowNumNoop(c, e.p) && om[o] {
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
		for _, in := range o.In {
			demand(in) // its rows, if none of its columns
		}
		switch o.Kind {
		case algebra.OpProject:
			kept := false
			for _, p := range o.Proj {
				if need[p.New] {
					demand(o.In[0], p.Old)
					kept = true
				}
			}
			if !kept {
				demand(o.In[0], o.Proj[0].Old)
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
