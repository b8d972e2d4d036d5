package engine

import (
	"context"
	"fmt"
	"math"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/physical"
)

// This file executes physical plans (internal/physical). Operators
// exchange bat.View values — a base table plus a selection vector —
// instead of materialized tables: pipeline kernels (filter, project,
// semijoin, antijoin) narrow the selection or the column set without
// copying row data, extension kernels (map, mark, doc, roots) append a
// column to shared base vectors, and only the breakers (join outputs,
// distinct, rownum, concat, and the consumers that need contiguous
// tables: aggr, staircase, constructors, range) gather rows. The plan
// root materializes once at the end.
//
// The kernels are chosen statically by the lowering pass; the executor
// refines the choice at runtime where the static analysis cannot see the
// physical column type (typed int vs. generic item hash paths) and
// reports the kernel actually run through the evaluation trace.

// physOut is one kernel's result: the output view, the kernel that
// actually ran, and how many rows it had to materialize (gathered or
// copied — scanned-in-place rows are not counted).
type physOut struct {
	view   *bat.View
	kernel string
	mat    int
	// fast marks a kernel chosen by observing the input's order or
	// density at run time in place of the node's static kernel.
	fast bool
}

// execUnit is one schedulable unit of a physical plan: a single node,
// an operator chain, or a theta join. nd is the node whose output is
// the unit's — the chain's tail, the theta join's σ or, when its pairs
// are only counted, its count. The other members are not units: a chain
// interior's output goes only to the next member inside the same task,
// a theta join's product never exists at all.
type execUnit struct {
	nd    *physical.Node
	chain *physical.FusedChain
	theta *physical.ThetaJoin
}

func (u execUnit) inputs() []*physical.Node {
	switch {
	case u.chain != nil:
		return u.chain.Head().In
	case u.theta != nil:
		return u.theta.Cross.In
	}
	return u.nd.In
}

// planUnits folds the plan's operator chains and theta joins into
// execution units. With neither discovered every node is its own unit —
// the tiny-input fast path pays no setup cost whatsoever.
func planUnits(plan *physical.Plan) []execUnit {
	if len(plan.Chains) == 0 && len(plan.ThetaJoins) == 0 {
		units := make([]execUnit, len(plan.Nodes))
		for i, nd := range plan.Nodes {
			units[i] = execUnit{nd: nd}
		}
		return units
	}
	interior := make(map[*physical.Node]bool)
	boundary := make(map[*physical.Node]execUnit)
	for _, ch := range plan.Chains {
		for _, nd := range ch.Nodes[:len(ch.Nodes)-1] {
			interior[nd] = true
		}
		boundary[ch.Tail()] = execUnit{nd: ch.Tail(), chain: ch}
	}
	for _, tj := range plan.ThetaJoins {
		for _, nd := range tj.Members() {
			interior[nd] = nd != tj.Out()
		}
		boundary[tj.Out()] = execUnit{nd: tj.Out(), theta: tj}
	}
	units := make([]execUnit, 0, len(plan.Nodes))
	for _, nd := range plan.Nodes {
		if interior[nd] {
			continue
		}
		u, ok := boundary[nd]
		if !ok {
			u = execUnit{nd: nd}
		}
		units = append(units, u)
	}
	return units
}

// runUnit executes one unit over its input views and records its stats.
// Errors return wrapped with the failing operator's kind. The unit holds
// one slot of the shared worker budget while it runs; kernels the
// lowering marked Parallel may reserve spare slots for a morsel team.
func (e *Engine) runUnit(ctx context.Context, u execUnit, in []*bat.View, tr *Trace, worker int) (*bat.View, error) {
	switch {
	case u.chain != nil:
		return e.runChain(ctx, u.chain, in[0], tr, worker)
	case u.theta != nil:
		return e.execTheta(ctx, u.theta, in, tr, worker)
	}
	if e.onApply != nil {
		e.onApply(u.nd.Op)
	}
	e.sh.working.Add(1)
	defer e.sh.working.Add(-1)
	out, st, err := e.runNode(ctx, u.nd, in, tr, worker)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.recordStat(u.nd.Op, st)
	}
	return out, nil
}

// runChain executes an operator chain as one scheduler task: its members
// run back to back through the ordinary kernels, each recording its own
// stat stamped with the chain's id, its position and the chain's length.
func (e *Engine) runChain(ctx context.Context, ch *physical.FusedChain, in *bat.View, tr *Trace, worker int) (*bat.View, error) {
	if e.onApply != nil {
		for _, nd := range ch.Nodes {
			e.onApply(nd.Op)
		}
	}
	e.sh.working.Add(1)
	defer e.sh.working.Add(-1)
	return e.replayNodes(ctx, ch.Nodes, []*bat.View{in}, tr, worker, func(i int, st OpStat) OpStat {
		st.FusedChain, st.FusedPos, st.FusedLen = ch.ID, i+1, len(ch.Nodes)
		return st
	})
}

// replayNodes runs a multi-operator unit one member at a time: the first
// member consumes in, each later one its predecessor's output, and every
// member but the last leaves its view with the trace. Each member records
// an ordinary stat, which stamp (when set) annotates with the member's
// index — how a chain records membership and a demoted theta join says
// why. The stat passes by value so that it stays off the heap. The caller
// holds the unit's worker slot.
func (e *Engine) replayNodes(ctx context.Context, nodes []*physical.Node, in []*bat.View, tr *Trace, worker int, stamp func(i int, st OpStat) OpStat) (*bat.View, error) {
	for i, nd := range nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out, st, err := e.runNode(ctx, nd, in, tr, worker)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			if stamp != nil {
				st = stamp(i, st)
			}
			if i < len(nodes)-1 {
				tr.keepMember(nd.Op, out)
			}
			tr.recordStat(nd.Op, st)
		}
		in = []*bat.View{out}
	}
	return in[0], nil
}

// runNode runs one node's kernel over its input views, asserts the
// output's invariants under Check, and returns the output with — when
// the evaluation is traced — the node's stat. Errors return wrapped with
// the operator's kind; a kernel that panics, on this goroutine or on one
// of its morsel team's, fails with a *KernelPanic naming the operator and
// the kernel.
func (e *Engine) runNode(ctx context.Context, nd *physical.Node, in []*bat.View, tr *Trace, worker int) (_ *bat.View, _ OpStat, err error) {
	defer recoverKernel(&err, nd.Op.Kind, nd.Kernel)
	start := time.Now() //pfvet:allow determinism -- trace wall-time only, not query results
	ms := &morsels{e: e, ctx: ctx, par: nd.Parallel}
	if e.panicHook != nil {
		e.panicHook(-1)
	}
	out, err := e.execKernel(ctx, nd, in, ms)
	if err == nil && e.Check {
		err = checkNodeOutput(nd, out.view)
	}
	if err != nil {
		return nil, OpStat{}, wrapKernelErr(err, nd.Op.Kind, nd.Kernel)
	}
	if tr == nil {
		return out.view, OpStat{}, nil
	}
	st := OpStat{
		//pfvet:allow determinism -- trace wall-time only, not query results
		Wall: time.Since(start), RowsIn: viewRowsIn(in),
		RowsOut: out.view.Rows(), Worker: worker,
		Kernel: out.kernel, RowsMat: out.mat,
	}
	if out.fast {
		st.Static = nd.Kernel
	}
	st.setMorsels(ms)
	return out.view, st, nil
}

// physSequential executes the plan units in topological order on the
// calling goroutine — the fallback for small plans and single-worker
// engines.
func (e *Engine) physSequential(ctx context.Context, plan *physical.Plan, tr *Trace) (*bat.Table, error) {
	units := planUnits(plan)
	results := make(map[*physical.Node]*bat.View, len(plan.Nodes))
	if tr != nil {
		defer fillTraceTables(tr, plan, func(nd *physical.Node) *bat.View { return results[nd] })
	}
	for _, u := range units {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ins := u.inputs()
		in := make([]*bat.View, len(ins))
		for i, c := range ins {
			in[i] = results[c]
		}
		out, err := e.runUnit(ctx, u, in, tr, 0)
		if err != nil {
			return nil, err
		}
		results[u.nd] = out
	}
	return results[plan.Root].Materialize(), nil
}

func viewRowsIn(in []*bat.View) int {
	n := 0
	for _, v := range in {
		n += v.Rows()
	}
	return n
}

// fillTraceTables materializes the intermediate result of every completed
// node into the trace — deferred until after execution so trace-mode
// materialization never distorts the per-kernel RowsMat accounting.
//
// Unit interiors have no scheduler slot. Members that ran one by one (a
// chain's interiors, a demoted theta join) left their views with the
// trace. The × and ⊛ of a theta join the band kernel ran are shown the
// pairs σ let through, in the columns the unit's consumers demanded; a
// count-only unit emitted no pairs and has none to show.
func fillTraceTables(tr *Trace, plan *physical.Plan, viewOf func(*physical.Node) *bat.View) {
	for _, nd := range plan.Nodes {
		if v := viewOf(nd); v != nil {
			tr.setTable(nd.Op, v.Materialize())
		}
	}
	for op, v := range tr.members {
		tr.setTable(op, v.Materialize())
	}
	for _, tj := range plan.ThetaJoins {
		pairs := tr.Tables[tj.Select.Op]
		if pairs == nil || tr.Stats[tj.Select.Op].ThetaJoin == 0 {
			continue // never ran, or ran demoted (members kept above)
		}
		tr.setTable(tj.Fun.Op, pairs)
		tr.setTable(tj.Cross.Op, demandedCols(pairs, tj.Cross.Op.Schema()))
	}
}

// matCount materializes a view for a kernel that needs a contiguous
// table, charging the gather to this kernel only if it actually happened
// here (identity views and already-materialized shared views are free).
func matCount(v *bat.View) (*bat.Table, int) {
	if v.Materialized() || v.Sel() == nil {
		return v.Materialize(), 0
	}
	t := v.Materialize()
	return t, t.Rows()
}

// execKernel dispatches to the operator's kernel.
func (e *Engine) execKernel(ctx context.Context, nd *physical.Node, in []*bat.View, ms *morsels) (physOut, error) {
	o := nd.Op
	switch o.Kind {
	case algebra.OpLit:
		return physOut{view: bat.ViewOf(o.Lit), kernel: nd.Kernel}, nil
	case algebra.OpProject:
		specs := make([]string, len(o.Proj))
		for i, p := range o.Proj {
			specs[i] = p.New + ":" + p.Old
		}
		v, err := in[0].Project(specs...)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: v, kernel: nd.Kernel}, nil
	case algebra.OpSelect:
		return physFilter(ms, in[0], o.Col)
	case algebra.OpUnion:
		return physConcat(in[0], in[1])
	case algebra.OpDiff:
		return physAntiJoin(ms, in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpDistinct:
		return physDistinct(ms, in[0])
	case algebra.OpJoin:
		return physJoin(ctx, ms, nd, in[0], in[1], joinFull)
	case algebra.OpSemiJoin:
		return physJoin(ctx, ms, nd, in[0], in[1], joinSemi)
	case algebra.OpCross:
		lt, lm := matCount(in[0])
		rt, rm := matCount(in[1])
		if t, ok, err := physCrossBroadcast(lt, rt); err != nil {
			return physOut{}, err
		} else if ok {
			return physOut{view: bat.ViewOf(t), kernel: nd.Kernel + ":bcast", mat: lm + rm + t.Rows()}, nil
		}
		t, err := evalCross(ctx, lt, rt)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(t), kernel: nd.Kernel, mat: lm + rm + t.Rows()}, nil
	case algebra.OpRowNum:
		return physRowNum(nd, in[0])
	case algebra.OpRowID:
		t, m := matCount(in[0])
		out := t.Slice(0, t.Rows())
		if err := out.AddCol(o.Col, bat.Ramp(1, t.Rows())); err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel, mat: m}, nil
	case algebra.OpFun:
		return e.physFun(ms, nd, in[0])
	case algebra.OpAggr:
		t, m := matCount(in[0])
		out, tag, err := physAggr(ms, t, o.Col, o.Agg, o.Args, o.Part, o.Sep)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel + tag, mat: m, fast: tag == ":int:runs"}, nil
	case algebra.OpStep:
		t, m := matCount(in[0])
		out, err := e.evalStep(ms, t, o.Axis, o.Test)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel, mat: m + out.Rows()}, nil
	case algebra.OpDoc:
		t, m := matCount(in[0])
		out, err := e.evalDoc(t)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel, mat: m}, nil
	case algebra.OpRoots:
		t, m := matCount(in[0])
		out, err := e.evalRoots(t)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel, mat: m}, nil
	case algebra.OpElem:
		qt, m1 := matCount(in[0])
		ct, m2 := matCount(in[1])
		out, err := e.evalElem(qt, ct)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel, mat: m1 + m2}, nil
	case algebra.OpText:
		t, m := matCount(in[0])
		out, err := e.evalText(t)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel, mat: m}, nil
	case algebra.OpAttrC:
		nt, m1 := matCount(in[0])
		vt, m2 := matCount(in[1])
		out, err := e.evalAttrC(nt, vt)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel, mat: m1 + m2}, nil
	case algebra.OpRange:
		t, m := matCount(in[0])
		out, err := e.evalRange(ctx, t, o.KeyL[0], o.KeyL[1])
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel, mat: m + out.Rows()}, nil
	case algebra.OpColl:
		t, m := matCount(in[0])
		out, err := e.evalColl(t)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel, mat: m + out.Rows()}, nil
	}
	return physOut{}, fmt.Errorf("unimplemented operator")
}

// physFilter is σ as a selection-vector kernel: it narrows the input
// view's selection without touching row data. Boolean columns take the
// typed path (no per-row Item boxing); polymorphic item columns check
// each row's kind and name the first non-boolean one. Both paths are
// embarrassingly morsel-parallel: each morsel filters its own view-row
// range into a private buffer and the buffers concatenate in morsel
// order, reproducing the sequential selection exactly.
func physFilter(ms *morsels, v *bat.View, col string) (physOut, error) {
	c, err := v.Base().Col(col)
	if err != nil {
		return physOut{}, err
	}
	ranges := ms.split(v.Rows())
	parts := make([][]int32, len(ranges))
	kernel := "filter[item]"
	if bv, ok := c.(bat.BoolVec); ok {
		kernel = "filter[bool]"
		sel := v.Sel()
		err = ms.run(len(ranges), func(m int) error {
			r := ranges[m]
			out := make([]int32, 0, r.Len())
			if sel == nil {
				for i := r.Lo; i < r.Hi; i++ {
					if bv[i] {
						out = append(out, int32(i))
					}
				}
			} else {
				for _, i := range sel[r.Lo:r.Hi] {
					if bv[i] {
						out = append(out, i)
					}
				}
			}
			parts[m] = out
			return nil
		})
	} else {
		err = ms.run(len(ranges), func(m int) error {
			r := ranges[m]
			out := make([]int32, 0, r.Len())
			for row := r.Lo; row < r.Hi; row++ {
				i := v.Index(row)
				it := c.ItemAt(i)
				if it.Kind != bat.KBool {
					return fmt.Errorf("σ over non-boolean column %q (row %d is %s)", col, row, it.Kind)
				}
				if it.B {
					out = append(out, int32(i))
				}
			}
			parts[m] = out
			return nil
		})
	}
	if err != nil {
		return physOut{}, err
	}
	return physOut{view: bat.NewView(v.Base(), concatSel(parts)), kernel: kernel}, nil
}

// physConcat is ∪̇: a breaker that appends both inputs' selected rows
// column by column, reading through the views without materializing the
// inputs first.
func physConcat(l, r *bat.View) (physOut, error) {
	lb, rb := l.Base(), r.Base()
	nl, nr := l.Rows(), r.Rows()
	out := &bat.Table{}
	for _, name := range lb.Cols() {
		lv := lb.MustCol(name)
		rv, err := rb.Col(name)
		if err != nil {
			return physOut{}, err
		}
		var merged bat.Vec
		if lv.Type() == rv.Type() {
			b := lv.New(nl + nr)
			for i := 0; i < nl; i++ {
				b.AppendFrom(lv, l.Index(i))
			}
			for i := 0; i < nr; i++ {
				b.AppendFrom(rv, r.Index(i))
			}
			merged = b.Build()
		} else {
			iv := make(bat.ItemVec, 0, nl+nr)
			for i := 0; i < nl; i++ {
				iv = append(iv, lv.ItemAt(l.Index(i)))
			}
			for i := 0; i < nr; i++ {
				iv = append(iv, rv.ItemAt(r.Index(i)))
			}
			merged = iv
		}
		if err := out.AddCol(name, merged); err != nil {
			return physOut{}, err
		}
	}
	return physOut{view: bat.ViewOf(out), kernel: "concat", mat: nl + nr}, nil
}

// physAntiJoin is \ as a selection kernel over the left view: rows whose
// key has no match in the right side survive. Only the right-side key
// set is built; neither input materializes. The probe is morsel-parallel
// over the left view (the set is read-only by then); the build stays
// sequential — \'s right side is the small "already emitted" relation in
// the loop-lifted plans.
func physAntiJoin(ms *morsels, l, r *bat.View, keyL, keyR []string) (physOut, error) {
	lb, rb := l.Base(), r.Base()
	ranges := ms.split(l.Rows())
	parts := make([][]int32, len(ranges))
	if len(keyL) == 1 {
		lv, err := lb.Col(keyL[0])
		if err != nil {
			return physOut{}, err
		}
		rv, err := rb.Col(keyR[0])
		if err != nil {
			return physOut{}, err
		}
		if lk, ok := lv.(bat.IntVec); ok {
			if rk, ok := rv.(bat.IntVec); ok {
				set := make(map[int64]struct{}, r.Rows())
				for i, n := 0, r.Rows(); i < n; i++ {
					set[rk[r.Index(i)]] = struct{}{}
				}
				if err := ms.run(len(ranges), func(m int) error {
					rg := ranges[m]
					sel := make([]int32, 0, rg.Len())
					for i := rg.Lo; i < rg.Hi; i++ {
						bi := l.Index(i)
						if _, hit := set[lk[bi]]; !hit {
							sel = append(sel, int32(bi))
						}
					}
					parts[m] = sel
					return nil
				}); err != nil {
					return physOut{}, err
				}
				return physOut{view: bat.NewView(lb, concatSel(parts)), kernel: "antijoin[int]"}, nil
			}
		}
	}
	rv, err := colVecs(rb, keyR)
	if err != nil {
		return physOut{}, err
	}
	lv, err := colVecs(lb, keyL)
	if err != nil {
		return physOut{}, err
	}
	set := make(map[string]struct{}, r.Rows())
	var buf []byte
	for i, n := 0, r.Rows(); i < n; i++ {
		buf = rowKey(buf[:0], rv, r.Index(i))
		set[string(buf)] = struct{}{}
	}
	if err := ms.run(len(ranges), func(m int) error {
		rg := ranges[m]
		sel := make([]int32, 0, rg.Len())
		var kb []byte // per-morsel key buffer: rowKey scratch must not be shared
		for i := rg.Lo; i < rg.Hi; i++ {
			bi := l.Index(i)
			kb = rowKey(kb[:0], lv, bi)
			if _, ok := set[string(kb)]; !ok {
				sel = append(sel, int32(bi))
			}
		}
		parts[m] = sel
		return nil
	}); err != nil {
		return physOut{}, err
	}
	return physOut{view: bat.NewView(lb, concatSel(parts)), kernel: "antijoin[hash]"}, nil
}

// physDistinct is δ: first occurrence of each distinct row survives, in
// input order. The input is read through the view; the (deduplicated)
// output materializes — δ is a pipeline breaker.
//
// Int keys that arrive lexicographically sorted never reach a hash table
// (sortedDistinct, one scan tried before any morsel split); a strictly
// sorted input is returned as it came, without a gather.
//
// Morsel decomposition of the hash kernels: each morsel deduplicates its
// own row range into a private survivor list (keeping first occurrences
// in input order), and a final sequential pass deduplicates the
// concatenation of the lists. Since every morsel keeps its rows in input
// order and the lists merge in morsel order, the merge pass sees
// candidates in global input order and the survivors are exactly the
// sequential scan's.
func physDistinct(ms *morsels, v *bat.View) (physOut, error) {
	base := v.Base()
	vecs, err := colVecs(base, base.Cols())
	if err != nil {
		return physOut{}, err
	}
	if ints := allIntVecs(vecs); ints != nil {
		if sel, strict, ok := sortedDistinct(ints, v.Rows(), v.Sel()); ok {
			if strict {
				return physOut{view: v, kernel: "distinct[sorted]", fast: true}, nil
			}
			out := base.Gather(sel)
			return physOut{view: bat.ViewOf(out), kernel: "distinct[sorted]", mat: out.Rows(), fast: true}, nil
		}
	}
	return physDistinctHash(ms, v, vecs)
}

// physDistinctHash is δ through the hash kernels of distinctIndices. The
// kernel reported is the one the morsels ran — the per-row work — not
// the merge pass over their survivors.
func physDistinctHash(ms *morsels, v *bat.View, vecs []bat.Vec) (physOut, error) {
	base := v.Base()
	ranges := ms.split(v.Rows())
	if len(ranges) == 1 {
		sel, kernel := distinctIndices(vecs, v.Rows(), v.Sel(), 0)
		out := base.Gather(sel)
		return physOut{view: bat.ViewOf(out), kernel: kernel, mat: out.Rows()}, nil
	}
	parts := make([][]int32, len(ranges))
	kernels := make([]string, len(ranges))
	vsel := v.Sel()
	if err := ms.run(len(ranges), func(m int) error {
		r := ranges[m]
		if vsel != nil {
			parts[m], kernels[m] = distinctIndices(vecs, r.Len(), vsel[r.Lo:r.Hi], 0)
		} else {
			parts[m], kernels[m] = distinctIndices(vecs, r.Len(), nil, r.Lo)
		}
		return nil
	}); err != nil {
		return physOut{}, err
	}
	merged := concatSel(parts)
	sel, _ := distinctIndices(vecs, len(merged), merged, 0)
	out := base.Gather(sel)
	return physOut{view: bat.ViewOf(out), kernel: kernels[0], mat: out.Rows()}, nil
}

// physJoin dispatches ⋈/⋉ to the statically chosen kernel. A merge node
// whose runtime key columns turn out not to be typed int vectors (or not
// actually sorted) demotes to the hash kernel — correctness never
// depends on the static property being right.
func physJoin(ctx context.Context, ms *morsels, nd *physical.Node, l, r *bat.View, mode joinMode) (physOut, error) {
	o := nd.Op
	if nd.Merge {
		out, ok, err := physMergeJoin(ctx, o, l, r, mode)
		if err != nil {
			return physOut{}, err
		}
		if ok {
			return out, nil
		}
		out, err = physHashJoin(ctx, ms, o, l, r, mode)
		if err != nil {
			return physOut{}, err
		}
		out.kernel += " (demoted)"
		return out, nil
	}
	return physHashJoin(ctx, ms, o, l, r, mode)
}

// intKeysOf extracts a view's int key column in view order; identity
// views return the base vector without copying.
func intKeysOf(v bat.IntVec, view *bat.View) []int64 {
	if view.Sel() == nil {
		return v
	}
	out := make([]int64, view.Rows())
	for i := range out {
		out[i] = v[view.Index(i)]
	}
	return out
}

// denseRun reports whether the view's int key column reads first,
// first+1, first+2, … in view order — a dense ascending run, the shape
// of every mark / ϱ column the loop-lifted plans join back on.
func denseRun(k bat.IntVec, view *bat.View) (first int64, ok bool) {
	n := view.Rows()
	if n == 0 {
		return 0, false
	}
	first = k[view.Index(0)]
	if first > math.MaxInt64-int64(n-1) {
		return 0, false
	}
	for i := 1; i < n; i++ {
		if k[view.Index(i)] != first+int64(i) {
			return 0, false
		}
	}
	return first, true
}

func ascending(k []int64) bool {
	for i := 1; i < len(k); i++ {
		if k[i] < k[i-1] {
			return false
		}
	}
	return true
}

// physMergeJoin joins two inputs sorted on a single typed int key by
// merging: no hash table, no build side. Output order — left rows in
// order, each paired with its right matches in right order — is
// identical to the hash kernel's, so the two are interchangeable
// byte-for-byte. Returns ok=false (demote to hash) when the key columns
// are not typed int vectors or the static sortedness promise does not
// hold at runtime.
func physMergeJoin(ctx context.Context, o *algebra.Op, l, r *bat.View, mode joinMode) (physOut, bool, error) {
	lb, rb := l.Base(), r.Base()
	lv, err := lb.Col(o.KeyL[0])
	if err != nil {
		return physOut{}, false, err
	}
	rv, err := rb.Col(o.KeyR[0])
	if err != nil {
		return physOut{}, false, err
	}
	lInts, lok := lv.(bat.IntVec)
	rInts, rok := rv.(bat.IntVec)
	if !lok || !rok {
		return physOut{}, false, nil
	}
	lk := intKeysOf(lInts, l)
	rk := intKeysOf(rInts, r)
	if !ascending(lk) || !ascending(rk) {
		return physOut{}, false, nil
	}
	nl, nr := len(lk), len(rk)
	if mode == joinSemi {
		sel := make([]int32, 0, nl)
		i, j := 0, 0
		for i < nl && j < nr {
			switch {
			case lk[i] < rk[j]:
				i++
			case lk[i] > rk[j]:
				j++
			default:
				sel = append(sel, int32(l.Index(i)))
				i++
			}
		}
		return physOut{view: bat.NewView(lb, sel), kernel: "merge-semijoin[int]"}, true, nil
	}
	var lIdx, rIdx []int32
	i, j := 0, 0
	produced := 0
	for i < nl && j < nr {
		switch {
		case lk[i] < rk[j]:
			i++
		case lk[i] > rk[j]:
			j++
		default:
			j2 := j + 1
			for j2 < nr && rk[j2] == rk[j] {
				j2++
			}
			i2 := i + 1
			for i2 < nl && lk[i2] == lk[i] {
				i2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					if produced%cancelStride == 0 {
						if err := ctx.Err(); err != nil {
							return physOut{}, false, err
						}
					}
					produced++
					lIdx = append(lIdx, int32(l.Index(a)))
					rIdx = append(rIdx, int32(r.Index(b)))
				}
			}
			i, j = i2, j2
		}
	}
	out, err := joinGather(lb, rb, lIdx, rIdx)
	if err != nil {
		return physOut{}, false, err
	}
	return physOut{view: bat.ViewOf(out), kernel: "merge-join[int]", mat: len(lIdx)}, true, nil
}

// physHashJoin is the hash ⋈/⋉ kernel over views: the right side's
// selected rows build the hash table (absolute base indices as payload),
// the left side probes in view order. Typed int keys skip Item boxing
// entirely — and skip the table too when the right keys are a dense run
// (denseJoin); other keys fall back to the generic encoded-key path. Both
// the build and the probe are morsel-parallel — the build through
// per-morsel partial tables whose per-key match lists merge in morsel
// (= input) order, the probe through per-morsel index buffers stitched
// in input order — so output rows appear exactly as in the sequential
// scan.
func physHashJoin(ctx context.Context, ms *morsels, o *algebra.Op, l, r *bat.View, mode joinMode) (physOut, error) {
	lb, rb := l.Base(), r.Base()
	keyL, keyR := o.KeyL, o.KeyR
	if len(keyL) == 1 {
		lv, err := lb.Col(keyL[0])
		if err != nil {
			return physOut{}, err
		}
		rv, err := rb.Col(keyR[0])
		if err != nil {
			return physOut{}, err
		}
		if lk, ok := lv.(bat.IntVec); ok {
			if rk, ok := rv.(bat.IntVec); ok {
				if first, ok := denseRun(rk, r); ok {
					return denseJoin(ctx, ms, o, l, r, mode, lk, first)
				}
				return intHashJoin(ctx, ms, o, l, r, mode, lk, rk)
			}
		}
	}
	rVecs, err := colVecs(rb, keyR)
	if err != nil {
		return physOut{}, err
	}
	lVecs, err := colVecs(lb, keyL)
	if err != nil {
		return physOut{}, err
	}
	ht, err := buildKeyHash(ms, r, rVecs)
	if err != nil {
		return physOut{}, err
	}
	return probeHashJoin(ctx, ms, o, l, r, mode, "[item]", func() func(int) []int32 {
		var buf []byte // per-probe-morsel scratch: rowKey buffers must not be shared
		return func(i int) []int32 {
			buf = rowKey(buf[:0], lVecs, i)
			return ht[string(buf)]
		}
	})
}

// intHashJoin joins on one typed int key through a map[int64] of the
// right side's rows.
func intHashJoin(ctx context.Context, ms *morsels, o *algebra.Op, l, r *bat.View, mode joinMode, lk, rk bat.IntVec) (physOut, error) {
	ht, err := buildIntHash(ms, r, rk)
	if err != nil {
		return physOut{}, err
	}
	return probeHashJoin(ctx, ms, o, l, r, mode, "[int]", func() func(int) []int32 {
		return func(i int) []int32 { return ht[lk[i]] }
	})
}

// denseJoin is the paper's positional join on a void column: the right
// keys read first, first+1, … in view order (denseRun), so a probe is a
// subtraction and no table is built. Keys match by native int64 equality
// and rows come out left-major, exactly as from intHashJoin.
func denseJoin(ctx context.Context, ms *morsels, o *algebra.Op, l, r *bat.View, mode joinMode, lk bat.IntVec, first int64) (physOut, error) {
	rows := r.Sel()
	if rows == nil {
		rows = allRows(r.Rows())
	}
	out, err := probeHashJoin(ctx, ms, o, l, r, mode, "[int:dense]", func() func(int) []int32 {
		return func(i int) []int32 {
			// Exact modulo 2^64: only a key of the run lands below len(rows).
			if j := uint64(lk[i]) - uint64(first); j < uint64(len(rows)) {
				return rows[j : j+1]
			}
			return nil
		}
	})
	out.fast = true
	return out, err
}

// buildIntHash builds the int-keyed right-side table, morsel-parallel:
// partial tables merge in morsel order, so every per-key match list is
// in right-input order — the order the sequential build produces.
func buildIntHash(ms *morsels, r *bat.View, rk bat.IntVec) (map[int64][]int32, error) {
	ranges := ms.split(r.Rows())
	if len(ranges) == 1 {
		ht := make(map[int64][]int32, r.Rows())
		for j, n := 0, r.Rows(); j < n; j++ {
			bj := int32(r.Index(j))
			ht[rk[bj]] = append(ht[rk[bj]], bj)
		}
		return ht, nil
	}
	parts := make([]map[int64][]int32, len(ranges))
	if err := ms.run(len(ranges), func(m int) error {
		rg := ranges[m]
		ht := make(map[int64][]int32, rg.Len())
		for j := rg.Lo; j < rg.Hi; j++ {
			bj := int32(r.Index(j))
			ht[rk[bj]] = append(ht[rk[bj]], bj)
		}
		parts[m] = ht
		return nil
	}); err != nil {
		return nil, err
	}
	ht := parts[0]
	for _, p := range parts[1:] {
		for k, v := range p {
			ht[k] = append(ht[k], v...)
		}
	}
	return ht, nil
}

// buildKeyHash is buildIntHash for encoded (polymorphic) keys.
func buildKeyHash(ms *morsels, r *bat.View, rVecs []bat.Vec) (map[string][]int32, error) {
	ranges := ms.split(r.Rows())
	if len(ranges) == 1 {
		ht := make(map[string][]int32, r.Rows())
		var buf []byte
		for j, n := 0, r.Rows(); j < n; j++ {
			bj := r.Index(j)
			buf = rowKey(buf[:0], rVecs, bj)
			ht[string(buf)] = append(ht[string(buf)], int32(bj))
		}
		return ht, nil
	}
	parts := make([]map[string][]int32, len(ranges))
	if err := ms.run(len(ranges), func(m int) error {
		rg := ranges[m]
		ht := make(map[string][]int32, rg.Len())
		var buf []byte
		for j := rg.Lo; j < rg.Hi; j++ {
			bj := r.Index(j)
			buf = rowKey(buf[:0], rVecs, bj)
			ht[string(buf)] = append(ht[string(buf)], int32(bj))
		}
		parts[m] = ht
		return nil
	}); err != nil {
		return nil, err
	}
	ht := parts[0]
	for _, p := range parts[1:] {
		for k, v := range p {
			ht[k] = append(ht[k], v...)
		}
	}
	return ht, nil
}

// probeHashJoin streams the left view through a right-side hash table.
// newMatch builds one matcher per morsel — matchers may keep private
// scratch (the encoded-key buffer) but must treat the table as
// read-only. Per-morsel index buffers concatenate in morsel order.
func probeHashJoin(ctx context.Context, ms *morsels, o *algebra.Op, l, r *bat.View, mode joinMode,
	tag string, newMatch func() func(baseRow int) []int32) (physOut, error) {
	lb, rb := l.Base(), r.Base()
	semi := mode == joinSemi
	ranges := ms.split(l.Rows())
	lParts := make([][]int32, len(ranges))
	rParts := make([][]int32, len(ranges))
	if err := ms.run(len(ranges), func(m int) error {
		rg := ranges[m]
		matches := newMatch()
		// One slot per probe row: exact for ⋉ and for the n:1 joins back
		// to a loop's bindings, a starting size for the rest.
		lIdx := make([]int32, 0, rg.Len())
		var rIdx []int32
		if !semi {
			rIdx = make([]int32, 0, rg.Len())
		}
		for i := rg.Lo; i < rg.Hi; i++ {
			if (i-rg.Lo)%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			bi := l.Index(i)
			mts := matches(bi)
			if semi {
				if len(mts) > 0 {
					lIdx = append(lIdx, int32(bi))
				}
				continue
			}
			for _, bj := range mts {
				lIdx = append(lIdx, int32(bi))
				rIdx = append(rIdx, bj)
			}
		}
		lParts[m], rParts[m] = lIdx, rIdx
		return nil
	}); err != nil {
		return physOut{}, err
	}
	lIdx := concatSel(lParts)
	if semi {
		return physOut{view: bat.NewView(lb, lIdx), kernel: "hash-semijoin" + tag}, nil
	}
	rIdx := concatSel(rParts)
	out, err := joinGather(lb, rb, lIdx, rIdx)
	if err != nil {
		return physOut{}, err
	}
	return physOut{view: bat.ViewOf(out), kernel: "hash-join" + tag, mat: len(lIdx)}, nil
}

// joinGather materializes a full join result from base tables and
// absolute row-index pairs.
func joinGather(lb, rb *bat.Table, lIdx, rIdx []int32) (*bat.Table, error) {
	out := gatherRows(lb, lIdx)
	rg := gatherRows(rb, rIdx)
	for _, name := range rb.Cols() {
		if err := out.AddCol(name, rg.MustCol(name)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// gatherRows is t.Gather(idx), except that an idx naming every row of t
// in order — each row of that join side matched exactly once, the n:1
// joins back to the loop's bindings — shares t's columns instead of
// copying them.
func gatherRows(t *bat.Table, idx []int32) *bat.Table {
	if len(idx) != t.Rows() {
		return t.Gather(idx)
	}
	for i, r := range idx {
		if int(r) != i {
			return t.Gather(idx)
		}
	}
	return t.Slice(0, t.Rows())
}

// physCrossBroadcast handles the × whose one side is a single row — the
// shape loop-lifting produces whenever a literal or an aggregate joins a
// loop relation. The many-row side's columns are shared (no gather);
// only the single row is broadcast, reproducing the exact column types
// and order of the generic nested-product. ok=false means neither side
// is a singleton and the generic kernel must run.
func physCrossBroadcast(lt, rt *bat.Table) (*bat.Table, bool, error) {
	var one, many *bat.Table
	oneLeft := false
	switch {
	case lt.Rows() == 1:
		one, many, oneLeft = lt, rt, true
	case rt.Rows() == 1:
		one, many = rt, lt
	default:
		return nil, false, nil
	}
	n := many.Rows()
	idx := make([]int32, n) // all zero: repeat the single row n times
	out := &bat.Table{}
	addShared := func(t *bat.Table) error {
		for _, name := range t.Cols() {
			if err := out.AddCol(name, t.MustCol(name)); err != nil {
				return err
			}
		}
		return nil
	}
	addBroadcast := func(t *bat.Table) error {
		for _, name := range t.Cols() {
			if err := out.AddCol(name, t.MustCol(name).Gather(idx)); err != nil {
				return err
			}
		}
		return nil
	}
	if oneLeft {
		if err := addBroadcast(one); err != nil {
			return nil, false, err
		}
		if err := addShared(many); err != nil {
			return nil, false, err
		}
	} else {
		if err := addShared(many); err != nil {
			return nil, false, err
		}
		if err := addBroadcast(one); err != nil {
			return nil, false, err
		}
	}
	return out, true, nil
}

// physRowNum is ϱ with the statically chosen numbering strategy: const-1
// for dense partitions, straight numbering for presorted inputs, and the
// sort kernel (which still detects already-sorted inputs at runtime)
// otherwise.
func physRowNum(nd *physical.Node, v *bat.View) (physOut, error) {
	o := nd.Op
	t, m := matCount(v)
	n := t.Rows()
	if nd.Const1 {
		out := t.Slice(0, n)
		if err := out.AddCol(o.Col, bat.ConstInt(1, n)); err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel, mat: m}, nil
	}
	if nd.Presorted {
		out := t.Slice(0, n)
		if err := physRowNumAttach(out, o.Col, o.Part); err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel, mat: m}, nil
	}
	out, kernel, err := physRowNumSort(t, o.Order, o.Part)
	if err != nil {
		return physOut{}, err
	}
	if err := physRowNumAttach(out, o.Col, o.Part); err != nil {
		return physOut{}, err
	}
	if kernel != "rownum[scan-sorted]" {
		m += n // the sort gathered every row
	}
	return physOut{view: bat.ViewOf(out), kernel: kernel, mat: m, fast: kernel != nd.Kernel}, nil
}
