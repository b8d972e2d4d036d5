package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
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
// The lowering pass names each node's kernel family; where a family has
// several kernels (merge or hash ⋈, the ϱ numbering paths, δ and aggr's
// sorted-run paths) the kernel picks one per execution by looking at its
// key columns, and the evaluation trace reports the one that ran.

// physOut is one kernel's result: the output view, the kernel that
// actually ran, and how many rows it had to materialize (gathered or
// copied — scanned-in-place rows are not counted).
type physOut struct {
	view bat.View
	// pass is set when the output is the kernel's input view handed on
	// unchanged (view is then a copy of it): the node's result is that
	// view itself, so its consumers share one materialization.
	pass   *bat.View
	kernel string
	// tag qualifies kernel with the path the kernel took (":bcast",
	// ":int", …); the two are joined only when a trace reports the
	// kernel, so an untraced kernel builds no name.
	tag string
	mat int
	// fast marks a δ or aggr kernel that took its sorted-run path after
	// seeing the input's order.
	fast bool
}

// name is the kernel that ran, as the trace reports it.
func (o *physOut) name() string { return o.kernel + o.tag }

// execPlan executes the plan's nodes in topological order on the
// calling goroutine. Every node owns the slot of its plan position in
// slots, where its kernel's view lands; results points each node at its
// output — its own slot, or the input view a kernel handed on unchanged.
// The context is polled before every node and, inside the long-running
// kernels, every cancelStride rows; the first error ends the run.
func (e *Engine) execPlan(ctx context.Context, plan *physical.Plan, tr *Trace) (*bat.Table, error) {
	slots := make([]bat.View, len(plan.Nodes))
	results := make([]*bat.View, len(plan.Nodes))
	if tr != nil {
		defer fillTraceTables(tr, plan, results)
	}
	var buf [4]*bat.View
	for _, nd := range plan.Nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		in := buf[:0]
		for _, c := range nd.In {
			in = append(in, results[c.Pos])
		}
		if e.onApply != nil {
			e.onApply(nd.Op)
		}
		out, st, err := e.runNode(ctx, nd, in, &slots[nd.Pos], tr)
		if st.Kernel != "" { // traced, and the kernel got as far as naming itself
			tr.Stats[nd.Op] = st
		}
		if err != nil {
			return nil, err
		}
		results[nd.Pos] = out
	}
	return results[plan.Root.Pos].Materialize(), nil
}

// runNode runs one node's kernel over its input views, stores its view
// in slot, asserts the output's invariants under Check, and returns the
// output — slot, or the input view the kernel handed on — with, when the
// evaluation is traced, the node's stat: also when the kernel fails
// after naming the path it took, so that a theta join's demotion stays
// on record when the operators it then ran raise an error. Only a traced
// evaluation reads the clock.
// Errors return wrapped with the operator's kind; a kernel that panics
// fails with a *KernelPanic naming the operator and the kernel.
func (e *Engine) runNode(ctx context.Context, nd *physical.Node, in []*bat.View, slot *bat.View, tr *Trace) (_ *bat.View, _ OpStat, err error) {
	defer recoverKernel(&err, nd.Op.Kind, nd.Kernel)
	var start time.Time
	if tr != nil {
		start = time.Now() //pfvet:allow determinism -- trace wall-time only, not query results
	}
	if e.panicHook != nil {
		e.panicHook()
	}
	out, err := e.execKernel(ctx, nd, in)
	if err != nil {
		if _, named := err.(*memberError); !named {
			err = fmt.Errorf("%s: %w", nd.Op.Kind, err)
		}
		var st OpStat
		if tr != nil {
			st = OpStat{RowsIn: viewRowsIn(in), Kernel: out.name()}
		}
		return nil, st, err
	}
	view := out.pass
	if view == nil {
		*slot = out.view
		view = slot
	}
	if e.Check {
		if err := checkNodeOutput(nd, e.checkProps[nd.Pos], view); err != nil {
			return nil, OpStat{}, fmt.Errorf("%s: %w", nd.Op.Kind, err)
		}
	}
	if tr == nil {
		return view, OpStat{}, nil
	}
	st := OpStat{
		//pfvet:allow determinism -- trace wall-time only, not query results
		Wall: time.Since(start), RowsIn: viewRowsIn(in),
		RowsOut: view.Rows(), Kernel: out.name(), RowsMat: out.mat,
	}
	if out.fast {
		st.Static = nd.Kernel
	}
	if nd.Op.Kind == algebra.OpElem {
		st.Sink = "fragment"
		if nd.Stream {
			st.Sink = "stream"
		}
	}
	return view, st, nil
}

// KernelPanic is the evaluation error of a kernel that panicked: the
// query fails, the process and every other query go on. Op and Kernel
// name where it happened (Kernel is the node's static kernel); Value is
// what the kernel panicked with.
type KernelPanic struct {
	Op     algebra.OpKind
	Kernel string
	Value  any
}

func (p *KernelPanic) Error() string {
	return fmt.Sprintf("%s [%s]: kernel panic: %v", p.Op, p.Kernel, p.Value)
}

// recoverKernel, deferred by a kernel's host, turns a panic into *err.
func recoverKernel(err *error, op algebra.OpKind, kernel string) {
	if r := recover(); r != nil {
		*err = &KernelPanic{Op: op, Kernel: kernel, Value: r}
	}
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
func fillTraceTables(tr *Trace, plan *physical.Plan, results []*bat.View) {
	for _, nd := range plan.Nodes {
		if v := results[nd.Pos]; v != nil {
			tr.Tables[nd.Op] = v.Materialize()
		}
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

// execKernel dispatches to the node's kernel: a theta join's, or its
// operator's.
func (e *Engine) execKernel(ctx context.Context, nd *physical.Node, in []*bat.View) (physOut, error) {
	if nd.Theta != nil {
		return e.physThetaJoin(ctx, nd.Theta, in[0], in[1])
	}
	o := nd.Op
	switch o.Kind {
	case algebra.OpLit:
		// core builds literal item columns as ItemVecs and the optimizer
		// reads them so; execution holds each in its kind's vector.
		return physOut{view: bat.ViewOf(o.Lit.Typed()), kernel: nd.Kernel}, nil
	case algebra.OpProject:
		v, err := in[0].Project(o.Proj...)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: v, kernel: nd.Kernel}, nil
	case algebra.OpSelect:
		return physFilter(ctx, in[0], o.Col)
	case algebra.OpUnion:
		return physConcat(in[0], in[1])
	case algebra.OpDiff:
		return physAntiJoin(ctx, in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpDistinct:
		return physDistinct(ctx, in[0])
	case algebra.OpJoin:
		return physJoin(ctx, o, in[0], in[1], joinFull)
	case algebra.OpSemiJoin:
		return physJoin(ctx, o, in[0], in[1], joinSemi)
	case algebra.OpCross:
		lt, lm := matCount(in[0])
		rt, rm := matCount(in[1])
		if t, ok, err := physCrossBroadcast(lt, rt); err != nil {
			return physOut{}, err
		} else if ok {
			return physOut{view: bat.ViewOf(t), kernel: nd.Kernel, tag: ":bcast", mat: lm + rm + t.Rows()}, nil
		}
		t, err := evalCross(ctx, lt, rt)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(t), kernel: nd.Kernel, mat: lm + rm + t.Rows()}, nil
	case algebra.OpRowNum:
		return physRowNum(o, in[0])
	case algebra.OpRowID:
		t, m := matCount(in[0])
		out, err := t.With(o.Col, bat.Ramp(1, t.Rows()))
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel, mat: m}, nil
	case algebra.OpFun:
		return e.physFun(ctx, nd, in[0])
	case algebra.OpAggr:
		t, m := matCount(in[0])
		out, tag, err := physAggr(ctx, t, o.Col, o.Agg, o.Args, o.Part, o.Sep)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel, tag: tag, mat: m, fast: tag == ":int:runs"}, nil
	case algebra.OpStep:
		t, m := matCount(in[0])
		out, err := e.evalStep(ctx, t, o.Axis, o.Test)
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
		tabs := make([]*bat.Table, len(in))
		mat := 0
		for i, v := range in {
			var m int
			tabs[i], m = matCount(v)
			mat += m
		}
		out, err := e.evalElem(tabs[0], o.Skel, tabs[1:], nd.Stream)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(out), kernel: nd.Kernel, mat: mat}, nil
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
// each row's kind and name the first non-boolean one.
func physFilter(ctx context.Context, v *bat.View, col string) (physOut, error) {
	c, err := v.Base().Col(col)
	if err != nil {
		return physOut{}, err
	}
	n := v.Rows()
	out := make([]int32, 0, n)
	if bv, ok := c.(bat.BoolVec); ok {
		for row := 0; row < n; row++ {
			if err := polled(ctx, row); err != nil {
				return physOut{}, err
			}
			if i := v.Index(row); bv[i] {
				out = append(out, int32(i))
			}
		}
		return physOut{view: bat.NewView(v.Base(), out), kernel: "filter[bool]"}, nil
	}
	for row := 0; row < n; row++ {
		if err := polled(ctx, row); err != nil {
			return physOut{}, err
		}
		i := v.Index(row)
		it := c.ItemAt(i)
		if it.Kind != bat.KBool {
			return physOut{}, fmt.Errorf("σ over non-boolean column %q (row %d is %s)", col, row, it.Kind)
		}
		if it.B {
			out = append(out, int32(i))
		}
	}
	return physOut{view: bat.NewView(v.Base(), out), kernel: "filter[item]"}, nil
}

// physConcat is ∪̇: a breaker that appends both inputs' selected rows
// column by column, reading through the views without materializing the
// inputs first. A column keeps its inputs' vector type when they agree or
// when one side is empty (the empty literal ItemVec{} is the empty
// sequence, of no kind); otherwise bat.NewItems keeps the rows' kind
// when they share one and boxes them when they mix.
func physConcat(l, r *bat.View) (physOut, error) {
	lb, rb := l.Base(), r.Base()
	nl, nr := l.Rows(), r.Rows()
	out := bat.NewTableCap(lb.NumCols())
	for c := 0; c < lb.NumCols(); c++ {
		name, lv := lb.ColName(c), lb.ColVec(c)
		rv, err := rb.Col(name)
		if err != nil {
			return physOut{}, err
		}
		var b bat.Builder
		switch {
		case lv.Type() == rv.Type() || nr == 0:
			b = lv.New(nl + nr)
		case nl == 0:
			b = rv.New(nr)
		default:
			b = bat.NewItems(nl + nr)
		}
		for i := 0; i < nl; i++ {
			b.AppendFrom(lv, l.Index(i))
		}
		for i := 0; i < nr; i++ {
			b.AppendFrom(rv, r.Index(i))
		}
		if err := out.AddCol(name, b.Build()); err != nil {
			return physOut{}, err
		}
	}
	return physOut{view: bat.ViewOf(out), kernel: "concat", mat: nl + nr}, nil
}

// physAntiJoin is \ as a selection kernel over the left view: rows whose
// key has no match in the right side survive. Only the right-side key
// set is built; neither input materializes.
func physAntiJoin(ctx context.Context, l, r *bat.View, keyL, keyR []string) (physOut, error) {
	lb, rb := l.Base(), r.Base()
	sel := make([]int32, 0, l.Rows())
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
				for i, n := 0, l.Rows(); i < n; i++ {
					if err := polled(ctx, i); err != nil {
						return physOut{}, err
					}
					bi := l.Index(i)
					if _, hit := set[lk[bi]]; !hit {
						sel = append(sel, int32(bi))
					}
				}
				return physOut{view: bat.NewView(lb, sel), kernel: "antijoin[int]"}, nil
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
	for i, n := 0, l.Rows(); i < n; i++ {
		if err := polled(ctx, i); err != nil {
			return physOut{}, err
		}
		bi := l.Index(i)
		buf = rowKey(buf[:0], lv, bi)
		if _, ok := set[string(buf)]; !ok {
			sel = append(sel, int32(bi))
		}
	}
	return physOut{view: bat.NewView(lb, sel), kernel: "antijoin[hash]"}, nil
}

// physDistinct is δ: first occurrence of each distinct row survives, in
// input order. The input is read through the view; the (deduplicated)
// output materializes — δ is a pipeline breaker.
//
// Int keys that arrive lexicographically sorted never reach a hash table
// (sortedDistinct, one scan tried first); a strictly sorted input is
// returned as it came, without a gather.
func physDistinct(ctx context.Context, v *bat.View) (physOut, error) {
	base := v.Base()
	vecs := make([]bat.Vec, base.NumCols())
	for c := range vecs {
		vecs[c] = base.ColVec(c)
	}
	if ints := allIntVecs(vecs); ints != nil {
		if sel, strict, ok := sortedDistinct(ints, v.Rows(), v.Sel()); ok {
			if strict {
				return physOut{view: *v, pass: v, kernel: "distinct[sorted]", fast: true}, nil
			}
			out := base.Gather(sel)
			return physOut{view: bat.ViewOf(out), kernel: "distinct[sorted]", mat: out.Rows(), fast: true}, nil
		}
	}
	sel, kernel, err := distinctIndices(ctx, vecs, v.Rows(), v.Sel())
	if err != nil {
		return physOut{}, err
	}
	out := base.Gather(sel)
	return physOut{view: bat.ViewOf(out), kernel: kernel, mat: out.Rows()}, nil
}

// physJoin is ⋈/⋉. A single key whose two columns are typed int
// vectors that ascend in view order merges (physMergeJoin); any other
// key hashes (physHashJoin). One scan per side decides, and stops at the
// first descent.
func physJoin(ctx context.Context, o *algebra.Op, l, r *bat.View, mode joinMode) (physOut, error) {
	if len(o.KeyL) == 1 {
		lv, err := l.Base().Col(o.KeyL[0])
		if err != nil {
			return physOut{}, err
		}
		rv, err := r.Base().Col(o.KeyR[0])
		if err != nil {
			return physOut{}, err
		}
		lk, lok := lv.(bat.IntVec)
		rk, rok := rv.(bat.IntVec)
		if lok && rok && ascendingIn(lk, l) && ascendingIn(rk, r) {
			return physMergeJoin(ctx, l, r, lk, rk, mode)
		}
	}
	return physHashJoin(ctx, o, l, r, mode)
}

// ascendingIn reports whether the view's int key column never descends
// in view order; it reads through the selection and copies nothing.
func ascendingIn(k bat.IntVec, view *bat.View) bool {
	if sel := view.Sel(); sel != nil {
		for i := 1; i < len(sel); i++ {
			if k[sel[i]] < k[sel[i-1]] {
				return false
			}
		}
		return true
	}
	return ascending(k)
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

// physMergeJoin joins two views whose int key columns lk and rk ascend
// in view order by merging: no hash table, no build side. Output order —
// left rows in order, each paired with its right matches in right order
// — is identical to the hash kernel's, so the two are interchangeable
// row for row.
func physMergeJoin(ctx context.Context, l, r *bat.View, lk, rk bat.IntVec, mode joinMode) (physOut, error) {
	lb, rb := l.Base(), r.Base()
	nl, nr := l.Rows(), r.Rows()
	// One slot per left row, as the hash kernel's probe side sizes it.
	lIdx := make([]int32, 0, nl)
	i, j := 0, 0
	if mode == joinSemi {
		for i < nl && j < nr {
			li, rj := l.Index(i), r.Index(j)
			switch {
			case lk[li] < rk[rj]:
				i++
			case lk[li] > rk[rj]:
				j++
			default:
				lIdx = append(lIdx, int32(li))
				i++
			}
		}
		return physOut{view: bat.NewView(lb, lIdx), kernel: "merge-semijoin[int]"}, nil
	}
	rIdx := make([]int32, 0, nl)
	produced := 0
	for i < nl && j < nr {
		key := lk[l.Index(i)]
		switch rkey := rk[r.Index(j)]; {
		case key < rkey:
			i++
		case key > rkey:
			j++
		default:
			j2 := j + 1
			for j2 < nr && rk[r.Index(j2)] == key {
				j2++
			}
			i2 := i + 1
			for i2 < nl && lk[l.Index(i2)] == key {
				i2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					if produced%cancelStride == 0 {
						if err := ctx.Err(); err != nil {
							return physOut{}, err
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
		return physOut{}, err
	}
	return physOut{view: bat.ViewOf(out), kernel: "merge-join[int]", mat: len(lIdx)}, nil
}

// physHashJoin is the hash ⋈/⋉ kernel over views: the right side's
// selected rows build the hash table (absolute base indices as payload),
// the left side probes in view order. Typed int keys skip Item boxing
// entirely — and skip the table too when the right keys are a dense run
// (denseJoin); string and untyped keys hash as the strings themselves
// (Item.Key maps both kinds to one string key); other keys fall back to
// the generic encoded-key path. Output rows come left-major: each left
// row in view order with its right matches in right view order.
func physHashJoin(ctx context.Context, o *algebra.Op, l, r *bat.View, mode joinMode) (physOut, error) {
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
					return denseJoin(ctx, o, l, r, mode, lk, first)
				}
				return keyHashJoin(ctx, o, l, r, mode, "[int]", lk, rk)
			}
		}
		if lk, rk, ok := stringLane(lv, rv); ok {
			return keyHashJoin(ctx, o, l, r, mode, "[str]", lk, rk)
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
	var buf []byte
	ht, err := buildHash(ctx, r, func(j int) string {
		buf = rowKey(buf[:0], rVecs, j)
		return string(buf)
	})
	if err != nil {
		return physOut{}, err
	}
	return probeHashJoin(ctx, o, l, r, mode, "[item]", func(i int) []int32 {
		buf = rowKey(buf[:0], lVecs, i)
		return ht[string(buf)]
	})
}

// keyHashJoin joins on one typed key column per side through a map of
// the right side's rows keyed by the native value: int64 for int keys,
// the string itself — the store's pooled string for an atomized node —
// for string and untyped keys.
func keyHashJoin[K comparable](ctx context.Context, o *algebra.Op, l, r *bat.View, mode joinMode, tag string, lk, rk []K) (physOut, error) {
	ht, err := buildHash(ctx, r, func(j int) K { return rk[j] })
	if err != nil {
		return physOut{}, err
	}
	return probeHashJoin(ctx, o, l, r, mode, tag, func(i int) []int32 { return ht[lk[i]] })
}

// denseJoin is the paper's positional join on a void column: the right
// keys read first, first+1, … in view order (denseRun), so a probe is a
// subtraction and no table is built. Keys match by native int64 equality
// and rows come out left-major, exactly as from keyHashJoin.
func denseJoin(ctx context.Context, o *algebra.Op, l, r *bat.View, mode joinMode, lk bat.IntVec, first int64) (physOut, error) {
	rows := r.Sel()
	if rows == nil {
		rows = allRows(r.Rows())
	}
	return probeHashJoin(ctx, o, l, r, mode, "[int:dense]", func(i int) []int32 {
		// Exact modulo 2^64: only a key of the run lands below len(rows).
		if j := uint64(lk[i]) - uint64(first); j < uint64(len(rows)) {
			return rows[j : j+1]
		}
		return nil
	})
}

// buildHash builds the right-side table of a hash join: keyOf gives a
// base row's key, and every per-key match list is in right-input order.
func buildHash[K comparable](ctx context.Context, r *bat.View, keyOf func(baseRow int) K) (map[K][]int32, error) {
	n := r.Rows()
	ht := make(map[K][]int32, n)
	for j := 0; j < n; j++ {
		if err := polled(ctx, j); err != nil {
			return nil, err
		}
		bj := r.Index(j)
		k := keyOf(bj)
		ht[k] = append(ht[k], int32(bj))
	}
	return ht, nil
}

// probeHashJoin streams the left view through a right-side hash table:
// matches gives a left base row's right base rows.
func probeHashJoin(ctx context.Context, o *algebra.Op, l, r *bat.View, mode joinMode,
	tag string, matches func(baseRow int) []int32) (physOut, error) {
	lb, rb := l.Base(), r.Base()
	semi := mode == joinSemi
	n := l.Rows()
	// One slot per probe row: exact for ⋉ and for the n:1 joins back to a
	// loop's bindings, a starting size for the rest.
	lIdx := make([]int32, 0, n)
	var rIdx []int32
	if !semi {
		rIdx = make([]int32, 0, n)
	}
	for i := 0; i < n; i++ {
		if err := polled(ctx, i); err != nil {
			return physOut{}, err
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
	if semi {
		return physOut{view: bat.NewView(lb, lIdx), kernel: "hash-semijoin", tag: tag}, nil
	}
	out, err := joinGather(lb, rb, lIdx, rIdx)
	if err != nil {
		return physOut{}, err
	}
	return physOut{view: bat.ViewOf(out), kernel: "hash-join", tag: tag, mat: len(lIdx)}, nil
}

// joinGather materializes a full join result from base tables and
// absolute row-index pairs: the left side's columns, then the right
// side's, each gathered by its side's indices. A side whose indices name
// every one of its rows in order — each row matched exactly once, the
// n:1 joins back to the loop's bindings — shares its vectors instead.
func joinGather(lb, rb *bat.Table, lIdx, rIdx []int32) (*bat.Table, error) {
	out := bat.NewTableCap(lb.NumCols() + rb.NumCols())
	if err := addGathered(out, lb, lIdx, identityRows(lIdx, lb.Rows())); err != nil {
		return nil, err
	}
	if err := addGathered(out, rb, rIdx, identityRows(rIdx, rb.Rows())); err != nil {
		return nil, err
	}
	return out, nil
}

// addGathered appends t's columns to out, gathered by idx, or shared as
// they are when keep is set.
func addGathered(out, t *bat.Table, idx []int32, keep bool) error {
	for c := 0; c < t.NumCols(); c++ {
		v := t.ColVec(c)
		if !keep {
			v = v.Gather(idx)
		}
		if err := out.AddCol(t.ColName(c), v); err != nil {
			return err
		}
	}
	return nil
}

// identityRows reports whether idx names rows 0..n-1 in order.
func identityRows(idx []int32, n int) bool {
	if len(idx) != n {
		return false
	}
	for i, r := range idx {
		if int(r) != i {
			return false
		}
	}
	return true
}

// physCrossBroadcast handles the × whose one side is a single row — the
// shape loop-lifting produces whenever a literal or an aggregate joins a
// loop relation. The many-row side's columns are shared (no gather);
// only the single row is broadcast, reproducing the exact column types
// and order of the generic nested-product. When both sides are one row
// wide nothing is gathered at all. ok=false means neither side is a
// singleton and the generic kernel must run.
func physCrossBroadcast(lt, rt *bat.Table) (*bat.Table, bool, error) {
	var n int
	oneLeft := false
	switch {
	case lt.Rows() == 1:
		n, oneLeft = rt.Rows(), true
	case rt.Rows() == 1:
		n = lt.Rows()
	default:
		return nil, false, nil
	}
	// All zero: repeat the single row n times. A single row repeated once
	// is the row itself.
	var idx []int32
	if n != 1 {
		idx = make([]int32, n)
	}
	out := bat.NewTableCap(lt.NumCols() + rt.NumCols())
	if err := addGathered(out, lt, idx, !oneLeft || n == 1); err != nil {
		return nil, false, err
	}
	if err := addGathered(out, rt, idx, oneLeft || n == 1); err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// physRowNum is ϱ. Int keys within ±exactFloatInt and node keys that
// arrive in (partition, order...) order are numbered in the pass that
// checks the order, and the input's columns are shared
// (rownum[scan-sorted]). At the first row out of order, or for any other
// key, rowNumSort brings the rows into order first — told, when the pass
// saw a row descend, that the rows are not sorted, so it does not look
// again — and the numbering reuses the buffer.
func physRowNum(o *algebra.Op, v *bat.View) (physOut, error) {
	t, m := matCount(v)
	n := t.Rows()
	vecs, descs, err := rowNumKeys(t, o.Order, o.Part)
	if err != nil {
		return physOut{}, err
	}
	nums := make([]int64, n)
	descends := false
	if !slices.Contains(descs, true) {
		var numbered bool
		if numbered, descends = numberSorted(vecs, o.Part != "", nums); numbered {
			out, err := t.With(o.Col, bat.IntVec(nums))
			if err != nil {
				return physOut{}, err
			}
			return physOut{view: bat.ViewOf(out), kernel: "rownum[scan-sorted]", mat: m}, nil
		}
	}
	out, kernel, err := rowNumSort(t, vecs, descs, descends)
	if err != nil {
		return physOut{}, err
	}
	if out, err = physRowNumAttach(out, o.Col, o.Part, nums); err != nil {
		return physOut{}, err
	}
	if kernel != "rownum[scan-sorted]" {
		m += n // the sort gathered every row
	}
	return physOut{view: bat.ViewOf(out), kernel: kernel, mat: m}, nil
}

// numKey is one ϱ key column the numbering pass compares natively: an
// int column, or else a node column in document order.
type numKey struct {
	ints  bat.IntVec
	nodes bat.NodeVec
}

// numberSorted numbers rows that are already in ϱ's ascending order, in
// the pass that checks it: vecs are the key columns, most significant
// first, the partition column among them first when part is set, and
// nums receives the numbers. ok=false when a key is neither an IntVec nor
// a NodeVec, at the first row that descends (descends=true: the rows are
// not in order, as every other path would judge too), and where an int
// outside ±exactFloatInt is compared: totalCmp, which the other paths
// order and partition by, ties neighbouring integers there.
func numberSorted(vecs []bat.Vec, part bool, nums []int64) (ok, descends bool) {
	keys := make([]numKey, len(vecs))
	for k, v := range vecs {
		switch x := v.(type) {
		case bat.IntVec:
			keys[k].ints = x
		case bat.NodeVec:
			keys[k].nodes = x
		default:
			return false, false
		}
	}
	n := int64(1)
	for i := range nums {
		if i > 0 {
			// Rows i-1 and i, key by key until one tells them apart.
			for k := range keys {
				var a, b int64
				if ints := keys[k].ints; ints != nil {
					a, b = ints[i-1], ints[i]
					if a < -exactFloatInt || a > exactFloatInt || b < -exactFloatInt || b > exactFloatInt {
						return false, false
					}
				} else if x, y := keys[k].nodes[i-1], keys[k].nodes[i]; x.Frag != y.Frag {
					a, b = int64(x.Frag), int64(y.Frag)
				} else {
					a, b = int64(x.Pre), int64(y.Pre)
				}
				if a > b {
					return false, true
				}
				if a < b {
					if part && k == 0 {
						n = 1
					}
					break
				}
			}
		}
		nums[i] = n
		n++
	}
	return true, false
}
