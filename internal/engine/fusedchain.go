package engine

import (
	"context"
	"fmt"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/physical"
)

// Fused-chain execution (the X100 loop over our selection-vector
// kernels). A physical.FusedChain is a maximal run of pure per-row
// operators — σ, π, ⊛, mark, const-1 ϱ — that the per-operator executor
// would run one kernel at a time, exchanging a bat.View per link and
// paying a full-column gather whenever the previous link narrowed the
// selection. Here the whole chain compiles into a small program
// (compileChain) that a single loop executes over fixed-size batches of
// fusedBatchRows rows: one selection vector of lane indices is carried
// from the chain's input to its boundary, filters narrow it branch-free,
// maps compute only the surviving lanes into per-slot buffers, and the
// result materializes (at most) once when the chain's output crosses to
// the first non-member consumer.
//
// Fidelity contract: the fused loop must be byte-identical to the
// per-operator path, including error text and error order. Any condition
// the lane kernels cannot reproduce exactly — a polymorphic combination
// with no lane kernel, a runtime error whose diagnostic embeds a row
// number, a NaN comparison, a division by zero — abandons the fused run
// and replays the chain per operator from the retained input view
// (replayChain); every member is pure, so the replay observes the
// identical input and reproduces the per-operator behavior exactly.

// fusedBatchRows is the batch size of the fused loop: small enough that
// a batch's lane buffers stay cache-resident, large enough to amortize
// the per-batch step dispatch.
const fusedBatchRows = 1024

// fusedSrc names where a column's values live during the fused loop:
// a base vector of the chain's input (vec != nil), or a per-batch lane
// buffer written by an earlier step (vec == nil, slot buf).
type fusedSrc struct {
	vec bat.Vec
	buf int
}

type fusedStepKind uint8

const (
	stepProject fusedStepKind = iota // compile-time renaming only
	stepFilter
	stepMap
	stepConst1 // ϱ on the dense fast path: the constant 1
	stepMark   // ϱ́: chain-input position + 1
)

// fusedMapKind selects the monomorphic lane kernel of a ⊛ step. The
// dispatch happens once at compile time; the generic kinds fall back to
// the boxed applyFunItems per lane but still write into a typed output
// buffer matching the unfused kernel's result vector type.
type fusedMapKind uint8

const (
	mapNone fusedMapKind = iota
	mapCmpII
	mapCmpIF
	mapCmpFI
	mapCmpFF
	mapCmpSS
	mapAndBB
	mapOrBB
	mapNotB
	mapBoolWrapB
	mapEbvB
	mapEbvN
	mapEbvI
	mapEbvF
	mapEbvS
	mapArithII
	mapCopyI
	mapCopyF
	mapCopyS
	mapCopyB
	mapGenericBool
	mapGenericStr
	mapGenericItem
)

type fusedStep struct {
	nd   *physical.Node
	kind fusedStepKind
	mk   fusedMapKind
	args []fusedSrc
	out  int // lane-buffer slot this step writes; -1 for filter/project
}

type fusedOutCol struct {
	name string
	src  fusedSrc
}

// fusedProg is one chain compiled against one concrete input view.
type fusedProg struct {
	ch       *physical.FusedChain
	steps    []fusedStep
	bufTypes []bat.ColType
	outCols  []fusedOutCol
	// slotCol maps a lane-buffer slot to the output column it becomes
	// (-1: scratch only). In windowed mode that slot's per-batch buffer
	// is a window straight into the output accumulator.
	slotCol   []int
	hasFilter bool
	// viewMode: the chain input is an identity view, so the boundary can
	// stay a view — shared base vectors plus full-length computed
	// columns, with the chain's filters living on as the output
	// selection vector. Nothing materializes.
	viewMode bool
}

// windowed reports whether map steps write output columns in place
// (directly into the morsel's accumulators): always in view mode, and
// in gather mode when no filter compacts lanes away.
func (p *fusedProg) windowed() bool { return p.viewMode || !p.hasFilter }

// compileChain builds the fused program for one chain over one input
// view, or returns nil when some member needs the per-operator path
// (unknown column, duplicate output column, a vector type outside the
// lane kernels' reach). The caller then replays the chain unfused,
// which reproduces the per-operator behavior — including its errors.
func (e *Engine) compileChain(ch *physical.FusedChain, in *bat.View) *fusedProg {
	base := in.Base()
	env := make(map[string]fusedSrc, len(base.Cols()))
	for _, name := range base.Cols() {
		v := base.MustCol(name)
		switch v.(type) {
		case bat.IntVec, bat.FloatVec, bat.StrVec, bat.BoolVec, bat.NodeVec, bat.ItemVec:
		default:
			return nil // a vector impl the lane readers cannot slice
		}
		env[name] = fusedSrc{vec: v}
	}
	prog := &fusedProg{ch: ch, viewMode: in.Sel() == nil}
	addBuf := func(t bat.ColType) int {
		prog.bufTypes = append(prog.bufTypes, t)
		return len(prog.bufTypes) - 1
	}
	srcType := func(s fusedSrc) bat.ColType {
		if s.vec != nil {
			return s.vec.Type()
		}
		return prog.bufTypes[s.buf]
	}
	for _, nd := range ch.Nodes {
		o := nd.Op
		st := fusedStep{nd: nd, out: -1}
		switch o.Kind {
		case algebra.OpProject:
			next := make(map[string]fusedSrc, len(o.Proj))
			for _, pr := range o.Proj {
				src, ok := env[pr.Old]
				if !ok {
					return nil
				}
				if _, dup := next[pr.New]; dup {
					return nil
				}
				next[pr.New] = src
			}
			env = next
			st.kind = stepProject
		case algebra.OpSelect:
			src, ok := env[o.Col]
			if !ok {
				return nil
			}
			st.kind, st.args = stepFilter, []fusedSrc{src}
			prog.hasFilter = true
		case algebra.OpRowNum: // const-1 fast path only (see physical.fusable)
			if _, dup := env[o.Col]; dup {
				return nil
			}
			st.kind = stepConst1
			st.out = addBuf(bat.TInt)
			env[o.Col] = fusedSrc{buf: st.out}
		case algebra.OpRowID:
			if _, dup := env[o.Col]; dup {
				return nil
			}
			st.kind = stepMark
			st.out = addBuf(bat.TInt)
			env[o.Col] = fusedSrc{buf: st.out}
		case algebra.OpFun:
			if _, dup := env[o.Col]; dup {
				return nil
			}
			args := make([]fusedSrc, len(o.Args))
			at := make([]bat.ColType, len(o.Args))
			for i, name := range o.Args {
				src, ok := env[name]
				if !ok {
					return nil
				}
				args[i] = src
				at[i] = srcType(src)
			}
			mk, outT := pickMapKernel(o, at)
			st.kind, st.mk, st.args = stepMap, mk, args
			st.out = addBuf(outT)
			env[o.Col] = fusedSrc{buf: st.out}
		default:
			return nil
		}
		prog.steps = append(prog.steps, st)
	}
	schema := ch.Tail().Op.Schema()
	prog.outCols = make([]fusedOutCol, len(schema))
	prog.slotCol = make([]int, len(prog.bufTypes))
	for i := range prog.slotCol {
		prog.slotCol[i] = -1
	}
	for i, name := range schema {
		src, ok := env[name]
		if !ok {
			return nil
		}
		prog.outCols[i] = fusedOutCol{name: name, src: src}
		if src.vec == nil {
			if prog.slotCol[src.buf] != -1 {
				return nil // one computed slot feeding two output columns
			}
			prog.slotCol[src.buf] = i
		}
	}
	return prog
}

// pickMapKernel chooses the lane kernel for a ⊛ step from the argument
// column types. The output column type must mirror the unfused
// funKernel/evalFun result vector exactly — downstream kernels (and the
// next fused chain) dispatch on it.
func pickMapKernel(o *algebra.Op, at []bat.ColType) (fusedMapKind, bat.ColType) {
	two := len(at) == 2
	switch o.Fun {
	case algebra.FunEq, algebra.FunNe, algebra.FunLt, algebra.FunLe,
		algebra.FunGt, algebra.FunGe:
		if two {
			switch {
			case at[0] == bat.TInt && at[1] == bat.TInt:
				return mapCmpII, bat.TBool
			case at[0] == bat.TInt && at[1] == bat.TFloat:
				return mapCmpIF, bat.TBool
			case at[0] == bat.TFloat && at[1] == bat.TInt:
				return mapCmpFI, bat.TBool
			case at[0] == bat.TFloat && at[1] == bat.TFloat:
				return mapCmpFF, bat.TBool
			case at[0] == bat.TStr && at[1] == bat.TStr:
				return mapCmpSS, bat.TBool
			}
		}
		return mapGenericBool, bat.TBool
	case algebra.FunAnd:
		if two && at[0] == bat.TBool && at[1] == bat.TBool {
			return mapAndBB, bat.TBool
		}
		return mapGenericBool, bat.TBool
	case algebra.FunOr:
		if two && at[0] == bat.TBool && at[1] == bat.TBool {
			return mapOrBB, bat.TBool
		}
		return mapGenericBool, bat.TBool
	case algebra.FunNot:
		if at[0] == bat.TBool {
			return mapNotB, bat.TBool
		}
		return mapGenericBool, bat.TBool
	case algebra.FunBoolWrap:
		if at[0] == bat.TBool {
			return mapBoolWrapB, bat.TBool
		}
		return mapGenericBool, bat.TBool
	case algebra.FunEbvItem:
		switch at[0] {
		case bat.TBool:
			return mapEbvB, bat.TBool
		case bat.TNode:
			return mapEbvN, bat.TBool
		case bat.TInt:
			return mapEbvI, bat.TBool
		case bat.TFloat:
			return mapEbvF, bat.TBool
		case bat.TStr:
			return mapEbvS, bat.TBool
		}
		return mapGenericBool, bat.TBool
	case algebra.FunContains, algebra.FunStartsWith, algebra.FunDocBefore,
		algebra.FunNodeIs, algebra.FunTypeIs:
		return mapGenericBool, bat.TBool
	case algebra.FunAdd, algebra.FunSub, algebra.FunMul, algebra.FunIDiv,
		algebra.FunMod:
		if two && at[0] == bat.TInt && at[1] == bat.TInt {
			return mapArithII, bat.TInt
		}
		return mapGenericItem, bat.TItem
	case algebra.FunDiv:
		if two && at[0] == bat.TInt && at[1] == bat.TInt {
			return mapArithII, bat.TFloat // xs:integer div is a double
		}
		return mapGenericItem, bat.TItem
	case algebra.FunString:
		if at[0] == bat.TStr {
			return mapCopyS, bat.TStr
		}
		return mapGenericStr, bat.TStr
	case algebra.FunConcat, algebra.FunSubstring, algebra.FunSubstring3,
		algebra.FunNameOf:
		return mapGenericStr, bat.TStr
	case algebra.FunAtomize:
		switch at[0] {
		case bat.TInt:
			return mapCopyI, bat.TInt
		case bat.TFloat:
			return mapCopyF, bat.TFloat
		case bat.TStr:
			return mapCopyS, bat.TStr
		case bat.TBool:
			return mapCopyB, bat.TBool
		}
		return mapGenericItem, bat.TItem
	}
	// FunNeg, FunStringLength, FunNumber, ...: the unfused path is the
	// boxed evalFun default class (ItemVec).
	return mapGenericItem, bat.TItem
}

// typedCol is a typed column accumulator/buffer: exactly one slice is
// non-nil, matching typ. Accumulators allocate their full capacity up
// front with length 0 (the backing array is zeroed once) and grow by
// slicing, so window-mode dead lanes read as zero values without any
// per-batch clearing.
type typedCol struct {
	typ bat.ColType
	i   []int64
	f   []float64
	s   []string
	b   []bool
	nd  []bat.NodeRef
	it  []bat.Item
}

func newTypedCol(t bat.ColType, capacity int) *typedCol {
	c := &typedCol{typ: t}
	switch t {
	case bat.TInt:
		c.i = make([]int64, 0, capacity)
	case bat.TFloat:
		c.f = make([]float64, 0, capacity)
	case bat.TStr:
		c.s = make([]string, 0, capacity)
	case bat.TBool:
		c.b = make([]bool, 0, capacity)
	case bat.TNode:
		c.nd = make([]bat.NodeRef, 0, capacity)
	default:
		c.it = make([]bat.Item, 0, capacity)
	}
	return c
}

// scratchCol is a fixed-length batch buffer.
func scratchCol(t bat.ColType, n int) typedCol {
	c := typedCol{typ: t}
	switch t {
	case bat.TInt:
		c.i = make([]int64, n)
	case bat.TFloat:
		c.f = make([]float64, n)
	case bat.TStr:
		c.s = make([]string, n)
	case bat.TBool:
		c.b = make([]bool, n)
	case bat.TNode:
		c.nd = make([]bat.NodeRef, n)
	default:
		c.it = make([]bat.Item, n)
	}
	return c
}

// grow extends the accumulator by n rows (within its preallocated
// capacity) and returns the window over the new rows.
func (c *typedCol) grow(n int) typedCol {
	w := typedCol{typ: c.typ}
	switch c.typ {
	case bat.TInt:
		off := len(c.i)
		c.i = c.i[:off+n]
		w.i = c.i[off : off+n]
	case bat.TFloat:
		off := len(c.f)
		c.f = c.f[:off+n]
		w.f = c.f[off : off+n]
	case bat.TStr:
		off := len(c.s)
		c.s = c.s[:off+n]
		w.s = c.s[off : off+n]
	case bat.TBool:
		off := len(c.b)
		c.b = c.b[:off+n]
		w.b = c.b[off : off+n]
	case bat.TNode:
		off := len(c.nd)
		c.nd = c.nd[:off+n]
		w.nd = c.nd[off : off+n]
	default:
		off := len(c.it)
		c.it = c.it[:off+n]
		w.it = c.it[off : off+n]
	}
	return w
}

// compactInto appends buf's surviving lanes (sel) to the accumulator.
func compactInto(acc *typedCol, buf typedCol, sel []int32) {
	w := acc.grow(len(sel))
	switch acc.typ {
	case bat.TInt:
		for j, lane := range sel {
			w.i[j] = buf.i[lane]
		}
	case bat.TFloat:
		for j, lane := range sel {
			w.f[j] = buf.f[lane]
		}
	case bat.TStr:
		for j, lane := range sel {
			w.s[j] = buf.s[lane]
		}
	case bat.TBool:
		for j, lane := range sel {
			w.b[j] = buf.b[lane]
		}
	case bat.TNode:
		for j, lane := range sel {
			w.nd[j] = buf.nd[lane]
		}
	default:
		for j, lane := range sel {
			w.it[j] = buf.it[lane]
		}
	}
}

// vec converts an accumulator into the bat vector type downstream
// kernels dispatch on.
func (c *typedCol) vec() bat.Vec {
	switch c.typ {
	case bat.TInt:
		return bat.IntVec(c.i)
	case bat.TFloat:
		return bat.FloatVec(c.f)
	case bat.TStr:
		return bat.StrVec(c.s)
	case bat.TBool:
		return bat.BoolVec(c.b)
	case bat.TNode:
		return bat.NodeVec(c.nd)
	default:
		return bat.ItemVec(c.it)
	}
}

func (c *typedCol) rows() int {
	switch c.typ {
	case bat.TInt:
		return len(c.i)
	case bat.TFloat:
		return len(c.f)
	case bat.TStr:
		return len(c.s)
	case bat.TBool:
		return len(c.b)
	case bat.TNode:
		return len(c.nd)
	default:
		return len(c.it)
	}
}

// concatAccs stitches one output column's per-morsel accumulators in
// morsel order.
func concatAccs(parts []*fusedPart, ci int) bat.Vec {
	if len(parts) == 1 {
		return parts[0].accs[ci].vec()
	}
	total := 0
	for _, p := range parts {
		total += p.accs[ci].rows()
	}
	out := newTypedCol(parts[0].accs[ci].typ, total)
	for _, p := range parts {
		a := p.accs[ci]
		w := out.grow(a.rows())
		switch out.typ {
		case bat.TInt:
			copy(w.i, a.i)
		case bat.TFloat:
			copy(w.f, a.f)
		case bat.TStr:
			copy(w.s, a.s)
		case bat.TBool:
			copy(w.b, a.b)
		case bat.TNode:
			copy(w.nd, a.nd)
		default:
			copy(w.it, a.it)
		}
	}
	return out.vec()
}

// fusedRun is one chain execution over one input view.
type fusedRun struct {
	e    *Engine
	prog *fusedProg
	vsel []int32 // the input view's selection vector (nil: identity)
}

// fusedPart is one morsel's output: surviving base-row indices, the
// per-output-column accumulators, and per-step survivor counts.
type fusedPart struct {
	idx     []int32
	accs    []*typedCol
	stepOut []int64
}

// morsel runs the fused loop over one input-row range.
func (r *fusedRun) morsel(ctx context.Context, rg bat.Range) (*fusedPart, error) {
	prog := r.prog
	n := rg.Len()
	part := &fusedPart{
		stepOut: make([]int64, len(prog.steps)),
		accs:    make([]*typedCol, len(prog.outCols)),
	}
	for ci, oc := range prog.outCols {
		if oc.src.vec == nil {
			part.accs[ci] = newTypedCol(prog.bufTypes[oc.src.buf], n)
		}
	}
	if prog.hasFilter {
		part.idx = make([]int32, 0, n)
	}
	windowed := prog.windowed()
	batch := fusedBatchRows
	if n < batch {
		batch = n
	}
	bufs := make([]typedCol, len(prog.bufTypes))
	for si, t := range prog.bufTypes {
		if windowed && prog.slotCol[si] >= 0 {
			continue // per-batch window into the accumulator
		}
		bufs[si] = scratchCol(t, batch)
	}
	bidxArr := make([]int32, batch)
	selArr := make([]int32, batch)
	idn := make([]int32, batch)
	fusedRamp(idn, 0)
	for lo := rg.Lo; lo < rg.Hi; lo += fusedBatchRows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := lo + fusedBatchRows
		if hi > rg.Hi {
			hi = rg.Hi
		}
		bn := hi - lo
		bidx := bidxArr[:bn]
		if r.vsel == nil {
			fusedRamp(bidx, int32(lo))
		} else {
			copy(bidx, r.vsel[lo:hi])
		}
		sel := selArr[:bn]
		fusedRamp(sel, 0)
		k := bn
		if windowed {
			for si := range prog.bufTypes {
				if ci := prog.slotCol[si]; ci >= 0 {
					bufs[si] = part.accs[ci].grow(bn)
				}
			}
		}
		for si := range prog.steps {
			st := &prog.steps[si]
			switch st.kind {
			case stepProject:
				// renaming happened at compile time
			case stepFilter:
				rd := r.reader(st.args[0], bufs, bidx, idn)
				var err error
				k, err = fusedFilter(&rd, sel[:k])
				if err != nil {
					return nil, err
				}
			case stepConst1:
				fusedConst1(bufs[st.out].i, sel[:k])
			case stepMark:
				fusedMark(bufs[st.out].i, sel[:k], int64(lo)+1)
			case stepMap:
				if err := r.runMap(st, bufs, bidx, idn, sel[:k]); err != nil {
					return nil, err
				}
			}
			part.stepOut[si] += int64(k)
		}
		if prog.hasFilter {
			w := part.idx[len(part.idx) : len(part.idx)+k]
			part.idx = part.idx[:len(part.idx)+k]
			for j := 0; j < k; j++ {
				w[j] = bidx[sel[j]]
			}
			if !windowed {
				for ci, oc := range prog.outCols {
					if part.accs[ci] != nil {
						compactInto(part.accs[ci], bufs[oc.src.buf], sel[:k])
					}
				}
			}
		}
	}
	return part, nil
}

// reader builds the lane reader for one source: base vectors index
// through the batch's base-row array, lane buffers through the identity.
func (r *fusedRun) reader(src fusedSrc, bufs []typedCol, bidx, idn []int32) laneRdr {
	if src.vec == nil {
		c := &bufs[src.buf]
		return laneRdr{typ: c.typ, ix: idn, i: c.i, f: c.f, s: c.s, b: c.b, nd: c.nd, it: c.it}
	}
	rd := laneRdr{typ: src.vec.Type(), ix: bidx}
	switch v := src.vec.(type) {
	case bat.IntVec:
		rd.i = v
	case bat.FloatVec:
		rd.f = v
	case bat.StrVec:
		rd.s = v
	case bat.BoolVec:
		rd.b = v
	case bat.NodeVec:
		rd.nd = v
	case bat.ItemVec:
		rd.it = v
	}
	return rd
}

// runMap executes one ⊛ step over the surviving lanes.
func (r *fusedRun) runMap(st *fusedStep, bufs []typedCol, bidx, idn, sel []int32) error {
	a := r.reader(st.args[0], bufs, bidx, idn)
	var b, c *laneRdr
	if len(st.args) > 1 {
		rb := r.reader(st.args[1], bufs, bidx, idn)
		b = &rb
	}
	if len(st.args) > 2 {
		rc := r.reader(st.args[2], bufs, bidx, idn)
		c = &rc
	}
	out := &bufs[st.out]
	switch st.mk {
	case mapCmpII:
		fusedCmpII(st.nd.Op.Fun, a.i, a.ix, b.i, b.ix, sel, out.b)
		return nil
	case mapCmpIF:
		return fusedCmpIF(st.nd.Op.Fun, a.i, a.ix, b.f, b.ix, sel, out.b)
	case mapCmpFI:
		return fusedCmpFI(st.nd.Op.Fun, a.f, a.ix, b.i, b.ix, sel, out.b)
	case mapCmpFF:
		return fusedCmpFF(st.nd.Op.Fun, a.f, a.ix, b.f, b.ix, sel, out.b)
	case mapCmpSS:
		fusedCmpSS(st.nd.Op.Fun, a.s, a.ix, b.s, b.ix, sel, out.b)
		return nil
	case mapAndBB:
		fusedAnd(a.b, a.ix, b.b, b.ix, sel, out.b)
		return nil
	case mapOrBB:
		fusedOr(a.b, a.ix, b.b, b.ix, sel, out.b)
		return nil
	case mapNotB:
		fusedNot(a.b, a.ix, sel, out.b)
		return nil
	case mapBoolWrapB, mapEbvB:
		fusedCopyBool(a.b, a.ix, sel, out.b)
		return nil
	case mapEbvN:
		fusedTrue(sel, out.b)
		return nil
	case mapEbvI:
		fusedEbvInt(a.i, a.ix, sel, out.b)
		return nil
	case mapEbvF:
		fusedEbvFloat(a.f, a.ix, sel, out.b)
		return nil
	case mapEbvS:
		fusedEbvStr(a.s, a.ix, sel, out.b)
		return nil
	case mapArithII:
		return fusedArithII(st.nd.Op.Fun, a.i, a.ix, b.i, b.ix, sel, out)
	case mapCopyI:
		fusedCopyInt(a.i, a.ix, sel, out.i)
		return nil
	case mapCopyF:
		fusedCopyFloat(a.f, a.ix, sel, out.f)
		return nil
	case mapCopyS:
		fusedCopyStr(a.s, a.ix, sel, out.s)
		return nil
	case mapCopyB:
		fusedCopyBool(a.b, a.ix, sel, out.b)
		return nil
	case mapGenericBool:
		return r.e.fusedGenericBool(st.nd.Op, &a, b, c, sel, out.b)
	case mapGenericStr:
		return r.e.fusedGenericStr(st.nd.Op, &a, b, c, sel, out.s)
	default: // mapGenericItem
		return r.e.fusedGenericItem(st.nd.Op, &a, b, c, sel, out.it)
	}
}

// assemble stitches the per-morsel parts into the chain's boundary view
// and reports how many rows materialized.
func (r *fusedRun) assemble(parts []*fusedPart) (*bat.View, int, error) {
	prog := r.prog
	var outIdx []int32
	if prog.hasFilter {
		if len(parts) == 1 {
			outIdx = parts[0].idx
		} else {
			total := 0
			for _, p := range parts {
				total += len(p.idx)
			}
			outIdx = make([]int32, 0, total)
			for _, p := range parts {
				outIdx = append(outIdx, p.idx...)
			}
		}
	} else if !prog.viewMode {
		outIdx = r.vsel
	}
	hasComputed := false
	for _, oc := range prog.outCols {
		if oc.src.vec == nil {
			hasComputed = true
			break
		}
	}
	out := &bat.Table{}
	if prog.viewMode {
		// Boundary stays a view: shared base vectors plus full-length
		// computed columns; survivors live in the selection vector. Dead
		// lanes of computed columns hold zero values — unobservable,
		// since every consumer reads through the view's selection.
		for ci, oc := range prog.outCols {
			vec := oc.src.vec
			if vec == nil {
				vec = concatAccs(parts, ci)
			}
			if err := out.AddCol(oc.name, vec); err != nil {
				return nil, 0, err
			}
		}
		if prog.hasFilter {
			return bat.NewView(out, outIdx), 0, nil
		}
		return bat.ViewOf(out), 0, nil
	}
	if !hasComputed {
		// Pure selection/projection over an already-selected input: the
		// output narrows the shared columns, still zero-copy.
		for _, oc := range prog.outCols {
			if err := out.AddCol(oc.name, oc.src.vec); err != nil {
				return nil, 0, err
			}
		}
		return bat.NewView(out, outIdx), 0, nil
	}
	// Gather mode: the input already had a selection vector and the
	// chain computes columns — the single materialization at the chain
	// boundary.
	for ci, oc := range prog.outCols {
		var vec bat.Vec
		if oc.src.vec != nil {
			vec = oc.src.vec.Gather(outIdx)
		} else {
			vec = concatAccs(parts, ci)
		}
		if err := out.AddCol(oc.name, vec); err != nil {
			return nil, 0, err
		}
	}
	return bat.ViewOf(out), out.Rows(), nil
}

// execChain runs one fused chain as a single loop over its input view.
// Errors return pre-wrapped with the failing member's operator kind —
// callers must not wrap them again.
//
//pfvet:allow ctxpoll -- the row loops live in morsel(), which polls per batch; the nested loops here only sum per-step stats
func (e *Engine) execChain(ctx context.Context, ch *physical.FusedChain, in *bat.View, tr *Trace, worker int) (*bat.View, error) {
	if e.onApply != nil {
		for _, nd := range ch.Nodes {
			e.onApply(nd.Op)
		}
	}
	e.sh.working.Add(1)
	defer e.sh.working.Add(-1)
	// Runtime tiny-input gate: discovery only skips chains whose row
	// estimate is known to be small, so a chain formed under an unknown
	// estimate can still meet a tiny input here. When the whole input
	// fits in a single batch the fused loop amortizes nothing, and its
	// setup (program compilation, morsel split, part assembly) costs
	// more than it saves — run the members through the ordinary
	// kernels instead.
	if in.Rows() < fusedBatchRows {
		return e.replayChain(ctx, ch, in, tr, worker)
	}
	start := time.Now() //pfvet:allow determinism -- trace wall-time only, not query results
	prog := e.compileChain(ch, in)
	if prog == nil {
		return e.replayChain(ctx, ch, in, tr, worker)
	}
	run := &fusedRun{e: e, prog: prog, vsel: in.Sel()}
	ms := &morsels{e: e, ctx: ctx, par: ch.Parallel()}
	ranges := ms.split(in.Rows())
	parts := make([]*fusedPart, len(ranges))
	runErr := ms.run(len(ranges), func(m int) error {
		p, err := run.morsel(ctx, ranges[m])
		if err != nil {
			return err
		}
		parts[m] = p
		return nil
	})
	var view *bat.View
	var mat int
	if runErr == nil {
		view, mat, runErr = run.assemble(parts)
	}
	if runErr != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// A lane kernel hit a condition whose diagnostic (text, row
		// number, error order) belongs to the per-operator path — a
		// non-boolean filter input, a NaN comparison, a division by
		// zero. Replay the chain unfused from the retained input view:
		// every member is pure, so the replay reproduces the
		// per-operator behavior exactly.
		return e.replayChain(ctx, ch, in, tr, worker)
	}
	tail := ch.Tail()
	if e.Check {
		if err := checkNodeOutput(tail, view); err != nil {
			return nil, fmt.Errorf("%s: %w", tail.Op.Kind, err)
		}
	}
	if tr != nil {
		wall := time.Since(start) //pfvet:allow determinism -- trace wall-time only, not query results
		tr.keepChainInput(ch, in)
		stepOut := make([]int64, len(prog.steps))
		for _, p := range parts {
			for i, c := range p.stepOut {
				stepOut[i] += c
			}
		}
		prev := in.Rows()
		for i, nd := range ch.Nodes {
			st := OpStat{
				RowsIn: prev, RowsOut: int(stepOut[i]), Worker: worker,
				Kernel:     nd.Kernel,
				FusedChain: ch.ID, FusedPos: i + 1, FusedLen: len(ch.Nodes),
			}
			if i == len(ch.Nodes)-1 {
				st.Wall = wall
				st.RowsMat = mat
				st.setMorsels(ms)
			}
			tr.recordStat(nd.Op, st)
			prev = int(stepOut[i])
		}
	}
	return view, nil
}

// replayChain executes a chain member by member through the ordinary
// kernels — the fallback when compileChain bails or a lane kernel needs
// the per-operator diagnostics.
func (e *Engine) replayChain(ctx context.Context, ch *physical.FusedChain, in *bat.View, tr *Trace, worker int) (*bat.View, error) {
	return e.replayNodes(ctx, ch.Nodes, []*bat.View{in}, "", tr, worker)
}

// replayNodes runs a multi-operator unit one member at a time: the first
// member consumes in, each later one its predecessor's output. Members
// record ordinary (standalone) stats; note is appended to the first
// member's kernel name, which is how a demoted unit says why — on the
// first so that it is on record even when a later member fails.
func (e *Engine) replayNodes(ctx context.Context, nodes []*physical.Node, in []*bat.View, note string, tr *Trace, worker int) (*bat.View, error) {
	for i, nd := range nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now() //pfvet:allow determinism -- trace wall-time only, not query results
		ms := &morsels{e: e, ctx: ctx, par: nd.Parallel}
		out, err := e.execKernel(ctx, nd, in, ms)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", nd.Op.Kind, err)
		}
		if e.Check {
			if err := checkNodeOutput(nd, out.view); err != nil {
				return nil, fmt.Errorf("%s: %w", nd.Op.Kind, err)
			}
		}
		if tr != nil {
			st := OpStat{
				//pfvet:allow determinism -- trace wall-time only, not query results
				Wall: time.Since(start), RowsIn: viewRowsIn(in),
				RowsOut: out.view.Rows(), Worker: worker,
				Kernel: out.kernel, RowsMat: out.mat,
			}
			if i == 0 {
				st.Kernel += note
			}
			if i < len(nodes)-1 {
				tr.keepMember(nd.Op, out.view)
			}
			st.setMorsels(ms)
			tr.recordStat(nd.Op, st)
		}
		in = []*bat.View{out.view}
	}
	return in[0], nil
}
