package engine

import (
	"math"
	"strings"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/physical"
)

// Typed ⊛ kernels for the physical executor. The boxed kernel (evalFun)
// evaluates every map row through applyFun: box both operands into
// Items, re-dispatch on the function kind, and re-examine the operand
// kinds. Here the dispatch happens once per column batch: when the
// argument vectors are typed (IntVec, StrVec, BoolVec, ...) the kernel
// runs a monomorphic loop over the raw slices, and even the polymorphic
// fallbacks hoist the function-kind switch out of the row loop. Each
// typed path reproduces the boxed semantics exactly — including the
// float64 promotion of integer comparisons and the error messages — so
// a typed column and its boxed fallback give byte-identical results.

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpToBool(fun algebra.FunKind, c int) bool {
	switch fun {
	case algebra.FunEq:
		return c == 0
	case algebra.FunNe:
		return c != 0
	case algebra.FunLt:
		return c < 0
	case algebra.FunLe:
		return c <= 0
	case algebra.FunGt:
		return c > 0
	default: // FunGe
		return c >= 0
	}
}

// physFun executes one map node, choosing the tightest kernel the
// argument vector types allow and reporting it (":int", ":str", ...)
// through the trace. The typed kernels are embarrassingly
// morsel-parallel: every morsel runs the same kernel over slices of the
// argument vectors (the dispatch depends only on the vector types, which
// slicing preserves) and the per-morsel result vectors concatenate in
// morsel order. The boxed per-row fallback stays sequential — it is the
// cold path for functions no typed kernel covers.
func (e *Engine) physFun(ms *morsels, nd *physical.Node, v *bat.View) (physOut, error) {
	o := nd.Op
	t, m := matCount(v)
	args := make([]bat.Vec, len(o.Args))
	for i, a := range o.Args {
		c, err := t.Col(a)
		if err != nil {
			return physOut{}, err
		}
		args[i] = c
	}
	n := t.Rows()
	ranges := ms.split(n)
	if len(ranges) > 1 {
		// Zero-row probe: resolves which kernel (if any) the argument
		// types select, without doing any row work.
		probe := make([]bat.Vec, len(args))
		for i := range args {
			probe[i] = args[i].Slice(0, 0)
		}
		if out, _, err := e.funKernel(o, probe, 0); err == nil && out != nil {
			parts := make([]bat.Vec, len(ranges))
			tags := make([]string, len(ranges))
			if err := ms.run(len(ranges), func(mi int) error {
				r := ranges[mi]
				sub := make([]bat.Vec, len(args))
				for i := range args {
					sub[i] = args[i].Slice(r.Lo, r.Hi)
				}
				res, tag, err := e.funKernel(o, sub, r.Len())
				if err != nil {
					return err
				}
				parts[mi], tags[mi] = res, tag
				return nil
			}); err != nil {
				return physOut{}, err
			}
			nt := t.Slice(0, n)
			if err := nt.AddCol(o.Col, concatVecs(parts)); err != nil {
				return physOut{}, err
			}
			return physOut{view: bat.ViewOf(nt), kernel: nd.Kernel + tags[0], mat: m}, nil
		}
	}
	out, tag, err := e.funKernel(o, args, n)
	if err != nil {
		return physOut{}, err
	}
	if out == nil {
		// No specialized kernel for this function — the boxed per-row path.
		nt, err := e.evalFun(t, o)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(nt), kernel: nd.Kernel, mat: m}, nil
	}
	nt := t.Slice(0, n)
	if err := nt.AddCol(o.Col, out); err != nil {
		return physOut{}, err
	}
	return physOut{view: bat.ViewOf(nt), kernel: nd.Kernel + tag, mat: m}, nil
}

// funKernel returns the result vector of a specialized kernel, or nil
// when the function/operand combination has none and the caller should
// take the boxed path.
func (e *Engine) funKernel(o *algebra.Op, args []bat.Vec, n int) (bat.Vec, string, error) {
	switch o.Fun {
	case algebra.FunEq, algebra.FunNe, algebra.FunLt, algebra.FunLe,
		algebra.FunGt, algebra.FunGe:
		return compareKernel(o.Fun, args[0], args[1], n)
	case algebra.FunAnd, algebra.FunOr:
		a, aok := args[0].(bat.BoolVec)
		b, bok := args[1].(bat.BoolVec)
		if !aok || !bok {
			return nil, "", nil
		}
		res := make(bat.BoolVec, n)
		if o.Fun == algebra.FunAnd {
			for i := 0; i < n; i++ {
				res[i] = a[i] && b[i]
			}
		} else {
			for i := 0; i < n; i++ {
				res[i] = a[i] || b[i]
			}
		}
		return res, ":bool", nil
	case algebra.FunNot:
		a, ok := args[0].(bat.BoolVec)
		if !ok {
			return nil, "", nil
		}
		res := make(bat.BoolVec, n)
		for i := 0; i < n; i++ {
			res[i] = !a[i]
		}
		return res, ":bool", nil
	case algebra.FunBoolWrap:
		a, ok := args[0].(bat.BoolVec)
		if !ok {
			return nil, "", nil
		}
		res := make(bat.BoolVec, n)
		copy(res, a)
		return res, ":bool", nil
	case algebra.FunEbvItem:
		return ebvKernel(args[0], n)
	case algebra.FunAdd, algebra.FunSub, algebra.FunMul, algebra.FunDiv,
		algebra.FunIDiv, algebra.FunMod:
		return arithKernel(o.Fun, args[0], args[1], n)
	case algebra.FunString:
		if a, ok := args[0].(bat.StrVec); ok {
			res := make(bat.StrVec, n)
			copy(res, a)
			return res, ":str", nil
		}
		return nil, "", nil
	case algebra.FunAtomize:
		switch a := args[0].(type) {
		case bat.NodeVec:
			res := make(bat.ItemVec, n)
			for i := 0; i < n; i++ {
				res[i] = e.Store.Atomize(a[i])
			}
			return res, ":node", nil
		case bat.IntVec, bat.FloatVec, bat.StrVec, bat.BoolVec:
			// Atomizing an already-atomic typed column is the identity.
			return a.Slice(0, n), ":id", nil
		}
		return nil, "", nil
	}
	return nil, "", nil
}

// compareKernel evaluates a general comparison column pair. Int×int
// pairs compare through the same float64 promotion the boxed
// bat.Compare applies; float operands keep its NaN diagnostics; string
// pairs compare lexically. Polymorphic operands still hoist the
// function-kind dispatch out of the loop and call bat.Compare directly.
func compareKernel(fun algebra.FunKind, av, bv bat.Vec, n int) (bat.Vec, string, error) {
	res := make(bat.BoolVec, n)
	switch a := av.(type) {
	case bat.IntVec:
		switch b := bv.(type) {
		case bat.IntVec:
			for i := 0; i < n; i++ {
				res[i] = cmpToBool(fun, cmpF(float64(a[i]), float64(b[i])))
			}
			return res, ":int", nil
		case bat.FloatVec:
			for i := 0; i < n; i++ {
				if math.IsNaN(b[i]) {
					_, err := bat.Compare(bat.Int(a[i]), bat.Float(b[i]))
					return nil, "", err
				}
				res[i] = cmpToBool(fun, cmpF(float64(a[i]), b[i]))
			}
			return res, ":num", nil
		}
	case bat.FloatVec:
		switch b := bv.(type) {
		case bat.IntVec:
			for i := 0; i < n; i++ {
				if math.IsNaN(a[i]) {
					_, err := bat.Compare(bat.Float(a[i]), bat.Int(b[i]))
					return nil, "", err
				}
				res[i] = cmpToBool(fun, cmpF(a[i], float64(b[i])))
			}
			return res, ":num", nil
		case bat.FloatVec:
			for i := 0; i < n; i++ {
				if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
					_, err := bat.Compare(bat.Float(a[i]), bat.Float(b[i]))
					return nil, "", err
				}
				res[i] = cmpToBool(fun, cmpF(a[i], b[i]))
			}
			return res, ":num", nil
		}
	case bat.StrVec:
		if b, ok := bv.(bat.StrVec); ok {
			for i := 0; i < n; i++ {
				res[i] = cmpToBool(fun, strings.Compare(a[i], b[i]))
			}
			return res, ":str", nil
		}
	}
	for i := 0; i < n; i++ {
		c, err := bat.Compare(av.ItemAt(i), bv.ItemAt(i))
		if err != nil {
			return nil, "", err
		}
		res[i] = cmpToBool(fun, c)
	}
	return res, "", nil
}

// ebvKernel is the effective-boolean-value map over a typed column;
// every branch mirrors applyFun's per-kind rule.
func ebvKernel(av bat.Vec, n int) (bat.Vec, string, error) {
	res := make(bat.BoolVec, n)
	switch a := av.(type) {
	case bat.BoolVec:
		copy(res, a)
		return res, ":bool", nil
	case bat.NodeVec:
		for i := range res {
			res[i] = true
		}
		return res, ":node", nil
	case bat.IntVec:
		for i := 0; i < n; i++ {
			res[i] = a[i] != 0
		}
		return res, ":int", nil
	case bat.FloatVec:
		for i := 0; i < n; i++ {
			res[i] = a[i] != 0 && a[i] == a[i]
		}
		return res, ":num", nil
	case bat.StrVec:
		for i := 0; i < n; i++ {
			res[i] = a[i] != ""
		}
		return res, ":str", nil
	}
	return nil, "", nil
}

// arithKernel runs int×int arithmetic on the raw slices. Division (and
// the division-by-zero and overflow diagnostics) reproduce the boxed
// arith() exactly.
func arithKernel(fun algebra.FunKind, av, bv bat.Vec, n int) (bat.Vec, string, error) {
	a, aok := av.(bat.IntVec)
	b, bok := bv.(bat.IntVec)
	if !aok || !bok {
		// Polymorphic operands: per-row boxing stays, but the
		// function-kind dispatch is hoisted out of the loop.
		res := make(bat.ItemVec, n)
		for i := 0; i < n; i++ {
			it, err := arith(fun, av.ItemAt(i), bv.ItemAt(i))
			if err != nil {
				return nil, "", err
			}
			res[i] = it
		}
		return res, "", nil
	}
	switch fun {
	case algebra.FunDiv:
		res := make(bat.FloatVec, n)
		for i := 0; i < n; i++ {
			if b[i] == 0 {
				_, err := arith(fun, bat.Int(a[i]), bat.Int(b[i]))
				return nil, "", err
			}
			res[i] = float64(a[i]) / float64(b[i])
		}
		return res, ":int", nil
	case algebra.FunMod:
		res := make(bat.IntVec, n)
		for i := 0; i < n; i++ {
			if b[i] == 0 {
				_, err := arith(fun, bat.Int(a[i]), bat.Int(b[i]))
				return nil, "", err
			}
			res[i] = a[i] % b[i]
		}
		return res, ":int", nil
	case algebra.FunAdd, algebra.FunSub, algebra.FunMul, algebra.FunIDiv:
		res := make(bat.IntVec, n)
		for i := 0; i < n; i++ {
			if fun == algebra.FunIDiv && b[i] == 0 {
				_, err := arith(fun, bat.Int(a[i]), bat.Int(b[i]))
				return nil, "", err
			}
			r, err := intArith(fun, a[i], b[i])
			if err != nil {
				return nil, "", err
			}
			res[i] = r
		}
		return res, ":int", nil
	}
	return nil, "", nil
}
