package engine

import (
	"context"
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
// through the trace. Functions no typed kernel covers take the boxed
// per-row path.
func (e *Engine) physFun(ctx context.Context, nd *physical.Node, v *bat.View) (physOut, error) {
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
	out, tag, err := e.funKernel(ctx, o, args, n)
	if err != nil {
		return physOut{}, err
	}
	if out == nil {
		// No specialized kernel for this function — the boxed per-row path.
		nt, err := e.evalFun(ctx, t, o)
		if err != nil {
			return physOut{}, err
		}
		return physOut{view: bat.ViewOf(nt), kernel: nd.Kernel, mat: m}, nil
	}
	nt, err := t.With(o.Col, out)
	if err != nil {
		return physOut{}, err
	}
	return physOut{view: bat.ViewOf(nt), kernel: nd.Kernel, tag: tag, mat: m}, nil
}

// funKernel returns the result vector of a specialized kernel, or nil
// when the function/operand combination has none and the caller should
// take the boxed path.
func (e *Engine) funKernel(ctx context.Context, o *algebra.Op, args []bat.Vec, n int) (bat.Vec, string, error) {
	switch o.Fun {
	case algebra.FunEq, algebra.FunNe, algebra.FunLt, algebra.FunLe,
		algebra.FunGt, algebra.FunGe:
		return compareKernel(ctx, o.Fun, args[0], args[1], n)
	case algebra.FunAnd, algebra.FunOr:
		a, aok := args[0].(bat.BoolVec)
		b, bok := args[1].(bat.BoolVec)
		if !aok || !bok {
			return nil, "", nil
		}
		res := make(bat.BoolVec, n)
		if o.Fun == algebra.FunAnd {
			for i := 0; i < n; i++ {
				if err := polled(ctx, i); err != nil {
					return nil, "", err
				}
				res[i] = a[i] && b[i]
			}
		} else {
			for i := 0; i < n; i++ {
				if err := polled(ctx, i); err != nil {
					return nil, "", err
				}
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
			if err := polled(ctx, i); err != nil {
				return nil, "", err
			}
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
		return ebvKernel(ctx, args[0], n)
	case algebra.FunAdd, algebra.FunSub, algebra.FunMul, algebra.FunDiv,
		algebra.FunIDiv, algebra.FunMod:
		return arithKernel(ctx, o.Fun, args[0], args[1], n)
	case algebra.FunString:
		if a, ok := strRows(args[0]); ok {
			res := make(bat.StrVec, n)
			copy(res, a)
			return res, ":str", nil
		}
		return nil, "", nil
	case algebra.FunAtomize:
		switch a := args[0].(type) {
		case bat.NodeVec:
			// xs:untypedAtomic string values, shared with the store's pools.
			res := make(bat.UntypedVec, n)
			for i := 0; i < n; i++ {
				if err := polled(ctx, i); err != nil {
					return nil, "", err
				}
				res[i] = e.Store.StringValue(a[i])
			}
			return res, ":node", nil
		case bat.IntVec, bat.FloatVec, bat.StrVec, bat.BoolVec, bat.UntypedVec:
			// Atomizing an already-atomic typed column is the identity.
			return a, ":id", nil
		}
		return nil, "", nil
	}
	return nil, "", nil
}

// compareKernel evaluates a general comparison column pair. Int×int
// pairs compare through the same float64 promotion the boxed
// bat.Compare applies; float operands keep its NaN diagnostics; string
// and untyped pairs compare lexically; an untyped operand against a
// number casts to double, and a value that does not cast fails with
// Compare's text. Polymorphic operands still hoist the function-kind
// dispatch out of the loop and call bat.Compare directly.
func compareKernel(ctx context.Context, fun algebra.FunKind, av, bv bat.Vec, n int) (bat.Vec, string, error) {
	res := make(bat.BoolVec, n)
	if a, b, ok := stringLane(av, bv); ok {
		for i := 0; i < n; i++ {
			if err := polled(ctx, i); err != nil {
				return nil, "", err
			}
			res[i] = cmpToBool(fun, strings.Compare(a[i], b[i]))
		}
		return res, ":str", nil
	}
	switch a := av.(type) {
	case bat.IntVec:
		if b, ok := bv.(bat.IntVec); ok {
			for i := 0; i < n; i++ {
				if err := polled(ctx, i); err != nil {
					return nil, "", err
				}
				res[i] = cmpToBool(fun, cmpF(float64(a[i]), float64(b[i])))
			}
			return res, ":int", nil
		}
	}
	if floatLane(av) && floatLane(bv) {
		for i := 0; i < n; i++ {
			if err := polled(ctx, i); err != nil {
				return nil, "", err
			}
			x, y := floatAt(av, i), floatAt(bv, i)
			if math.IsNaN(x) || math.IsNaN(y) {
				_, err := bat.Compare(av.ItemAt(i), bv.ItemAt(i))
				return nil, "", err
			}
			res[i] = cmpToBool(fun, cmpF(x, y))
		}
		return res, ":num", nil
	}
	for i := 0; i < n; i++ {
		if err := polled(ctx, i); err != nil {
			return nil, "", err
		}
		c, err := bat.Compare(av.ItemAt(i), bv.ItemAt(i))
		if err != nil {
			return nil, "", err
		}
		res[i] = cmpToBool(fun, c)
	}
	return res, "", nil
}

// stringLane returns the rows of two columns bat.Compare orders as
// strings throughout: strings and untyped atomics, in any pairing.
func stringLane(av, bv bat.Vec) (a, b []string, ok bool) {
	a, aok := strRows(av)
	b, bok := strRows(bv)
	return a, b, aok && bok
}

func strRows(v bat.Vec) ([]string, bool) {
	switch c := v.(type) {
	case bat.StrVec:
		return c, true
	case bat.UntypedVec:
		return c, true
	}
	return nil, false
}

// floatLane reports whether v is a column a number compares with, or
// computes with, as xs:double: numbers and untyped atomics.
func floatLane(v bat.Vec) bool {
	switch v.(type) {
	case bat.IntVec, bat.FloatVec, bat.UntypedVec:
		return true
	}
	return false
}

// floatAt is row i of a floatLane column as the double bat.Compare and
// arith promote it to: an untyped value that does not cast is NaN.
func floatAt(v bat.Vec, i int) float64 {
	switch c := v.(type) {
	case bat.IntVec:
		return float64(c[i])
	case bat.FloatVec:
		return c[i]
	}
	return v.ItemAt(i).AsFloat()
}

// ebvKernel is the effective-boolean-value map over a typed column;
// every branch mirrors applyFun's per-kind rule.
func ebvKernel(ctx context.Context, av bat.Vec, n int) (bat.Vec, string, error) {
	res := make(bat.BoolVec, n)
	if a, ok := strRows(av); ok {
		for i := 0; i < n; i++ {
			if err := polled(ctx, i); err != nil {
				return nil, "", err
			}
			res[i] = a[i] != ""
		}
		return res, ":str", nil
	}
	switch a := av.(type) {
	case bat.BoolVec:
		copy(res, a)
		return res, ":bool", nil
	case bat.NodeVec:
		for i := 0; i < n; i++ {
			if err := polled(ctx, i); err != nil {
				return nil, "", err
			}
			res[i] = true
		}
		return res, ":node", nil
	case bat.IntVec:
		for i := 0; i < n; i++ {
			if err := polled(ctx, i); err != nil {
				return nil, "", err
			}
			res[i] = a[i] != 0
		}
		return res, ":int", nil
	case bat.FloatVec:
		for i := 0; i < n; i++ {
			if err := polled(ctx, i); err != nil {
				return nil, "", err
			}
			res[i] = a[i] != 0 && a[i] == a[i]
		}
		return res, ":num", nil
	}
	return nil, "", nil
}

// arithKernel runs int×int arithmetic on the raw slices. Division (and
// the division-by-zero and overflow diagnostics) reproduce the boxed
// arith() exactly. Other numeric and untyped operands promote to
// xs:double row by row through arith itself, so its casts and errors are
// the kernel's; the column is a FloatVec, an IntVec for idiv.
func arithKernel(ctx context.Context, fun algebra.FunKind, av, bv bat.Vec, n int) (bat.Vec, string, error) {
	a, aok := av.(bat.IntVec)
	b, bok := bv.(bat.IntVec)
	if !aok || !bok {
		if floatLane(av) && floatLane(bv) {
			return floatArith(ctx, fun, av, bv, n)
		}
		// Polymorphic operands: per-row boxing stays, but the
		// function-kind dispatch is hoisted out of the loop.
		res := bat.NewItems(n)
		for i := 0; i < n; i++ {
			if err := polled(ctx, i); err != nil {
				return nil, "", err
			}
			it, err := arith(fun, av.ItemAt(i), bv.ItemAt(i))
			if err != nil {
				return nil, "", err
			}
			res.AppendItem(it)
		}
		return res.Build(), "", nil
	}
	switch fun {
	case algebra.FunDiv:
		res := make(bat.FloatVec, n)
		for i := 0; i < n; i++ {
			if err := polled(ctx, i); err != nil {
				return nil, "", err
			}
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
			if err := polled(ctx, i); err != nil {
				return nil, "", err
			}
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
			if err := polled(ctx, i); err != nil {
				return nil, "", err
			}
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

// floatArith is arith over two columns of numbers and untyped atomics,
// not both int: every result is a double but idiv's, an integer.
func floatArith(ctx context.Context, fun algebra.FunKind, av, bv bat.Vec, n int) (bat.Vec, string, error) {
	if fun == algebra.FunIDiv {
		res := make(bat.IntVec, n)
		for i := 0; i < n; i++ {
			if err := polled(ctx, i); err != nil {
				return nil, "", err
			}
			it, err := arith(fun, av.ItemAt(i), bv.ItemAt(i))
			if err != nil {
				return nil, "", err
			}
			res[i] = it.I
		}
		return res, ":num", nil
	}
	res := make(bat.FloatVec, n)
	for i := 0; i < n; i++ {
		if err := polled(ctx, i); err != nil {
			return nil, "", err
		}
		it, err := arith(fun, av.ItemAt(i), bv.ItemAt(i))
		if err != nil {
			return nil, "", err
		}
		res[i] = it.F
	}
	return res, ":num", nil
}
