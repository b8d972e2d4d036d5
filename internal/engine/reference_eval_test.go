package engine

import (
	"context"
	"fmt"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// refEval is the oracle the theta-join kernels are differenced against:
// a recursive evaluator over materialized bat.Tables for the operators a
// theta-join unit and its count-only tail are made of — Lit, ×, ⊛, σ, π,
// δ and aggr. It has no views, selection vectors, morsels, fused chains
// or fast paths: σ and δ are one plain scan each, and the per-row
// semantics come from the product's boxed kernels (evalCross, evalFun,
// evalAggr), so what the band kernel must reproduce — result rows, row
// order, column types and error text — is defined by the simplest
// evaluation of the same plan. Each shared subplan is evaluated once,
// and an error names the operator that raised it, as the executor's do.
func refEval(root *algebra.Op) (*bat.Table, error) {
	e := New(xenc.NewStore())
	memo := make(map[*algebra.Op]*bat.Table)
	var eval func(o *algebra.Op) (*bat.Table, error)
	eval = func(o *algebra.Op) (*bat.Table, error) {
		if t, ok := memo[o]; ok {
			return t, nil
		}
		in := make([]*bat.Table, len(o.In))
		for i, c := range o.In {
			t, err := eval(c)
			if err != nil {
				return nil, err
			}
			in[i] = t
		}
		t, err := refApply(e, o, in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.Kind, err)
		}
		memo[o] = t
		return t, nil
	}
	return eval(root)
}

func refApply(e *Engine, o *algebra.Op, in []*bat.Table) (*bat.Table, error) {
	switch o.Kind {
	case algebra.OpLit:
		return o.Lit, nil
	case algebra.OpProject:
		specs := make([]string, len(o.Proj))
		for i, p := range o.Proj {
			specs[i] = p.New + ":" + p.Old
		}
		return in[0].Project(specs...)
	case algebra.OpCross:
		return evalCross(context.Background(), in[0], in[1])
	case algebra.OpFun:
		return e.evalFun(in[0], o)
	case algebra.OpAggr:
		return evalAggr(in[0], o.Col, o.Agg, o.Args, o.Part, o.Sep)
	case algebra.OpSelect:
		v, err := in[0].Col(o.Col)
		if err != nil {
			return nil, err
		}
		var idx []int32
		for i := 0; i < v.Len(); i++ {
			it := v.ItemAt(i)
			if it.Kind != bat.KBool {
				return nil, fmt.Errorf("σ over non-boolean column %q (row %d is %s)", o.Col, i, it.Kind)
			}
			if it.B {
				idx = append(idx, int32(i))
			}
		}
		return in[0].Gather(idx), nil
	case algebra.OpDistinct:
		vecs, err := colVecs(in[0], in[0].Cols())
		if err != nil {
			return nil, err
		}
		seen := make(map[string]bool)
		var idx []int32
		var buf []byte
		for i := 0; i < in[0].Rows(); i++ {
			buf = rowKey(buf[:0], vecs, i)
			if !seen[string(buf)] {
				seen[string(buf)] = true
				idx = append(idx, int32(i))
			}
		}
		return in[0].Gather(idx), nil
	}
	return nil, fmt.Errorf("the reference evaluator has no %s", o.Kind)
}
