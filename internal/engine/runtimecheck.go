package engine

import (
	"fmt"
	"slices"

	"pathfinder/internal/bat"
	"pathfinder/internal/physical"
)

// Runtime invariant assertions (Config.Check). The static validator
// (internal/check) proves what the plan *claims*; this file re-asserts
// the claims on the live intermediate tables while a query runs, so a
// kernel whose implementation breaks an invariant — an unstable sort, a
// selection vector built out of order, a morsel stitch in the wrong
// order — fails the evaluation loudly instead of feeding a downstream
// merge join garbage.

// CheckMaxRows caps how many rows of each intermediate the runtime check
// walks. The interesting violations (wrong order after a stitch, a hole
// in a dense column) show up in the first rows of the affected region;
// an unbounded walk would turn O(n) kernels into O(n·cols) re-scans.
const CheckMaxRows = 65536

// checkNodeOutput asserts one physical kernel's output against its
// operator's declared schema and the order/denseness bits the plan
// carries for it.
func checkNodeOutput(nd *physical.Node, v *bat.View) error {
	return checkOutput(nd, v, nd.Op.Schema())
}

// checkOutput is checkNodeOutput for a kernel that owes its consumers
// only the columns in want (the operator's schema, or the demanded part
// of it for a theta join). An order claim is asserted on its longest
// prefix of produced columns — and as a key only when that is all of it —
// a denseness claim on the columns produced.
func checkOutput(nd *physical.Node, v *bat.View, want []string) error {
	if v == nil {
		return fmt.Errorf("runtime check: kernel produced no view")
	}
	if err := checkSchemaAgainst(v.Base().Cols(), want); err != nil {
		return err
	}
	n := v.Rows()
	if n > CheckMaxRows {
		n = CheckMaxRows
	}
	p := nd.Props
	// A column of the schema the kernel does not owe; a column outside the
	// schema is a forged claim and fails the lookup below.
	notOwed := func(c string) bool { return !slices.Contains(want, c) && nd.Op.HasCol(c) }
	var vecs []bat.Vec
	for _, c := range p.Sorted {
		if notOwed(c) {
			break
		}
		vec, err := v.Base().Col(c)
		if err != nil {
			return fmt.Errorf("runtime check: sorted column %q missing: %w", c, err)
		}
		vecs = append(vecs, vec)
	}
	if len(vecs) > 0 {
		strict := p.Strict && len(vecs) == len(p.Sorted)
		for r := 1; r < n; r++ {
			c := compareViewRows(v, vecs, r-1, r)
			if c > 0 {
				return fmt.Errorf("runtime check: %s output not sorted on (%v) at row %d",
					nd.Op.Kind, p.Sorted, r)
			}
			if c == 0 && strict {
				return fmt.Errorf("runtime check: %s output has duplicate key (%v) at row %d",
					nd.Op.Kind, p.Sorted, r)
			}
		}
	}
	for _, c := range p.Dense {
		if notOwed(c) {
			continue
		}
		vec, err := v.Base().Col(c)
		if err != nil {
			return fmt.Errorf("runtime check: dense column %q missing: %w", c, err)
		}
		for r := 0; r < n; r++ {
			it := vec.ItemAt(v.Index(r))
			if it.Kind != bat.KInt || it.I != int64(r)+1 {
				return fmt.Errorf("runtime check: %s column %q claimed dense but row %d holds %s",
					nd.Op.Kind, c, r, it.StringValue())
			}
		}
	}
	return nil
}

// checkSchemaAgainst asserts that the produced column list matches the
// operator's declared schema, name for name and in order — the contract
// every consumer kernel indexes by.
func checkSchemaAgainst(cols, want []string) error {
	if len(cols) != len(want) {
		return fmt.Errorf("runtime check: produced %d column(s) %v, schema declares %d %v",
			len(cols), cols, len(want), want)
	}
	for i := range want {
		if cols[i] != want[i] {
			return fmt.Errorf("runtime check: column %d is %q, schema declares %q (%v vs %v)",
				i, cols[i], want[i], cols, want)
		}
	}
	return nil
}

// compareViewRows compares two view rows over the given base vectors.
func compareViewRows(v *bat.View, vecs []bat.Vec, a, b int) int {
	ia, ib := v.Index(a), v.Index(b)
	for _, vec := range vecs {
		if c := bat.CompareTotal(vec.ItemAt(ia), vec.ItemAt(ib)); c != 0 {
			return c
		}
	}
	return 0
}
