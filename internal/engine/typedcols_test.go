package engine_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pathfinder/internal/bat"
	"pathfinder/internal/difftest"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// TestXMarkIntermediatesTyped pins DESIGN §4's rule for item columns: a
// column holds the vector of its kind, and bat.ItemVec is left to the
// columns that really mix kinds. Every intermediate of the 20 XMark
// queries at SF 0.01 is read off the trace; an ItemVec whose rows all
// share one kind is a producer that boxed what it could have kept typed.
func TestXMarkIntermediatesTyped(t *testing.T) {
	e := difftest.LoadEngine(t, difftest.CheckConfig, []difftest.Doc{{URI: "xmark.xml", Text: xmark.GenerateString(0.01)}})
	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	for n := 1; n <= xmark.NumQueries; n++ {
		plan, _ := compileStats(t, xmark.Query(n), opts)
		_, tr, err := e.EvalTrace(context.Background(), plan)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		var boxed []string
		for op, tab := range tr.Tables {
			for _, c := range tab.Cols() {
				if k, ok := oneKind(tab.MustCol(c)); ok {
					boxed = append(boxed, fmt.Sprintf("%s.%s (%s)", op.Kind, c, k))
				}
			}
		}
		if len(boxed) > 0 {
			sort.Strings(boxed)
			t.Errorf("Q%d: %d single-kind ItemVec column(s): %s", n, len(boxed), strings.Join(boxed, ", "))
		}
	}
}

// oneKind reports the kind every row of an ItemVec holds; ok is false for
// any other vector, for an empty one (the empty sequence has no kind) and
// for one that mixes kinds.
func oneKind(v bat.Vec) (bat.Kind, bool) {
	items, isItems := v.(bat.ItemVec)
	if !isItems || len(items) == 0 {
		return 0, false
	}
	for _, it := range items[1:] {
		if it.Kind != items[0].Kind {
			return 0, false
		}
	}
	return items[0].Kind, true
}
