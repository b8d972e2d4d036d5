package xmark_test

import (
	"testing"

	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
)

// TestXMarkDifferential runs all 20 benchmark queries on both engines
// over the same generated instance against the goldens — the
// integration test tying the whole reproduction together.
func TestXMarkDifferential(t *testing.T) {
	m := difftest.Matrix{Docs: difftest.XMarkDocs(), Evals: []difftest.Evaluator{
		difftest.Engine("relational", engine.Config{}),
		difftest.Navdom("navdom", [2]string{"buyer", "person"}),
	}}
	nonEmpty := 0
	for _, o := range m.Run(t, difftest.XMark(t)) {
		if o.Got != "" {
			nonEmpty++
		}
	}
	if nonEmpty < 16 {
		t.Errorf("only %d/20 queries returned results; the workload is too sparse", nonEmpty)
	}
}
