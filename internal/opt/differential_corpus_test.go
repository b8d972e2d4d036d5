package opt_test

import (
	"sync"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/corpus"
	"pathfinder/internal/opt"
	"pathfinder/internal/xmark"
)

// TestCorpusMatchesReference runs the reference differential
// (opt.CheckAgainstReference: analyses, splice sequence, per-splice
// incremental state, final plan and trace) over every compiled plan of
// the two fixed corpora.
func TestCorpusMatchesReference(t *testing.T) {
	splices := 0
	for _, plan := range compileAll(t, xmarkTexts(), "xmark.xml") {
		splices += opt.CheckAgainstReference(t, plan)
	}
	// 196 splices over q01–q20: the number the restart-scan pass made.
	if splices != 196 {
		t.Errorf("XMark q01–q20 took %d splices, the reference pass took 196", splices)
	}
	for _, plan := range compileAll(t, corpus.Dialect, "auction.xml") {
		opt.CheckAgainstReference(t, plan)
	}
}

// TestPipelineConcurrentOnSharedInput runs eight pipelines over one
// input DAG at once (meaningful under -race: `make race` includes this
// package): the plan index is a side structure and the isolation pass
// works on a clone, so the input's dump must come out unchanged and all
// eight results must agree.
func TestPipelineConcurrentOnSharedInput(t *testing.T) {
	for _, n := range []int{8, 10} {
		plan := compileAll(t, []string{xmark.Query(n)}, "xmark.xml")[0]
		before := algebra.TreeString(plan)
		results := make([]string, 8)
		var wg sync.WaitGroup
		for g := range results {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				res, err := opt.Pipeline(plan)
				if err != nil {
					t.Errorf("Q%d goroutine %d: %v", n, g, err)
					return
				}
				results[g] = renderPlanSnapshot(res)
			}(g)
		}
		wg.Wait()
		if after := algebra.TreeString(plan); after != before {
			t.Fatalf("Q%d: concurrent pipelines mutated their shared input", n)
		}
		for g, r := range results[1:] {
			if r != results[0] {
				t.Errorf("Q%d: goroutine %d produced a different plan than goroutine 0", n, g+1)
			}
		}
	}
}
