package opt_test

import (
	"fmt"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/core"
	"pathfinder/internal/corpus"
	"pathfinder/internal/opt"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// compileAll compiles the query texts to unoptimized plans once, so the
// benchmark and the allocation guard time opt.Pipeline alone.
func compileAll(tb testing.TB, texts []string, doc string) []*algebra.Op {
	tb.Helper()
	plans := make([]*algebra.Op, len(texts))
	for i, text := range texts {
		plan, _, err := core.CompileQuery(text, xqcore.Options{ContextDoc: doc})
		if err != nil {
			tb.Fatalf("query %d: %v", i+1, err)
		}
		plans[i] = plan
	}
	return plans
}

func xmarkTexts() []string {
	texts := make([]string, xmark.NumQueries)
	for i := range texts {
		texts[i] = xmark.Query(i + 1)
	}
	return texts
}

// BenchmarkPipeline is one optimizer sweep over a whole query set per
// iteration: the 20 XMark queries (what `compile_only` and `xmark_join`
// pay per cold pass) and the 45-query Table 2 dialect corpus (what a
// never-seen service text pays).
func BenchmarkPipeline(b *testing.B) {
	sets := []struct {
		name  string
		plans []*algebra.Op
	}{
		{"xmark", compileAll(b, xmarkTexts(), "xmark.xml")},
		{"dialect", compileAll(b, corpus.Dialect, "auction.xml")},
	}
	for _, set := range sets {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, plan := range set.plans {
					if _, err := opt.Pipeline(plan); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestPipelineAllocBudget keeps whole-DAG rebuilds and per-analysis maps
// from creeping back: the ceilings are 1.25× what the worklist pipeline
// allocates on the same plans — 394 allocations on q08, 639 on q10 and
// 1 026 on q20, the largest plan (198 operators). The round driver it
// replaced allocated 966, 2 162 and 2 007.
func TestPipelineAllocBudget(t *testing.T) {
	for _, c := range []struct{ query, ceiling int }{{8, 493}, {10, 798}, {20, 1279}} {
		t.Run(fmt.Sprintf("q%02d", c.query), func(t *testing.T) {
			plan := compileAll(t, []string{xmark.Query(c.query)}, "xmark.xml")[0]
			got := testing.AllocsPerRun(5, func() {
				if _, err := opt.Pipeline(plan); err != nil {
					t.Fatal(err)
				}
			})
			if int(got) > c.ceiling {
				t.Errorf("opt.Pipeline allocates %d objects per run, ceiling %d", int(got), c.ceiling)
			}
			t.Logf("%d allocations per run (ceiling %d)", int(got), c.ceiling)
		})
	}
}
