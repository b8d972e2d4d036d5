package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pathfinder/internal/corpus"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// GoldenSF fixes the XMark instance the goldens pin: the generator is
// deterministic in the scale factor.
const GoldenSF = 0.002

var xmarkDoc = sync.OnceValue(func() string { return xmark.GenerateString(GoldenSF) })

// XMarkDocs is the XMark instance at GoldenSF, bound as "xmark.xml".
func XMarkDocs() []Doc { return []Doc{{URI: "xmark.xml", Text: xmarkDoc()}} }

// XMark is q01–q20 — or the queries named — as cases named Q1–Q20, each
// pinning its golden bytes.
func XMark(tb testing.TB, queries ...int) []corpus.Case {
	tb.Helper()
	if len(queries) == 0 {
		for n := 1; n <= xmark.NumQueries; n++ {
			queries = append(queries, n)
		}
	}
	cases := make([]corpus.Case, len(queries))
	for i, n := range queries {
		cases[i] = corpus.Case{Name: fmt.Sprintf("Q%d", n), Query: xmark.Query(n), Want: Golden(tb, n)}
	}
	return cases
}

// GoldenPath is the file pinning XMark query n's serialized result:
// internal/engine/testdata/golden/qNN.xml, wherever the test runs.
func GoldenPath(n int) string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "..", "engine", "testdata", "golden", fmt.Sprintf("q%02d.xml", n))
}

// Golden is XMark query n's pinned result, without the file's final
// newline.
func Golden(tb testing.TB, n int) string {
	tb.Helper()
	b, err := os.ReadFile(GoldenPath(n))
	if err != nil {
		tb.Fatalf("Q%d: %v (go test ./internal/engine -run TestXMarkGolden -update writes the goldens)", n, err)
	}
	return strings.TrimSuffix(string(b), "\n")
}

// WriteGoldens rewrites the golden files with ev's results for the
// optimized plans.
func WriteGoldens(tb testing.TB, ev Evaluator) {
	tb.Helper()
	eval := ev.Run(tb, XMarkDocs())
	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	for n := 1; n <= xmark.NumQueries; n++ {
		plan, err := Compile(xmark.Query(n), opts, Optimized)
		if err != nil {
			tb.Fatalf("Q%d: %v", n, err)
		}
		got, err := eval(Query{Src: xmark.Query(n), Opts: opts, Form: Optimized, Plan: plan})
		if err != nil {
			tb.Fatalf("Q%d: %v", n, err)
		}
		if err := os.WriteFile(GoldenPath(n), []byte(got+"\n"), 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}
