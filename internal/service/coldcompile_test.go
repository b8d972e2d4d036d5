package service_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"pathfinder/internal/service"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
)

// coldPointText is the benchmark's point lookup with an always-true
// conjunct over a literal no other text uses: normalizeQuery cannot fold
// two of them together, so each one misses the prepared-plan cache.
func coldPointText(person, n int) string {
	return fmt.Sprintf(`for $b in /site/people/person where $b/@id = "person%d" and %d = %d return $b/name/text()`, person, n, n)
}

// TestColdCompileBytesBudget: a point lookup whose text the service has
// never seen is parsed, normalized, compiled, optimized, lowered, checked,
// priced, run and serialized. What that allocates is what the collector is
// charged per cold text, and a service warming its cache pays it once per
// text. The ceiling is half of the 0.623 MB the same request allocated
// when the plan was lowered twice and its properties derived three times.
func TestColdCompileBytesBudget(t *testing.T) {
	const ceiling = 0.32 // MB per cold text
	store := xenc.NewStore()
	if _, err := store.LoadDocumentString("xmark.xml", xmark.GenerateString(0.01)); err != nil {
		t.Fatal(err)
	}
	svc := service.New(store, service.Config{})
	run := func(n int) {
		req := service.Request{Query: coldPointText(n%10, n), ContextDoc: "xmark.xml"}
		if _, err := svc.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	run(0) // package-level lazy state: first-use tables, pools
	const texts = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 1; n <= texts; n++ {
		run(n)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / texts
	t.Logf("%.3f MB per cold point text (ceiling %.2f)", got, ceiling)
	if got > ceiling {
		t.Errorf("a cold point text allocates %.3f MB, ceiling %.2f", got, ceiling)
	}
}
