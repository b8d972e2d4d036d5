package physical_test

// Golden test for the physical plan rendering, as `pf -show physical`
// draws it: the lowered plans of two XMark queries, each node noted with
// the optimizer's properties, are pinned byte-for-byte — Q8, the big
// equijoin query (join and rownum kernels, the pipeline flags), and Q11,
// the theta-join query (the theta-join cluster).
// Regenerate intentionally with:
//
//	go test ./internal/physical -run TestPhysicalDotGolden -update

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/opt"
	"pathfinder/internal/physical"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

var update = flag.Bool("update", false, "rewrite the golden file under testdata")

func TestPhysicalDotGolden(t *testing.T) {
	for _, n := range []int{8, 11} {
		t.Run(fmt.Sprintf("q%02d", n), func(t *testing.T) { physicalDotGolden(t, n) })
	}
}

func physicalDotGolden(t *testing.T, n int) {
	plan, _, err := core.CompileQuery(xmark.Query(n), xqcore.Options{ContextDoc: "xmark.xml"})
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = opt.Optimize(plan); err != nil {
		t.Fatal(err)
	}
	_, props := opt.PlanProperties(plan)
	got := physical.Dot(physical.Lower(plan), func(nd *physical.Node) string { return props[nd.Pos].String() })

	path := filepath.Join("testdata", fmt.Sprintf("q%02d_physical.dot", n))
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("physical plan rendering drifted from %s;\nrerun with -update if intentional", path)
	}
}
