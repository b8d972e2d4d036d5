package engine_test

// Differential harness for morsel-driven intra-operator parallelism:
// the same corpora as the scheduler differential (all 20 XMark queries
// and the Table 2 dialect corpus), but with MorselRows forced down to a
// handful of rows so that even the sf=0.002 instance splits nearly every
// parallel-eligible kernel into dozens of morsels. Results are
// byte-compared against the sequential engine for worker counts 1, 2,
// and 8 — the ordering guarantee the morsel kernels must uphold is that
// no worker count is observable in the output. The tests live in this
// package so `go test -race ./internal/engine/` doubles as the race tier
// over the work-stealing paths.

import (
	"context"
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/opt"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// morselEngine returns an engine with tiny morsels, the sequential
// fallback disabled and runtime checking on: every eligible operator
// splits, at the given worker budget, and every kernel's output —
// operator-chain members included — is schema-verified.
func morselEngine(t *testing.T, uri, doc string, workers int) *engine.Engine {
	t.Helper()
	e := engine.NewWithConfig(xenc.NewStore(), engine.Config{
		Workers:      workers,
		SeqThreshold: -1,
		MorselRows:   7,
		Check:        true,
	})
	if _, err := e.Store.LoadDocumentString(uri, doc); err != nil {
		t.Fatal(err)
	}
	return e
}

var morselWorkerCounts = []int{1, 2, 8}

// TestXMarkMorselDifferential: all 20 XMark queries, plain and optimized
// plans, at workers ∈ {1,2,8} with forced morsel splitting, byte-compared
// against the sequential baseline.
func TestXMarkMorselDifferential(t *testing.T) {
	doc := xmark.GenerateString(diffSF)
	seq := seqEngine(t, "xmark.xml", doc)
	engines := make(map[int]*engine.Engine, len(morselWorkerCounts))
	for _, w := range morselWorkerCounts {
		engines[w] = morselEngine(t, "xmark.xml", doc, w)
	}
	opts := xqcore.Options{ContextDoc: "xmark.xml"}

	for n := 1; n <= xmark.NumQueries; n++ {
		src := xmark.Query(n)
		want, errS := core.Run(src, seq, opts)
		optWant, errOS := runOptimized(t, src, seq, opts)
		if errS != nil || errOS != nil {
			t.Errorf("Q%d: sequential baseline err=%v optimized err=%v", n, errS, errOS)
			continue
		}
		for _, w := range morselWorkerCounts {
			got, err := core.Run(src, engines[w], opts)
			if err != nil {
				t.Errorf("Q%d workers=%d: %v", n, w, err)
				continue
			}
			if got != want {
				t.Errorf("Q%d workers=%d: morsel result differs:\n seq = %.400q\n got = %.400q", n, w, want, got)
			}
			optGot, err := runOptimized(t, src, engines[w], opts)
			if err != nil {
				t.Errorf("Q%d workers=%d optimized: %v", n, w, err)
				continue
			}
			if optGot != optWant {
				t.Errorf("Q%d workers=%d: optimized morsel result differs:\n seq = %.400q\n got = %.400q", n, w, optWant, optGot)
			}
		}
	}
}

// TestDialectMorselDifferential: the Table 2 corpus through the morsel
// engines at every worker count, plain and optimized.
func TestDialectMorselDifferential(t *testing.T) {
	seq := seqEngine(t, "auction.xml", auctionDoc)
	engines := make(map[int]*engine.Engine, len(morselWorkerCounts))
	for _, w := range morselWorkerCounts {
		engines[w] = morselEngine(t, "auction.xml", auctionDoc, w)
	}
	opts := xqcore.Options{ContextDoc: "auction.xml"}

	for _, src := range dialectQueries {
		want, errS := core.Run(src, seq, opts)
		if errS != nil {
			t.Errorf("%s: sequential baseline: %v", src, errS)
			continue
		}
		for _, w := range morselWorkerCounts {
			got, err := core.Run(src, engines[w], opts)
			if err != nil {
				t.Errorf("%s workers=%d: %v", src, w, err)
				continue
			}
			if got != want {
				t.Errorf("%s workers=%d:\n seq = %q\n got = %q", src, w, want, got)
			}
			optGot, err := runOptimized(t, src, engines[w], opts)
			if err != nil {
				t.Errorf("%s workers=%d optimized: %v", src, w, err)
				continue
			}
			if optGot != want {
				t.Errorf("%s workers=%d: optimized drifted:\n plain = %q\n opt = %q", src, w, want, optGot)
			}
		}
	}
}

// TestMorselTraceCounts evaluates a descendant-heavy XMark query with
// tiny morsels and asserts the trace actually recorded split kernels —
// the instrumentation `pf -show explain` surfaces, and the guard that
// the differential tests above genuinely exercised the parallel paths
// rather than silently running sequentially.
func TestMorselTraceCounts(t *testing.T) {
	doc := xmark.GenerateString(diffSF)
	e := morselEngine(t, "xmark.xml", doc, 8)
	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	plan, _, err := core.CompileQuery(xmark.Query(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = opt.Optimize(plan); err != nil {
		t.Fatal(err)
	}
	if _, tr, err := e.EvalTrace(context.Background(), plan); err != nil {
		t.Fatal(err)
	} else {
		split, maxMorsels := 0, 0
		for _, st := range tr.Stats {
			if st.Morsels > 1 {
				split++
				if st.Morsels > maxMorsels {
					maxMorsels = st.Morsels
				}
			}
		}
		if split == 0 {
			t.Fatal("no operator split into morsels despite MorselRows=7")
		}
		t.Logf("%d operators split; largest = %d morsels", split, maxMorsels)
	}
}
