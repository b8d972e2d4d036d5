package engine_test

// Differential harness for operator chains: the same corpora as the
// scheduler and morsel differentials (all 20 XMark queries and the
// Table 2 dialect corpus) run with their chains as scheduler units at
// workers ∈ {1,8} and tiny morsels, byte-compared against the same plans
// with the chains dissolved — every member a unit of its own. Whether a
// chain's members run inside one task or one unit at a time must be
// unobservable in the output.

import (
	"context"
	"fmt"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/check"
	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/opt"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

var chainWorkerCounts = []int{1, 8}

// chainHarness holds the per-operator baseline — one worker, Check on,
// chains dissolved by EvalUnchained — and one chained morsel engine per
// worker count, all over the same document.
type chainHarness struct {
	base    *engine.Engine
	engines map[int]*engine.Engine
}

func newChainHarness(t *testing.T, uri, doc string) chainHarness {
	t.Helper()
	h := chainHarness{
		base:    engine.NewWithConfig(xenc.NewStore(), engine.Config{Workers: 1, Check: true}),
		engines: make(map[int]*engine.Engine, len(chainWorkerCounts)),
	}
	if _, err := h.base.Store.LoadDocumentString(uri, doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range chainWorkerCounts {
		h.engines[w] = morselEngine(t, uri, doc, w)
	}
	return h
}

// compare evaluates root unchained on the baseline and chained on every
// engine, reports any result that differs, and returns the baseline's
// bytes and the number of chains root's plan forms.
func (h chainHarness) compare(t *testing.T, name string, root *algebra.Op) (string, int) {
	t.Helper()
	res, err := h.base.EvalUnchained(root)
	if err != nil {
		t.Errorf("%s: unchained baseline: %v", name, err)
		return "", 0
	}
	want, err := serialize.Result(h.base.Store, res)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range chainWorkerCounts {
		e := h.engines[w]
		res, err := e.Eval(root)
		if err != nil {
			t.Errorf("%s workers=%d: %v", name, w, err)
			continue
		}
		got, err := serialize.Result(e.Store, res)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s workers=%d: chained result differs:\n unchained = %.400q\n chained   = %.400q", name, w, want, got)
		}
	}
	return want, len(h.engines[chainWorkerCounts[0]].Lowered(root).Chains)
}

// compilePlans returns src's plain plan and, separately compiled, its
// optimized and checked plan.
func compilePlans(t *testing.T, src string, opts xqcore.Options) (plain, optimized *algebra.Op) {
	t.Helper()
	plain, _, err := core.CompileQuery(src, opts)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	optimized, _, err = core.CompileQuery(src, opts)
	if err == nil {
		optimized, err = opt.Optimize(optimized)
	}
	if err == nil {
		err = check.Error(check.Plan(optimized))
	}
	if err != nil {
		t.Fatalf("%s optimized: %v", src, err)
	}
	return plain, optimized
}

// TestXMarkFusionDifferential: all 20 XMark queries, plain and
// optimized, with chains as units at workers ∈ {1,8}, byte-compared
// against the unchained baseline.
func TestXMarkFusionDifferential(t *testing.T) {
	h := newChainHarness(t, "xmark.xml", xmark.GenerateString(diffSF))
	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	chains := 0
	for n := 1; n <= xmark.NumQueries; n++ {
		plain, optimized := compilePlans(t, xmark.Query(n), opts)
		_, c := h.compare(t, fmt.Sprintf("Q%d", n), plain)
		_, oc := h.compare(t, fmt.Sprintf("Q%d optimized", n), optimized)
		chains += c + oc
	}
	if chains == 0 {
		t.Fatal("no XMark plan formed a chain; the comparison covered per-operator units only")
	}
	t.Logf("%d chains formed over the corpus", chains)
}

// TestDialectFusionDifferential: the Table 2 corpus, chained vs
// unchained, plain and optimized, at every worker count; the optimized
// plan must also agree with the plain one.
func TestDialectFusionDifferential(t *testing.T) {
	h := newChainHarness(t, "auction.xml", auctionDoc)
	opts := xqcore.Options{ContextDoc: "auction.xml"}
	chains := 0
	for _, src := range dialectQueries {
		plain, optimized := compilePlans(t, src, opts)
		want, c := h.compare(t, src, plain)
		optWant, oc := h.compare(t, src+" optimized", optimized)
		if optWant != want {
			t.Errorf("%s: optimized drifted:\n plain = %q\n opt = %q", src, want, optWant)
		}
		chains += c + oc
	}
	if chains == 0 {
		t.Fatal("no dialect plan formed a chain; the comparison covered per-operator units only")
	}
	t.Logf("%d chains formed over the corpus", chains)
}

// TestFusionChainsExercised proves the chain path is exercised: a
// range-driven query big enough to clear the FusedMinRows gate forms
// chains, records consistent membership in its trace, and gives the
// same bytes chained at every worker count as unchained.
func TestFusionChainsExercised(t *testing.T) {
	_, optimized := compilePlans(t, `for $i in 1 to 10000 where $i mod 7 = 0 return $i * 2`, xqcore.Options{})
	h := newChainHarness(t, "auction.xml", auctionDoc)
	if _, chains := h.compare(t, "range pipeline", optimized); chains == 0 {
		t.Fatal("the range pipeline formed no chain; the differential tier is not exercising chains")
	}
	_, tr, err := h.engines[1].EvalTrace(context.Background(), optimized)
	if err != nil {
		t.Fatal(err)
	}
	members := 0
	for _, st := range tr.Stats {
		if st.FusedChain > 0 {
			members++
			if st.FusedPos < 1 || st.FusedPos > st.FusedLen || st.FusedLen < 2 {
				t.Errorf("inconsistent chain membership: pos %d of %d", st.FusedPos, st.FusedLen)
			}
		}
	}
	if members == 0 {
		t.Fatal("no operator ran inside a chain")
	}
	t.Logf("%d operators ran as chain members", members)
}
