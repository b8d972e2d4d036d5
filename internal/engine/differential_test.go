package engine_test

// The engine's differential tiers, each one runner call
// (internal/difftest): a case list over a matrix of evaluators. The
// evaluators are the sequential path, the DAG scheduler, tiny morsels at
// workers 1 / 2 / 8 (operator chains run as scheduler units), the same
// plans with their chains dissolved (unchained, below) or their theta
// joins demoted (this package's test hook, export_test.go), and navdom. XMark's cases pin
// the goldens, so every evaluator is byte-exact against them; `go test
// ./internal/engine -run TestXMarkGolden -update` (make golden) rewrites
// them. The engine-specific assertions — chains
// formed, morsels split, theta lanes, count-only units — run after the
// runner.

import (
	"context"
	"flag"
	"fmt"
	"sync"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/corpus"
	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
	"pathfinder/internal/navdom"
	"pathfinder/internal/physical"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

var update = flag.Bool("update", false, "rewrite the XMark golden files under testdata/golden")

var auctionDocs = []difftest.Doc{{URI: "auction.xml", Text: corpus.AuctionDoc}}

var navdomEval = difftest.Navdom("navdom")

// unchained runs each plan with its operator chains dissolved, every
// member a scheduler unit of its own: the per-operator baseline against
// which a chain must be unobservable.
var unchained = difftest.Evaluator{Name: "unchained", Family: difftest.Relational,
	Run: func(tb testing.TB, docs []difftest.Doc) difftest.Eval {
		e := difftest.LoadEngine(tb, difftest.SeqConfig, docs)
		return difftest.OnEngine(e, func(root *algebra.Op) *physical.Plan {
			plan := physical.Lower(root)
			plan.Chains = nil
			return plan
		})
	}}

// demoted runs every theta-join unit's ×, ⊛ and σ one by one under
// difftest.MorselConfig(workers) — the baseline the band kernels are
// compared against.
func demoted(workers int) difftest.Evaluator {
	return difftest.Evaluator{Name: fmt.Sprintf("demoted workers=%d", workers), Family: difftest.Relational,
		Run: func(tb testing.TB, docs []difftest.Doc) difftest.Eval {
			e := difftest.LoadEngine(tb, difftest.MorselConfig(workers), docs)
			e.ForceThetaDemotion()
			return difftest.OnEngine(e, physical.Lower)
		}}
}

func matrix(docs []difftest.Doc, evals ...difftest.Evaluator) difftest.Matrix {
	return difftest.Matrix{Docs: docs, Evals: evals}
}

// runOptimized compiles src, optimizes and checks the plan, and
// evaluates it on eng.
func runOptimized(t *testing.T, src string, eng *engine.Engine, opts xqcore.Options) (string, error) {
	t.Helper()
	plan, err := difftest.Compile(src, opts, difftest.Optimized)
	if err != nil {
		return "", err
	}
	return difftest.OnEngine(eng, physical.Lower)(difftest.Query{Plan: plan})
}

// TestXMarkGolden: the optimized plans on the scheduler against the
// pinned goldens; with -update, rewrite the goldens instead.
func TestXMarkGolden(t *testing.T) {
	if *update {
		difftest.WriteGoldens(t, difftest.Par)
		return
	}
	matrix(difftest.XMarkDocs(), difftest.Par).Run(t, difftest.XMark(t))
}

// TestXMarkParallelDifferential: the sequential path and navdom against
// the goldens; the scheduler meets them in TestXMarkGolden. With the
// goldens pinned, each evaluator runs XMark once.
func TestXMarkParallelDifferential(t *testing.T) {
	xmarkNavdom := difftest.Navdom("navdom", [2]string{"buyer", "person"})
	matrix(difftest.XMarkDocs(), difftest.Seq, xmarkNavdom).Run(t, difftest.XMark(t))
}

func TestDialectParallelDifferential(t *testing.T) {
	cases := difftest.Agree("dialect", corpus.Dialect)
	difftest.NoErrors(t, cases, matrix(auctionDocs, difftest.Seq, difftest.Par, navdomEval).Run(t, cases))
}

// TestXMarkMorselDifferential: with 7-row morsels even the SF 0.002
// instance splits nearly every eligible kernel; no worker count may be
// observable in the output.
func TestXMarkMorselDifferential(t *testing.T) {
	matrix(difftest.XMarkDocs(), difftest.Morsel(1), difftest.Morsel(2), difftest.Morsel(8)).Run(t, difftest.XMark(t))
}

func TestDialectMorselDifferential(t *testing.T) {
	cases := difftest.Agree("dialect", corpus.Dialect)
	m := matrix(auctionDocs, difftest.Seq, difftest.Morsel(1), difftest.Morsel(2), difftest.Morsel(8))
	difftest.NoErrors(t, cases, m.Run(t, cases))
}

// TestXMarkFusionDifferential: the plans with their chains dissolved
// against the goldens, which the morsel engines — chains as scheduler
// units — meet in TestXMarkMorselDifferential. At least one plan must
// form a chain, or the comparison covered per-operator units only.
func TestXMarkFusionDifferential(t *testing.T) {
	cases := difftest.XMark(t)
	matrix(difftest.XMarkDocs(), unchained).Run(t, cases)
	chainsFormed(t, "xmark.xml", cases)
}

// TestDialectFusionDifferential: unchained against the sequential path,
// which the morsel engines meet in TestDialectMorselDifferential.
func TestDialectFusionDifferential(t *testing.T) {
	cases := difftest.Agree("dialect", corpus.Dialect)
	difftest.NoErrors(t, cases, matrix(auctionDocs, difftest.Seq, unchained).Run(t, cases))
	chainsFormed(t, "auction.xml", cases)
}

// chainsFormed fails t unless the plans of cases, plain and optimized,
// form at least one chain between them.
func chainsFormed(t *testing.T, contextDoc string, cases []corpus.Case) {
	t.Helper()
	chains := 0
	for _, c := range cases {
		for _, f := range []difftest.Form{difftest.Plain, difftest.Optimized} {
			plan, err := difftest.Compile(c.Query, xqcore.Options{ContextDoc: contextDoc}, f)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			chains += len(physical.Lower(plan).Chains)
		}
	}
	if chains == 0 {
		t.Fatal("no plan formed a chain; the comparison covered per-operator units only")
	}
	t.Logf("%d chains formed over the corpus", chains)
}

// TestFusionChainsExercised: a range pipeline big enough to clear the
// FusedMinRows gate forms chains, records consistent membership in its
// trace, and gives the same bytes chained at every worker count as
// unchained.
func TestFusionChainsExercised(t *testing.T) {
	const src = `for $i in 1 to 10000 where $i mod 7 = 0 return $i * 2`
	matrix(nil, unchained, difftest.Morsel(1), difftest.Morsel(8)).Run(t, difftest.Agree("range pipeline", []string{src}))
	optimized, err := difftest.Compile(src, xqcore.Options{}, difftest.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if len(physical.Lower(optimized).Chains) == 0 {
		t.Fatal("the range pipeline formed no chain; the differential tier is not exercising chains")
	}
	e := difftest.LoadEngine(t, difftest.MorselConfig(1), nil)
	_, tr, err := e.EvalTrace(context.Background(), optimized)
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

// TestMorselTraceCounts: Q1 with tiny morsels records split kernels in
// its trace — the guard that the morsel differentials exercised the
// parallel paths rather than silently running sequentially.
func TestMorselTraceCounts(t *testing.T) {
	e := difftest.LoadEngine(t, difftest.MorselConfig(8), difftest.XMarkDocs())
	plan, err := difftest.Compile(xmark.Query(1), xqcore.Options{ContextDoc: "xmark.xml"}, difftest.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := e.EvalTrace(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	split, maxMorsels := 0, 0
	for _, st := range tr.Stats {
		if st.Morsels > 1 {
			split++
			maxMorsels = max(maxMorsels, st.Morsels)
		}
	}
	if split == 0 {
		t.Fatal("no operator split into morsels despite MorselRows=7")
	}
	t.Logf("%d operators split; largest = %d morsels", split, maxMorsels)
}

// TestRangeEdges: corpus.IntEdges — in the engine and in navdom, each
// range and integer operation yields its pinned result, the size guard's
// error or FOAR0002, never a wrapped value or an allocated span.
func TestRangeEdges(t *testing.T) {
	matrix([]difftest.Doc{{URI: "r.xml", Text: "<r/>"}}, difftest.Seq, difftest.Par, navdomEval).Run(t, corpus.IntEdges)
}

// TestConstructorCases: the constructor content rules with an outcome
// other than "copy the item".
func TestConstructorCases(t *testing.T) {
	matrix([]difftest.Doc{{URI: "r.xml", Text: corpus.ConstructorDoc}}, difftest.Seq, difftest.Par, navdomEval).Run(t, corpus.Constructors)
}

// TestListsThroughHooks: navdom's battery and the random queries with
// chains dissolved and with theta joins demoted — the evaluators of the
// whole matrix that need this package's hooks. navdom's
// TestDifferentialEngines and TestQuickRandomDifferential run the same
// lists through every engine configuration and navdom.
func TestListsThroughHooks(t *testing.T) {
	cases := append(difftest.Agree("navigational", corpus.Navigational), difftest.Agree("random", corpus.Random(7, 200))...)
	matrix(auctionDocs, difftest.Seq, unchained, demoted(8)).Run(t, cases)
}

// TestSharedPlanConcurrentEval evaluates one compiled plan from many
// goroutines against a single shared engine and store. The query
// constructs elements, so every evaluation allocates fragments in the
// shared store — the strongest store-locking stress short of -race. All
// goroutines run the one lowering the test holds.
func TestSharedPlanConcurrentEval(t *testing.T) {
	par := difftest.LoadEngine(t, difftest.ParConfig, auctionDocs)
	const src = `for $p in //person
	 order by $p/name
	 return <row id="{$p/@id}">{$p/name/text()}</row>`
	plan, err := difftest.Compile(src, xqcore.Options{ContextDoc: "auction.xml"}, difftest.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	lowered := physical.Lower(plan)
	eval := func() (string, error) {
		res, _, err := par.EvalPlan(context.Background(), lowered, false)
		if err != nil {
			return "", err
		}
		return serialize.Result(par.Store, res)
	}
	want, err := eval()
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	outs := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g], errs[g] = eval()
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if outs[g] != want {
			t.Errorf("goroutine %d: result drifted:\n want %q\n got  %q", g, want, outs[g])
		}
	}
}

// TestLargeRangePipelines runs filter/map pipelines over 50 000-row
// ranges — the operator chains of loop-lifted FLWORs at a size where the
// default morsel size splits kernels — through the optimized plan at
// workers 1 and 2 with runtime checking on, and compares each result with
// the navigational baseline. At least one operator must report a morsel
// split, or the comparison covered only the unsplit kernels. It stays off
// the runner, which would add the plain plan: under -race that doubles
// the test's time.
func TestLargeRangePipelines(t *testing.T) {
	pipelines := []string{
		"for $i in 1 to 50000 where $i mod 7 = 0 return $i * 2",
		"for $i in 1 to 50000 where $i mod 3 = 0 return ($i * 2) + 1",
		"for $i in 1 to 50000 where ($i + 5) mod 4 = 1 return $i - 1",
		"sum(for $i in 1 to 50000 where $i mod 7 = 0 return $i * 2)",
		"sum(for $i in 1 to 50000 where $i mod 3 = 0 return ($i * 2) + 1)",
		"sum(for $i in 1 to 50000 where ($i + 5) mod 4 = 1 return $i - 1)",
	}
	db := navdom.NewDB()
	for _, w := range []int{1, 2} {
		e := engine.NewWithConfig(xenc.NewStore(), engine.Config{Workers: w, Check: true})
		split := false
		for _, src := range pipelines {
			want, err := navdom.NewInterp(db).Run(src, xqcore.Options{})
			if err != nil {
				t.Fatalf("%s: navdom: %v", src, err)
			}
			plan, err := difftest.Compile(src, xqcore.Options{}, difftest.Optimized)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			res, tr, err := e.EvalTrace(context.Background(), plan)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", src, w, err)
			}
			got, err := serialize.Result(e.Store, res)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s workers=%d:\n rel = %.200q\n nav = %.200q", src, w, got, want)
			}
			for _, st := range tr.Stats {
				split = split || st.Morsels > 1
			}
		}
		if !split {
			t.Errorf("workers=%d: no operator split into morsels at the default morsel size", w)
		}
	}
}
