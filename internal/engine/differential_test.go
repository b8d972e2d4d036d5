package engine_test

// The engine's differential tiers, each one runner call
// (internal/difftest): a case list over a matrix of evaluators. The
// evaluators are the sequential path, the DAG scheduler at workers
// 1 / 2 / 8, the same plans with their theta joins demoted (this
// package's test hook, export_test.go), and navdom. XMark's cases pin
// the goldens, so every evaluator is byte-exact against them; `go test
// ./internal/engine -run TestXMarkGolden -update` (make golden) rewrites
// them. The engine-specific assertions — theta lanes, count-only units
// — run after the runner.

import (
	"context"
	"flag"
	"fmt"
	"sync"
	"testing"

	"pathfinder/internal/corpus"
	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
	"pathfinder/internal/navdom"
	"pathfinder/internal/physical"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

var update = flag.Bool("update", false, "rewrite the XMark golden files under testdata/golden")

var auctionDocs = []difftest.Doc{{URI: "auction.xml", Text: corpus.AuctionDoc}}

var navdomEval = difftest.Navdom("navdom")

// scheduledConfig is the DAG scheduler at the given worker budget with
// the sequential fallback off, so even tiny plans run on it, and runtime
// checking on.
func scheduledConfig(workers int) engine.Config {
	return engine.Config{Workers: workers, SeqThreshold: -1, Check: true}
}

// scheduled is the engine under scheduledConfig(workers).
func scheduled(workers int) difftest.Evaluator {
	return difftest.Engine(fmt.Sprintf("scheduled workers=%d", workers), scheduledConfig(workers))
}

// demoted runs every theta-join unit's ×, ⊛ and σ one by one under
// scheduledConfig(workers) — the baseline the band kernels are compared
// against.
func demoted(workers int) difftest.Evaluator {
	return difftest.Evaluator{Name: fmt.Sprintf("demoted workers=%d", workers), Family: difftest.Relational,
		Run: func(tb testing.TB, docs []difftest.Doc) difftest.Eval {
			e := difftest.LoadEngine(tb, scheduledConfig(workers), docs)
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

// TestFusionChainsExercised: a 10 000-row range pipeline gives the same
// bytes on the scheduler at every worker count as on the sequential path.
func TestFusionChainsExercised(t *testing.T) {
	const src = `for $i in 1 to 10000 where $i mod 7 = 0 return $i * 2`
	matrix(nil, difftest.Seq, scheduled(1), scheduled(8)).Run(t, difftest.Agree("range pipeline", []string{src}))
}

// TestRangeEdges: corpus.IntEdges — in the engine and in navdom, each
// range and integer operation yields its pinned result, the size guard's
// error or FOAR0002, never a wrapped value or an allocated span.
func TestRangeEdges(t *testing.T) {
	matrix([]difftest.Doc{{URI: "r.xml", Text: "<r/>"}}, difftest.Seq, difftest.Par, navdomEval).Run(t, corpus.IntEdges)
}

// TestUntypedCompare: corpus.UntypedCompare — two untyped atomics
// compare as strings on every plan shape (hash join, semijoin, one pair,
// band join, and that join demoted), in the engine and in navdom.
func TestUntypedCompare(t *testing.T) {
	matrix([]difftest.Doc{{URI: "r.xml", Text: corpus.UntypedCompareDoc}},
		difftest.Seq, difftest.Par, demoted(2), navdomEval).Run(t, corpus.UntypedCompare)
}

// TestStepPredicates: corpus.StepPredicates — a positional step
// predicate counts per context node on every executor configuration, with
// theta joins demoted, and in navdom.
func TestStepPredicates(t *testing.T) {
	matrix([]difftest.Doc{{URI: "sp.xml", Text: corpus.StepPredicatesDoc}},
		difftest.Seq, difftest.Par, scheduled(2), demoted(2), navdomEval).Run(t, corpus.StepPredicates)
}

// TestConstructorCases: the constructor content rules with an outcome
// other than "copy the item".
func TestConstructorCases(t *testing.T) {
	matrix([]difftest.Doc{{URI: "r.xml", Text: corpus.ConstructorDoc}}, difftest.Seq, difftest.Par, navdomEval).Run(t, corpus.Constructors)
}

// TestListsThroughHooks: navdom's battery and the random queries with
// theta joins demoted — the one evaluator of the whole matrix that needs
// this package's hooks. navdom's TestDifferentialEngines and
// TestQuickRandomDifferential run the same lists through every engine
// configuration and navdom.
func TestListsThroughHooks(t *testing.T) {
	cases := append(difftest.Agree("navigational", corpus.Navigational), difftest.Agree("random", corpus.Random(7, 200))...)
	matrix(auctionDocs, difftest.Seq, demoted(8)).Run(t, cases)
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
// ranges — the per-row operator runs of loop-lifted FLWORs, at a size
// well past one cancellation stride — through the optimized plan at
// workers 1 and 2 with runtime checking on, and compares each result
// with the navigational baseline. It stays off the runner, which would
// add the plain plan: under -race that doubles the test's time.
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
		for _, src := range pipelines {
			want, err := navdom.NewInterp(db).Run(src, xqcore.Options{})
			if err != nil {
				t.Fatalf("%s: navdom: %v", src, err)
			}
			plan, err := difftest.Compile(src, xqcore.Options{}, difftest.Optimized)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			res, err := e.EvalContext(context.Background(), plan)
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
		}
	}
}
