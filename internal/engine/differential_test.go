package engine_test

// The engine's differential tiers, each one runner call
// (internal/difftest): a case list over a matrix of evaluators. The
// evaluators are the executor, the same plans with their theta joins
// demoted (this package's test hook, export_test.go), and navdom. XMark's cases pin
// the goldens, so every evaluator is byte-exact against them; `go test
// ./internal/engine -run TestXMarkGolden -update` (make golden) rewrites
// them. The engine-specific assertions — theta lanes, count-only units
// — run after the runner.

import (
	"context"
	"flag"
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

// demoted runs every theta-join unit's ×, ⊛ and σ one by one under
// difftest.CheckConfig — the baseline the band kernels are compared
// against.
var demoted = difftest.Evaluator{Name: "demoted", Family: difftest.Relational,
	Run: func(tb testing.TB, docs []difftest.Doc) difftest.Eval {
		e := difftest.LoadEngine(tb, difftest.CheckConfig, docs)
		e.ForceThetaDemotion()
		return difftest.OnEngine(e, physical.Lower)
	}}

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

// TestXMarkGolden: the optimized plans on the executor against the
// pinned goldens; with -update, rewrite the goldens instead.
func TestXMarkGolden(t *testing.T) {
	if *update {
		difftest.WriteGoldens(t, difftest.Check)
		return
	}
	matrix(difftest.XMarkDocs(), difftest.Check).Run(t, difftest.XMark(t))
}

// TestXMarkParallelDifferential: navdom against the goldens; the
// executor meets them in TestXMarkGolden. With the goldens pinned, each
// evaluator runs XMark once. (The name predates the one executor.)
func TestXMarkParallelDifferential(t *testing.T) {
	xmarkNavdom := difftest.Navdom("navdom", [2]string{"buyer", "person"})
	matrix(difftest.XMarkDocs(), xmarkNavdom).Run(t, difftest.XMark(t))
}

func TestDialectParallelDifferential(t *testing.T) {
	cases := difftest.Agree("dialect", corpus.Dialect)
	difftest.NoErrors(t, cases, matrix(auctionDocs, difftest.Check, navdomEval).Run(t, cases))
}

// TestFusionChainsExercised: a 10 000-row range pipeline gives the same
// bytes as navdom.
func TestFusionChainsExercised(t *testing.T) {
	const src = `for $i in 1 to 10000 where $i mod 7 = 0 return $i * 2`
	matrix(nil, difftest.Check, navdomEval).Run(t, difftest.Agree("range pipeline", []string{src}))
}

// TestRangeEdges: corpus.IntEdges — in the engine and in navdom, each
// range and integer operation yields its pinned result, the size guard's
// error or FOAR0002, never a wrapped value or an allocated span.
func TestRangeEdges(t *testing.T) {
	matrix([]difftest.Doc{{URI: "r.xml", Text: "<r/>"}}, difftest.Check, navdomEval).Run(t, corpus.IntEdges)
}

// TestUntypedCompare: corpus.UntypedCompare — two untyped atomics
// compare as strings on every plan shape (hash join, semijoin, one pair,
// band join, and that join demoted), in the engine and in navdom.
func TestUntypedCompare(t *testing.T) {
	matrix([]difftest.Doc{{URI: "r.xml", Text: corpus.UntypedCompareDoc}},
		difftest.Check, demoted, navdomEval).Run(t, corpus.UntypedCompare)
}

// TestStepPredicates: corpus.StepPredicates — a positional step
// predicate counts per context node in the executor, with theta joins
// demoted, and in navdom.
func TestStepPredicates(t *testing.T) {
	matrix([]difftest.Doc{{URI: "sp.xml", Text: corpus.StepPredicatesDoc}},
		difftest.Check, demoted, navdomEval).Run(t, corpus.StepPredicates)
}

// TestConstructorCases: the constructor content rules with an outcome
// other than "copy the item".
func TestConstructorCases(t *testing.T) {
	matrix([]difftest.Doc{{URI: "r.xml", Text: corpus.ConstructorDoc}}, difftest.Check, navdomEval).Run(t, corpus.Constructors)
}

// TestListsThroughHooks: navdom's battery and the random queries with
// theta joins demoted — the one evaluator of the whole matrix that needs
// this package's hooks. navdom's TestDifferentialEngines and
// TestQuickRandomDifferential run the same lists through every engine
// configuration and navdom.
func TestListsThroughHooks(t *testing.T) {
	cases := append(difftest.Agree("navigational", corpus.Navigational), difftest.Agree("random", corpus.Random(7, 200))...)
	matrix(auctionDocs, difftest.Check, demoted).Run(t, cases)
}

// TestSharedPlanConcurrentEval evaluates one compiled plan from many
// goroutines against a single shared engine and store. The query
// constructs elements, so every evaluation allocates fragments in the
// shared store — the strongest store-locking stress short of -race. All
// goroutines run the one lowering the test holds.
func TestSharedPlanConcurrentEval(t *testing.T) {
	par := difftest.LoadEngine(t, difftest.CheckConfig, auctionDocs)
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

// TestOnePlanManyGoroutines: EvalPlan's promise that one plan may run on
// many goroutines at once. Each of the 20 XMark plans is lowered once;
// eight goroutines run all of them at the same time, in different
// orders, each evaluation on its own scratch view of one shared store
// (as the service runs requests), and every result is byte-identical to
// the golden. The engine runs in Check mode, which derives the
// properties it asserts once per evaluation and keeps them with that
// evaluation: nothing is written into the shared plan nodes. `make race`
// runs it under the race detector.
func TestOnePlanManyGoroutines(t *testing.T) {
	e := difftest.LoadEngine(t, engine.Config{Check: true}, difftest.XMarkDocs())
	cases := difftest.XMark(t)
	plans := make([]*physical.Plan, len(cases))
	for i, c := range cases {
		plan, err := difftest.Compile(c.Query, xqcore.Options{ContextDoc: "xmark.xml"}, difftest.Optimized)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		plans[i] = physical.Lower(plan)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range plans {
				i := (k + g*3) % len(plans)
				scratch := e.Store.Scratch()
				res, _, err := e.ForStore(scratch, "").EvalPlan(context.Background(), plans[i], false)
				if err == nil {
					var got string
					if got, err = serialize.Result(scratch, res); err == nil && got != cases[i].Want {
						t.Errorf("goroutine %d, %s: result drifted from the golden:\n got %.200q", g, cases[i].Name, got)
					}
				}
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", g, cases[i].Name, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLargeRangePipelines runs filter/map pipelines over 50 000-row
// ranges — the per-row operator runs of loop-lifted FLWORs, at a size
// well past one cancellation stride — through the optimized plan with
// runtime checking on, and compares each result with the navigational
// baseline. It stays off the runner, which would add the plain plan:
// under -race that doubles the test's time.
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
	e := engine.NewWithConfig(xenc.NewStore(), difftest.CheckConfig)
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
			t.Fatalf("%s: %v", src, err)
		}
		got, err := serialize.Result(e.Store, res)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s:\n rel = %.200q\n nav = %.200q", src, got, want)
		}
	}
}
