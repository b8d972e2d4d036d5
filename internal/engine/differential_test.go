package engine_test

// Differential harness for the physical executor: every XMark query and
// the Table 2 dialect corpus run through (a) the sequential path, (b) the
// parallel scheduler with the fallback disabled, both on the compiled and
// on the optimized plan, and (c) the navigational baseline, and all
// serialized results must be byte-identical.

import (
	"context"
	"strings"
	"sync"
	"testing"

	"pathfinder/internal/check"
	"pathfinder/internal/core"
	"pathfinder/internal/corpus"
	"pathfinder/internal/engine"
	"pathfinder/internal/navdom"
	"pathfinder/internal/opt"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

const diffSF = 0.002

// The Table 2 dialect corpus and its document are shared with the
// service-path differential tests (internal/corpus), so both tiers
// difference the same construct set.
const auctionDoc = corpus.AuctionDoc

var dialectQueries = corpus.Dialect

// seqEngine returns an engine pinned to the sequential path (one worker),
// with runtime invariant checking on.
func seqEngine(t *testing.T, uri, doc string) *engine.Engine {
	t.Helper()
	e := engine.NewWithConfig(xenc.NewStore(), engine.Config{Workers: 1, Check: true})
	if _, err := e.Store.LoadDocumentString(uri, doc); err != nil {
		t.Fatal(err)
	}
	return e
}

// parEngine returns an engine forced onto the parallel DAG scheduler:
// worker pool of 8 regardless of GOMAXPROCS, fallback disabled so even
// tiny plans take the concurrent path.
func parEngine(t *testing.T, uri, doc string) *engine.Engine {
	t.Helper()
	e := engine.NewWithConfig(xenc.NewStore(), engine.Config{Workers: 8, SeqThreshold: -1, Check: true})
	if _, err := e.Store.LoadDocumentString(uri, doc); err != nil {
		t.Fatal(err)
	}
	return e
}

// runOptimized compiles, runs the optimizer pipeline, validates, and
// evaluates on the given engine. Every optimized plan passes the full
// static validator before it runs, so a property-inference or lowering
// regression fails here first.
func runOptimized(t *testing.T, src string, eng *engine.Engine, opts xqcore.Options) (string, error) {
	t.Helper()
	plan, _, err := core.CompileQuery(src, opts)
	if err != nil {
		return "", err
	}
	if plan, err = opt.Optimize(plan); err != nil {
		return "", err
	}
	if err := check.Error(check.Plan(plan)); err != nil {
		return "", err
	}
	res, err := eng.Eval(plan)
	if err != nil {
		return "", err
	}
	return serialize.Result(eng.Store, res)
}

// TestXMarkParallelDifferential runs all 20 XMark queries over the same
// generated instance through the sequential path, the parallel
// scheduler, and the navigational baseline.
func TestXMarkParallelDifferential(t *testing.T) {
	doc := xmark.GenerateString(diffSF)
	seq := seqEngine(t, "xmark.xml", doc)
	par := parEngine(t, "xmark.xml", doc)
	db := navdom.NewDB()
	if _, err := db.LoadString("xmark.xml", doc); err != nil {
		t.Fatal(err)
	}
	db.AddValueIndex("buyer", "person")
	opts := xqcore.Options{ContextDoc: "xmark.xml"}

	for n := 1; n <= xmark.NumQueries; n++ {
		src := xmark.Query(n)
		seqOut, errS := core.Run(src, seq, opts)
		parOut, errP := core.Run(src, par, opts)
		nav, errN := navdom.NewInterp(db).Run(src, opts)
		if errS != nil || errP != nil || errN != nil {
			t.Errorf("Q%d: seq err=%v, par err=%v, nav err=%v", n, errS, errP, errN)
			continue
		}
		if seqOut != parOut {
			t.Errorf("Q%d: parallel result differs from sequential:\n seq = %.400q\n par = %.400q", n, seqOut, parOut)
		}
		if seqOut != nav {
			t.Errorf("Q%d: engines differ from baseline:\n rel = %.400q\n nav = %.400q", n, seqOut, nav)
		}
		// Optimized plans must agree on both evaluators too.
		optSeq, errOS := runOptimized(t, src, seq, opts)
		optPar, errOP := runOptimized(t, src, par, opts)
		if errOS != nil || errOP != nil {
			t.Errorf("Q%d optimized: seq err=%v, par err=%v", n, errOS, errOP)
			continue
		}
		if optSeq != seqOut || optPar != seqOut {
			t.Errorf("Q%d: optimized results drifted:\n plain   = %.400q\n opt seq = %.400q\n opt par = %.400q",
				n, seqOut, optSeq, optPar)
		}
	}
}

// TestDialectParallelDifferential runs the Table 2 corpus through the same
// three evaluation paths over the miniature auction document.
func TestDialectParallelDifferential(t *testing.T) {
	seq := seqEngine(t, "auction.xml", auctionDoc)
	par := parEngine(t, "auction.xml", auctionDoc)
	db := navdom.NewDB()
	if _, err := db.LoadString("auction.xml", auctionDoc); err != nil {
		t.Fatal(err)
	}
	opts := xqcore.Options{ContextDoc: "auction.xml"}

	for _, src := range dialectQueries {
		seqOut, errS := core.Run(src, seq, opts)
		parOut, errP := core.Run(src, par, opts)
		nav, errN := navdom.NewInterp(db).Run(src, opts)
		if errS != nil || errP != nil || errN != nil {
			t.Errorf("%s: seq err=%v, par err=%v, nav err=%v", src, errS, errP, errN)
			continue
		}
		if seqOut != parOut {
			t.Errorf("%s:\n seq = %q\n par = %q", src, seqOut, parOut)
		}
		if seqOut != nav {
			t.Errorf("%s:\n rel = %q\n nav = %q", src, seqOut, nav)
		}
		optSeq, errOS := runOptimized(t, src, seq, opts)
		optPar, errOP := runOptimized(t, src, par, opts)
		if errOS != nil || errOP != nil {
			t.Errorf("%s: optimized: seq err=%v, par err=%v", src, errOS, errOP)
			continue
		}
		if optSeq != seqOut || optPar != seqOut {
			t.Errorf("%s: optimized results drifted:\n plain   = %q\n opt seq = %q\n opt par = %q", src, seqOut, optSeq, optPar)
		}
	}
}

// TestSharedPlanConcurrentEval evaluates one compiled plan from many
// goroutines against a single shared engine and store. The query
// constructs elements, so every evaluation allocates fragments in the
// shared store — the strongest store-locking stress short of -race.
func TestSharedPlanConcurrentEval(t *testing.T) {
	par := parEngine(t, "auction.xml", auctionDoc)
	opts := xqcore.Options{ContextDoc: "auction.xml"}
	const src = `for $p in //person
	 order by $p/name
	 return <row id="{$p/@id}">{$p/name/text()}</row>`
	plan, _, err := core.CompileQuery(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = opt.Optimize(plan)
	if err != nil {
		t.Fatal(err)
	}

	want, err := func() (string, error) {
		res, err := par.Eval(plan)
		if err != nil {
			return "", err
		}
		return serialize.Result(par.Store, res)
	}()
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
			res, err := par.Eval(plan)
			if err != nil {
				errs[g] = err
				return
			}
			outs[g], errs[g] = serialize.Result(par.Store, res)
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
// split, or the comparison covered only the unsplit kernels.
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
			plan, _, err := core.CompileQuery(src, xqcore.Options{})
			if err == nil {
				plan, err = opt.Optimize(plan)
			}
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

// TestRangeEdges runs the int64-edge cases of corpus.IntEdges: each
// range and each integer operation yields its pinned result, the size
// guard's error or FOAR0002 — never a wrapped value or an allocated span.
func TestRangeEdges(t *testing.T) {
	agreeOnCases(t, "<r/>", corpus.IntEdges)
}

// TestConstructorCases runs the constructor corpus — the content rules
// with an outcome other than "copy the item".
func TestConstructorCases(t *testing.T) {
	agreeOnCases(t, corpus.ConstructorDoc, corpus.Constructors)
}

// agreeOnCases runs each case over doc through the sequential and the
// parallel executor, the optimized plan and the navigational baseline:
// all four produce the pinned result, or all four raise an error naming
// the pinned text.
func agreeOnCases(t *testing.T, doc string, cases []corpus.Case) {
	const uri = "r.xml"
	seq := seqEngine(t, uri, doc)
	par := parEngine(t, uri, doc)
	db := navdom.NewDB()
	if _, err := db.LoadString(uri, doc); err != nil {
		t.Fatal(err)
	}
	opts := xqcore.Options{ContextDoc: uri}
	for _, c := range cases {
		runs := []struct {
			name string
			run  func() (string, error)
		}{
			{"phys seq", func() (string, error) { return core.Run(c.Query, seq, opts) }},
			{"phys par", func() (string, error) { return core.Run(c.Query, par, opts) }},
			{"optimized par", func() (string, error) { return runOptimized(t, c.Query, par, opts) }},
			{"navdom", func() (string, error) { return navdom.NewInterp(db).Run(c.Query, opts) }},
		}
		for _, r := range runs {
			got, err := r.run()
			switch {
			case c.Err != "" && (err == nil || !strings.Contains(err.Error(), c.Err)):
				t.Errorf("%s: %s: got %q, err %v; want an error naming %s", c.Query, r.name, got, err, c.Err)
			case c.Err == "" && (err != nil || got != c.Want):
				t.Errorf("%s: %s: got %q, err %v; want %q", c.Query, r.name, got, err, c.Want)
			}
		}
	}
}
